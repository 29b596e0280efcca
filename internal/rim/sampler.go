package rim

import (
	"math/rand"

	"probpref/internal/rank"
)

// Sampler is the minimal interface shared by the ranking models of this
// package: a probability distribution over the rankings of a fixed item
// universe 0..M()-1 that supports drawing samples and evaluating the
// probability of a given ranking.
//
// Exact pattern-union inference (package solver) is specific to RIM-shaped
// models, but any Sampler can be queried approximately through rejection
// sampling (sampling.RejectionModel) and exactly on tiny universes through
// enumeration (solver.BruteModel). This is the extension point for the
// paper's future-work direction of preference models beyond RIM.
type Sampler interface {
	// M returns the number of items.
	M() int
	// Sample draws a ranking the caller owns: SampleInto(rng, nil).
	Sample(rng *rand.Rand) rank.Ranking
	// SampleInto draws a ranking into buf when buf has room for M() items
	// (its length is ignored) and into a fresh slice otherwise. It reads
	// rng exactly as Sample does, so the two are interchangeable draw for
	// draw; a sampling loop that consumes each ranking before the next
	// draw passes the previous result back in and allocates once.
	SampleInto(rng *rand.Rand, buf rank.Ranking) rank.Ranking
	// Prob returns the probability of tau, or 0 when tau is not a
	// permutation of 0..M()-1.
	Prob(tau rank.Ranking) float64
}

// SessionModel is the interface a ranking model must satisfy to serve as a
// session distribution in a RIM-PPD: a RIM materialization (so the exact
// solvers apply), a reference ranking (for the top-k ease heuristic), a
// content key (for identical-request grouping), plus the Sampler
// operations. Mallows and GeneralizedMallows satisfy it; models outside
// the RIM family (e.g. PlackettLuce) do not, because exact pattern-union
// inference is not available for them.
type SessionModel interface {
	Sampler
	// Reference returns the model's reference (center) ranking.
	Reference() rank.Ranking
	// Model materializes the equivalent RIM.
	Model() *Model
	// Rehash returns a deterministic content key for grouping identical
	// models during query evaluation.
	Rehash() string
}

// Compile-time interface checks for every model in the package.
var (
	_ Sampler = (*Model)(nil)
	_ Sampler = (*Mallows)(nil)
	_ Sampler = (*Mixture)(nil)
	_ Sampler = (*GeneralizedMallows)(nil)
	_ Sampler = (*PlackettLuce)(nil)

	_ SessionModel = (*Mallows)(nil)
	_ SessionModel = (*GeneralizedMallows)(nil)
	_ SessionModel = (*Model)(nil)

	_ PrefixSampler = (*Mallows)(nil)
	_ PrefixSampler = (*GeneralizedMallows)(nil)
	_ PrefixSampler = (*Model)(nil)
)

// PrefixSampler is a Sampler that inserts the items of its reference ranking
// one by one, as every RIM does. Once the first k reference items are in,
// later insertions only place other items between them, so their relative
// order is final: a caller that reads nothing else of a draw (a rejection
// loop whose union no later item can match) draws that prefix alone.
type PrefixSampler interface {
	Sampler
	// Reference returns the reference ranking, in insertion order.
	Reference() rank.Ranking
	// SamplePrefixInto draws the relative order of Reference()[:k] into buf
	// (as SampleInto does the whole ranking) and reads rng exactly as
	// SampleInto does: the rest of the draw's numbers are read and dropped,
	// so the next draw is the one that would have followed a full draw.
	SamplePrefixInto(rng *rand.Rand, buf rank.Ranking, k int) rank.Ranking
}

// drawBuf returns the empty ranking of capacity m that a SampleInto draws
// into: buf's memory when it is large enough, fresh memory otherwise.
func drawBuf(buf rank.Ranking, m int) rank.Ranking {
	if cap(buf) < m {
		return make(rank.Ranking, 0, m)
	}
	return buf[:0]
}

// offsetStep is the insertion step of the models that draw an offset from
// the end (Mallows, GeneralizedMallows, AMP): one loop that scans the
// running sums cum of a weight row and shifts the tail. The last slot of tau
// is free, and item goes in at offset t from it, the first t with
// u < cum[t] (the front of tau when rounding leaves u at the total). The
// tables hold the partial sums in the order a draw would add the weights
// up, so the scan picks the offset that adding them up would have picked,
// without the additions. It returns item's position in tau.
func offsetStep(tau rank.Ranking, item rank.Item, u float64, cum []float64) int {
	j := len(tau) - 1
	for _, c := range cum[:j] {
		if u < c {
			break
		}
		tau[j] = tau[j-1]
		j--
	}
	tau[j] = item
	return j
}
