package rim

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"strings"

	"probpref/internal/rank"
)

// PlackettLuce is the Plackett-Luce ranking model: every item carries a
// positive worth w, and a ranking is built top-down by repeatedly choosing
// the next item among the remaining ones with probability proportional to
// its worth. Pr(tau) = prod_p w(tau[p]) / sum_{q >= p} w(tau[q]).
//
// Plackett-Luce is not a Repeated Insertion Model, so the paper's exact
// solvers do not apply to it; it is included as a "beyond RIM" preference
// model (the paper's closing future-work direction). Pattern-union
// probabilities over a Plackett-Luce session are computed by rejection
// sampling (sampling.RejectionModel) or, on tiny universes, exactly by
// enumeration (solver.BruteModel).
type PlackettLuce struct {
	// Weights[i] is the worth of item i; strictly positive and finite.
	Weights []float64

	logW []float64
}

// NewPlackettLuce validates and constructs a Plackett-Luce model.
func NewPlackettLuce(weights []float64) (*PlackettLuce, error) {
	if len(weights) == 0 {
		return nil, fmt.Errorf("rim: Plackett-Luce needs at least one item")
	}
	pl := &PlackettLuce{
		Weights: append([]float64(nil), weights...),
		logW:    make([]float64, len(weights)),
	}
	for i, w := range weights {
		if !(w > 0) || math.IsInf(w, 1) {
			return nil, fmt.Errorf("rim: Plackett-Luce weight %d = %v must be positive and finite", i, w)
		}
		pl.logW[i] = math.Log(w)
	}
	return pl, nil
}

// MustPlackettLuce is NewPlackettLuce but panics on error.
func MustPlackettLuce(weights []float64) *PlackettLuce {
	pl, err := NewPlackettLuce(weights)
	if err != nil {
		panic(err)
	}
	return pl
}

// M returns the number of items.
func (pl *PlackettLuce) M() int { return len(pl.Weights) }

// Sample draws a ranking by sequential selection proportional to worth.
func (pl *PlackettLuce) Sample(rng *rand.Rand) rank.Ranking { return pl.SampleInto(rng, nil) }

// SampleInto is Sample writing the ranking into buf; the pool of remaining
// items and worths is still allocated per draw.
func (pl *PlackettLuce) SampleInto(rng *rand.Rand, buf rank.Ranking) rank.Ranking {
	m := len(pl.Weights)
	remaining := make([]rank.Item, m)
	weights := make([]float64, m)
	total := 0.0
	for i := range remaining {
		remaining[i] = rank.Item(i)
		weights[i] = pl.Weights[i]
		total += pl.Weights[i]
	}
	tau := drawBuf(buf, m)
	for len(remaining) > 0 {
		u := rng.Float64() * total
		acc := 0.0
		pick := len(remaining) - 1
		for k, w := range weights {
			acc += w
			if u < acc {
				pick = k
				break
			}
		}
		tau = append(tau, remaining[pick])
		total -= weights[pick]
		last := len(remaining) - 1
		remaining[pick], weights[pick] = remaining[last], weights[last]
		remaining, weights = remaining[:last], weights[:last]
	}
	return tau
}

// LogProb returns log Pr(tau), or -Inf when tau is not a permutation of
// 0..M()-1.
func (pl *PlackettLuce) LogProb(tau rank.Ranking) float64 {
	if len(tau) != len(pl.Weights) || !tau.IsPermutation() {
		return math.Inf(-1)
	}
	// Suffix sums of remaining worth.
	rem := 0.0
	suffix := make([]float64, len(tau))
	for p := len(tau) - 1; p >= 0; p-- {
		rem += pl.Weights[tau[p]]
		suffix[p] = rem
	}
	lp := 0.0
	for p, it := range tau {
		lp += pl.logW[it] - math.Log(suffix[p])
	}
	return lp
}

// Prob returns Pr(tau).
func (pl *PlackettLuce) Prob(tau rank.Ranking) float64 {
	return math.Exp(pl.LogProb(tau))
}

// Mode returns the most probable ranking: items by descending worth,
// breaking ties by ascending item id.
func (pl *PlackettLuce) Mode() rank.Ranking {
	tau := rank.Identity(len(pl.Weights))
	sort.SliceStable(tau, func(i, j int) bool {
		return pl.Weights[tau[i]] > pl.Weights[tau[j]]
	})
	return tau
}

// TopProb returns the probability that item x is ranked first:
// w(x) / sum(w).
func (pl *PlackettLuce) TopProb(x rank.Item) float64 {
	if int(x) < 0 || int(x) >= len(pl.Weights) {
		return 0
	}
	total := 0.0
	for _, w := range pl.Weights {
		total += w
	}
	return pl.Weights[x] / total
}

// PairwiseProb returns Pr(a preferred to b) = w(a) / (w(a) + w(b)), the
// Luce choice axiom's closed form for pairwise marginals.
func (pl *PlackettLuce) PairwiseProb(a, b rank.Item) float64 {
	if a == b || int(a) < 0 || int(b) < 0 || int(a) >= len(pl.Weights) || int(b) >= len(pl.Weights) {
		return 0
	}
	return pl.Weights[a] / (pl.Weights[a] + pl.Weights[b])
}

// Rehash returns a deterministic content key for grouping identical models.
func (pl *PlackettLuce) Rehash() string {
	var b strings.Builder
	b.WriteString("pl")
	for _, w := range pl.Weights {
		b.WriteByte('|')
		writeParam(&b, w)
	}
	return b.String()
}
