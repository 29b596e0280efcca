package rim

import (
	"fmt"
	"math"
	"math/bits"
	"math/rand"

	"probpref/internal/rank"
)

// AMP is the Approximate Mallows Posterior sampler of Lu and Boutilier:
// it draws rankings from (an approximation of) the Mallows posterior
// conditioned on a partial order upsilon. Sampling follows the RIM insertion
// procedure of MAL(center, phi), but each item may only be inserted at
// positions that do not violate upsilon; position j is chosen with
// probability proportional to phi^(i-j) over the feasible range.
//
// AMP exposes its exact proposal density, which is what the importance
// samplers of package sampling need for re-weighting. An AMP is immutable
// once built and may be shared between goroutines; the working memory of a
// draw or a density evaluation lives in a Scratch, one per goroutine.
type AMP struct {
	Center rank.Ranking
	Phi    float64

	cons *rank.PartialOrder // transitively closed constraints
	// preds[x] and succs[x] list the items constrained to precede and to
	// follow x that the center inserts before x: the only ones in place,
	// and so the only ones that bound x's position, when x is inserted.
	preds, succs [][]rank.Item
	tracked      []bool    // tracked[x]: some constraint mentions x
	geom         []float64 // geom[k] = 1 + phi + ... + phi^k
	logGeom      []float64 // logGeom[k] = log(geom[k])
	logPhi       float64
}

// NewAMP builds an AMP sampler for MAL(center, phi) conditioned on cons.
// cons may be any acyclic preference graph; it is transitively closed
// internally. phi must be in (0, 1].
func NewAMP(center rank.Ranking, phi float64, cons *rank.PartialOrder) (*AMP, error) {
	if !center.IsPermutation() {
		return nil, fmt.Errorf("rim: AMP center %v is not a permutation", center)
	}
	if phi <= 0 || phi > 1 || math.IsNaN(phi) {
		return nil, fmt.Errorf("rim: AMP requires phi in (0,1], got %v", phi)
	}
	if cons == nil {
		cons = rank.NewPartialOrder()
	}
	if cons.HasCycle() {
		return nil, fmt.Errorf("rim: AMP constraints contain a cycle")
	}
	tc := cons.TransitiveClosure()
	m := len(center)
	a := &AMP{
		Center:  center.Clone(),
		Phi:     phi,
		cons:    tc,
		preds:   make([][]rank.Item, m),
		succs:   make([][]rank.Item, m),
		tracked: make([]bool, m),
		geom:    geometricSums(phi, m+1),
		logGeom: make([]float64, m+1),
		logPhi:  math.Log(phi),
	}
	for k, g := range a.geom {
		a.logGeom[k] = math.Log(g)
	}
	step := make([]int, m) // step[x]: when the center inserts x
	for i, x := range center {
		step[x] = i
	}
	for _, e := range tc.Edges() {
		if int(e[0]) >= m || int(e[1]) >= m || e[0] < 0 || e[1] < 0 {
			return nil, fmt.Errorf("rim: AMP constraint mentions unknown item %v", e)
		}
		a.tracked[e[0]], a.tracked[e[1]] = true, true
		if step[e[1]] < step[e[0]] {
			a.succs[e[0]] = append(a.succs[e[0]], e[1])
		} else {
			a.preds[e[1]] = append(a.preds[e[1]], e[0])
		}
	}
	return a, nil
}

// MustAMP is NewAMP but panics on error.
func MustAMP(center rank.Ranking, phi float64, cons *rank.PartialOrder) *AMP {
	a, err := NewAMP(center, phi, cons)
	if err != nil {
		panic(err)
	}
	return a
}

// Scratch is the working memory of AMP draws and density evaluations over
// m items. It belongs to one goroutine; any number of AMPs (and the Mallows
// target) over the same m items may take turns on it, which is how a
// multiple-importance sampler evaluates every proposal's density of one
// sample on one position index.
//
// A Scratch is indexed on a ranking when pos holds that ranking's position
// of every item. SampleInto leaves it indexed on the ranking it drew, and
// that is the only way callers outside the package get an indexed Scratch:
// LogDensityIndexed and LogProbIndexed trust the index to be a permutation
// and do not check it.
type Scratch struct {
	tau rank.Ranking // the last ranking drawn by SampleInto

	// Draw state: live lists the constrained items inserted so far and
	// cur[x] is the current position of each (stale for every other item).
	cur  []int
	live []rank.Item

	pos []int // pos[x] = position of item x in the indexed ranking
	// in has bit p set when the item at position p of the indexed ranking
	// is inserted: a walk over the index counts the inserted items ahead
	// of a position with one popcount per word.
	in []uint64
}

// NewScratch returns working memory for AMPs and Mallows models over m
// items.
func NewScratch(m int) *Scratch {
	return &Scratch{
		tau:  make(rank.Ranking, 0, m),
		cur:  make([]int, m),
		live: make([]rank.Item, 0, m),
		pos:  make([]int, m),
		in:   make([]uint64, (m+63)/64),
	}
}

// index validates that tau is a permutation of the scratch's items and
// indexes the scratch on it.
func (sc *Scratch) index(tau rank.Ranking) bool {
	if len(tau) != len(sc.pos) {
		return false
	}
	for i := range sc.pos {
		sc.pos[i] = -1
	}
	for p, it := range tau {
		if int(it) < 0 || int(it) >= len(sc.pos) || sc.pos[it] >= 0 {
			return false
		}
		sc.pos[it] = p
	}
	return true
}

// insert marks item x, at its indexed position, as inserted. A pass over
// the indexed ranking starts from a cleared set.
func (sc *Scratch) insert(x rank.Item) {
	p := uint(sc.pos[x])
	sc.in[p/64] |= 1 << (p % 64)
}

// before returns the number of inserted items the indexed ranking places
// ahead of item x: the position x has, or would take, among them.
func (sc *Scratch) before(x rank.Item) int {
	p := uint(sc.pos[x])
	w := p / 64
	n := bits.OnesCount64(sc.in[w] & (1<<(p%64) - 1))
	for _, b := range sc.in[:w] {
		n += bits.OnesCount64(b)
	}
	return n
}

// distanceTo returns the Kendall tau distance between the indexed ranking
// and sigma, a ranking of the same items: inserting sigma's items in order,
// each one is discordant with the earlier ones that do not precede it.
func (sc *Scratch) distanceTo(sigma rank.Ranking) int {
	clear(sc.in)
	d := 0
	for i, x := range sigma {
		d += i - sc.before(x)
		sc.insert(x)
	}
	return d
}

// Sample draws a ranking consistent with the constraints and returns it
// together with the log of its AMP sampling probability. The caller owns
// the ranking; a sampling loop uses SampleInto.
func (a *AMP) Sample(rng *rand.Rand) (rank.Ranking, float64) {
	return a.SampleInto(rng, NewScratch(len(a.Center)))
}

// SampleInto is Sample drawing into sc, which must come from
// NewScratch(len(a.Center)): the returned ranking is sc's, valid until sc's
// next draw, and sc is left indexed on it.
//
// Only the positions of constrained items are tracked incrementally, so each
// insertion costs O(#constrained) plus the items it shifts.
func (a *AMP) SampleInto(rng *rand.Rand, sc *Scratch) (rank.Ranking, float64) {
	tau := sc.tau[:len(a.Center)]
	logq := 0.0
	for i, item := range a.Center {
		lo, hi := 0, i
		for _, y := range a.preds[item] {
			if p := sc.cur[y] + 1; p > lo {
				lo = p
			}
		}
		for _, z := range a.succs[item] {
			if p := sc.cur[z]; p < hi {
				hi = p
			}
		}
		if lo > hi {
			// Cannot happen for transitively closed consistent constraints:
			// every predecessor precedes every successor in the invariant.
			panic("rim: AMP feasible range empty")
		}
		// Every item from hi on moves up one place; the item goes in at
		// offset t = hi - j in [0, hi-lo], weight phi^(i-j) prop. to phi^t.
		for p := i; p > hi; p-- {
			tau[p] = tau[p-1]
		}
		j := lo + offsetStep(tau[lo:hi+1], item, rng.Float64()*a.geom[hi-lo], a.geom)
		logq += float64(hi-j)*a.logPhi - a.logGeom[hi-lo]
		for _, y := range sc.live {
			if sc.cur[y] >= j {
				sc.cur[y]++
			}
		}
		if a.tracked[item] {
			sc.cur[item] = j
			sc.live = append(sc.live, item)
		}
	}
	sc.live = sc.live[:0]
	for p, it := range tau {
		sc.pos[it] = p
	}
	sc.tau = tau
	return tau, logq
}

// LogDensity returns the log probability that AMP samples exactly tau, and
// whether tau is reachable (it is not when tau violates the constraints or
// ranks different items). It replays the insertions in center order over a
// bitset of final positions.
func (a *AMP) LogDensity(tau rank.Ranking) (float64, bool) {
	sc := NewScratch(len(a.Center))
	if !sc.index(tau) {
		return math.Inf(-1), false
	}
	return a.LogDensityIndexed(sc)
}

// LogDensityIndexed is LogDensity of the ranking sc is indexed on — the
// last ranking some AMP over the same items drew into sc — without
// re-validating or re-indexing it: the replay alone, in no memory of its
// own.
func (a *AMP) LogDensityIndexed(sc *Scratch) (float64, bool) {
	// Replaying the insertions in center order, the current position of an
	// inserted item is the number of inserted items ahead of its final
	// position.
	clear(sc.in)
	logq := 0.0
	for i, item := range a.Center {
		j := sc.before(item)
		lo, hi := 0, i
		for _, y := range a.preds[item] {
			if p := sc.before(y) + 1; p > lo {
				lo = p
			}
		}
		for _, z := range a.succs[item] {
			if p := sc.before(z); p < hi {
				hi = p
			}
		}
		if j < lo || j > hi {
			return math.Inf(-1), false
		}
		logq += float64(hi-j)*a.logPhi - a.logGeom[hi-lo]
		sc.insert(item)
	}
	return logq, true
}

// Constraints returns the transitively closed constraint order.
func (a *AMP) Constraints() *rank.PartialOrder { return a.cons }
