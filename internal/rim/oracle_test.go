package rim

import (
	"fmt"
	"math/rand"
	"testing"

	"probpref/internal/rank"
)

// The draws and the position index as they were before the fused insertion
// step, the prefix draw and the bitset index, kept here as the oracle the
// current ones are held to: a pick of the offset by a scan of the running
// sums, a separate insertion that moves the tail with copy, and a Fenwick
// tree over positions.

// pickOffset returns the first index t with u < cum[t] (the last index when
// rounding leaves u at the total).
func pickOffset(u float64, cum []float64) int {
	for t, c := range cum {
		if u < c {
			return t
		}
	}
	return len(cum) - 1
}

// insertAt inserts item at position j of tau, which must have spare
// capacity.
func insertAt(tau rank.Ranking, j int, item rank.Item) rank.Ranking {
	tau = tau[:len(tau)+1]
	copy(tau[j+1:], tau[j:])
	tau[j] = item
	return tau
}

// oracleDraw is a whole draw of mdl as pickOffset and insertAt made it.
func oracleDraw(mdl Sampler, rng *rand.Rand) rank.Ranking {
	tau := make(rank.Ranking, 0, mdl.M())
	switch mdl := mdl.(type) {
	case *Mallows:
		if mdl.Phi == 0 {
			return append(tau, mdl.Sigma...)
		}
		for i, item := range mdl.Sigma {
			t := pickOffset(rng.Float64()*mdl.geom[i], mdl.geom[:i+1])
			tau = insertAt(tau, i-t, item)
		}
	case *GeneralizedMallows:
		for i, item := range mdl.Sigma {
			t := 0
			if mdl.Phis[i] > 0 {
				t = pickOffset(rng.Float64()*mdl.cum[i][i], mdl.cum[i])
			}
			tau = insertAt(tau, i-t, item)
		}
	case *Model:
		mdl.cumOnce.Do(mdl.buildCum)
		for i, item := range mdl.sigma {
			tau = insertAt(tau, pickOffset(rng.Float64(), mdl.cum[i]), item)
		}
	default:
		panic(fmt.Sprintf("no oracle draw for %T", mdl))
	}
	return tau
}

// fenwick is the position index Scratch kept before its bitset: a Fenwick
// tree over positions counting the inserted items.
type fenwick []int

func (f fenwick) insert(p int) {
	for i := p + 1; i < len(f); i += i & (-i) {
		f[i]++
	}
}

func (f fenwick) before(p int) int {
	s := 0
	for i := p; i > 0; i -= i & (-i) {
		s += f[i]
	}
	return s
}

// oracleSizes are the universe sizes of the differential tests: the
// smallest, the serving workload's, and both sides of one and two bitset
// words.
var oracleSizes = []int{1, 2, 20, 64, 65, 130}

// prefixModels returns one of each PrefixSampler over m items: Mallows at
// both ends of its dispersion and between, a Generalized Mallows with some
// steps fixed (Phis[i] = 0, no number read) and some uniform, and a generic
// RIM whose rows hold zeros (running sums that stand still).
func prefixModels(m int, rng *rand.Rand) []PrefixSampler {
	sigma := randomRanking(rng, m)
	phis := make([]float64, m)
	for i := range phis {
		switch rng.Intn(4) {
		case 0:
			phis[i] = 0
		case 1:
			phis[i] = 1
		default:
			phis[i] = rng.Float64()
		}
	}
	pi := make([][]float64, m)
	for i := range pi {
		pi[i] = make([]float64, i+1)
		sum := 0.0
		for j := range pi[i] {
			if rng.Intn(3) > 0 {
				pi[i][j] = rng.Float64()
				sum += pi[i][j]
			}
		}
		if sum == 0 {
			pi[i][rng.Intn(i+1)], sum = 1, 1
		}
		for j := range pi[i] {
			pi[i][j] /= sum
		}
	}
	return []PrefixSampler{
		MustMallows(sigma, 0),
		MustMallows(sigma, 0.3),
		MustMallows(sigma, 0.9),
		MustMallows(sigma, 1),
		MustGeneralizedMallows(sigma, phis),
		MustNew(sigma, pi),
	}
}

func randomRanking(rng *rand.Rand, m int) rank.Ranking {
	tau := make(rank.Ranking, m)
	for i, v := range rng.Perm(m) {
		tau[i] = rank.Item(v)
	}
	return tau
}

// restrict returns the items of tau that lie in keep, in tau's order.
func restrict(tau rank.Ranking, keep rank.Ranking) rank.Ranking {
	in := make(map[rank.Item]bool, len(keep))
	for _, x := range keep {
		in[x] = true
	}
	var out rank.Ranking
	for _, x := range tau {
		if in[x] {
			out = append(out, x)
		}
	}
	return out
}

// The fused draws are the oracle's draws: the same ranking from the same
// seed, and the generator in the same state after every draw. A prefix draw
// of any length is the oracle's ranking restricted to that prefix of the
// reference, and leaves the generator where a whole draw does.
func TestFusedAndPrefixDrawsMatchOracle(t *testing.T) {
	for _, m := range oracleSizes {
		for seed := int64(1); seed <= 4; seed++ {
			setup := rand.New(rand.NewSource(seed))
			for mi, mdl := range prefixModels(m, setup) {
				name := fmt.Sprintf("m=%d seed=%d model %d (%T)", m, seed, mi, mdl)
				r1 := rand.New(rand.NewSource(seed))
				r2 := rand.New(rand.NewSource(seed))
				var buf, pbuf rank.Ranking
				for d := 0; d < 50; d++ {
					want := oracleDraw(mdl, r2)
					if d%2 == 0 {
						buf = mdl.SampleInto(r1, buf)
						if !buf.Equal(want) {
							t.Fatalf("%s draw %d: fused %v, oracle %v", name, d, buf, want)
						}
					} else {
						k := setup.Intn(m + 1)
						pbuf = mdl.SamplePrefixInto(r1, pbuf, k)
						if w := restrict(want, mdl.Reference()[:k]); !pbuf.Equal(w) {
							t.Fatalf("%s draw %d: prefix %d draw %v, oracle's prefix %v", name, d, k, pbuf, w)
						}
					}
					if a, b := r1.Int63(), r2.Int63(); a != b {
						t.Fatalf("%s draw %d: generators diverged (%d vs %d)", name, d, a, b)
					}
				}
			}
		}
	}
}

// The bitset index counts what the Fenwick tree counted, at every step of
// a pass over every universe size, one and two words past 64 included.
func TestBitsetIndexMatchesFenwick(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	for _, m := range append(oracleSizes, 63, 128, 129) {
		sc := NewScratch(m)
		for trial := 0; trial < 5; trial++ {
			if !sc.index(randomRanking(rng, m)) {
				t.Fatalf("m=%d: index refused a permutation", m)
			}
			clear(sc.in)
			f := make(fenwick, m+1)
			for _, x := range randomRanking(rng, m) {
				for y := range m {
					if got, want := sc.before(rank.Item(y)), f.before(sc.pos[y]); got != want {
						t.Fatalf("m=%d: before(%d) = %d, Fenwick %d", m, y, got, want)
					}
				}
				sc.insert(x)
				f.insert(sc.pos[x])
			}
		}
	}
}

// Past one bitset word the indexed densities still agree to the bit with
// the Fenwick-tree reference (refLogDensity) and with LogProb, for draws
// several AMPs make in turn on one scratch.
func TestLogDensityIndexedMatchesOracleWide(t *testing.T) {
	for _, m := range []int{65, 130} {
		rng := rand.New(rand.NewSource(int64(m)))
		center := randomRanking(rng, m)
		var pairs [][2]rank.Item
		for len(pairs) < m/4 {
			if a, b := rng.Intn(m), rng.Intn(m); a < b {
				pairs = append(pairs, [2]rank.Item{center[a], center[b]})
			}
		}
		cons := rank.FromPairs(pairs)
		amps := []*AMP{
			MustAMP(center, 0.5, cons),
			MustAMP(randomRanking(rng, m), 0.8, rank.FromPairs(pairs[:2])),
			MustAMP(randomRanking(rng, m), 0.3, nil),
		}
		ml := MustMallows(center, 0.7)
		sc := NewScratch(m)
		for i := 0; i < 200; i++ {
			tau, logq := amps[i%len(amps)].SampleInto(rng, sc)
			if ld, ok := amps[i%len(amps)].LogDensityIndexed(sc); !ok || ld != logq {
				t.Fatalf("m=%d draw %d: density of own sample (%v, %v), drawn at %v", m, i, ld, ok, logq)
			}
			for k, a := range amps {
				want, wantOK := refLogDensity(a, tau)
				if got, ok := a.LogDensityIndexed(sc); got != want || ok != wantOK {
					t.Fatalf("m=%d draw %d proposal %d: indexed (%v, %v), reference (%v, %v)", m, i, k, got, ok, want, wantOK)
				}
			}
			if got, want := ml.LogProbIndexed(sc), ml.LogProb(tau); got != want {
				t.Fatalf("m=%d draw %d: LogProbIndexed %v, LogProb %v", m, i, got, want)
			}
		}
	}
}
