package rim

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"strconv"
	"testing"

	"probpref/internal/rank"
)

// randomPi builds a random valid insertion matrix for m items.
func randomPi(rng *rand.Rand, m int) [][]float64 {
	pi := make([][]float64, m)
	for i := 0; i < m; i++ {
		row := make([]float64, i+1)
		sum := 0.0
		for j := range row {
			row[j] = rng.Float64() + 0.01
			sum += row[j]
		}
		for j := range row {
			row[j] /= sum
		}
		pi[i] = row
	}
	return pi
}

func TestNewValidation(t *testing.T) {
	if _, err := New(rank.Ranking{0, 0}, nil); err == nil {
		t.Error("expected error for non-permutation sigma")
	}
	if _, err := New(rank.Identity(2), [][]float64{{1}}); err == nil {
		t.Error("expected error for wrong Pi row count")
	}
	if _, err := New(rank.Identity(2), [][]float64{{1}, {0.5, 0.6}}); err == nil {
		t.Error("expected error for non-normalized row")
	}
	if _, err := New(rank.Identity(2), [][]float64{{1}, {-0.5, 1.5}}); err == nil {
		t.Error("expected error for negative probability")
	}
	if _, err := New(rank.Identity(2), [][]float64{{1}, {0.25, 0.75}}); err != nil {
		t.Errorf("valid model rejected: %v", err)
	}
}

// Example 2.1 of the paper: RIM(<a,b,c>, Pi) generates <b,c,a> with
// probability Pi(1,1)*Pi(2,1)*Pi(3,2) (1-based).
func TestProbExample21(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	pi := randomPi(rng, 3)
	m := MustNew(rank.Identity(3), pi)
	tau := rank.Ranking{1, 2, 0} // <b, c, a>
	want := pi[0][0] * pi[1][0] * pi[2][1]
	if got := m.Prob(tau); math.Abs(got-want) > 1e-12 {
		t.Fatalf("Prob = %v, want %v", got, want)
	}
}

// Probabilities over all m! rankings must sum to 1.
func TestProbSumsToOne(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for m := 1; m <= 6; m++ {
		model := MustNew(rank.Identity(m), randomPi(rng, m))
		sum := 0.0
		rank.ForEachPermutation(m, func(tau rank.Ranking) bool {
			sum += model.Prob(tau)
			return true
		})
		if math.Abs(sum-1) > 1e-9 {
			t.Fatalf("m=%d: probabilities sum to %v", m, sum)
		}
	}
}

func TestProbInvalidTau(t *testing.T) {
	m := MustNew(rank.Identity(3), [][]float64{{1}, {0.5, 0.5}, {0.2, 0.3, 0.5}})
	if p := m.Prob(rank.Ranking{0, 1}); p != 0 {
		t.Error("wrong-length tau should have probability 0")
	}
	if p := m.Prob(rank.Ranking{0, 1, 1}); p != 0 {
		t.Error("non-permutation tau should have probability 0")
	}
}

// Empirical sampling frequencies must match exact probabilities.
func TestSampleMatchesProb(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	model := MustNew(rank.Identity(4), randomPi(rng, 4))
	const n = 200000
	counts := make(map[string]int)
	for i := 0; i < n; i++ {
		counts[model.Sample(rng).Key()]++
	}
	rank.ForEachPermutation(4, func(tau rank.Ranking) bool {
		p := model.Prob(tau)
		emp := float64(counts[tau.Key()]) / n
		if math.Abs(p-emp) > 0.01 {
			t.Fatalf("tau=%v: exact %v, empirical %v", tau, p, emp)
		}
		return true
	})
}

func TestInsertionPositionsRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	model := MustNew(rank.Identity(6), randomPi(rng, 6))
	for trial := 0; trial < 100; trial++ {
		tau := model.Sample(rng)
		js, ok := model.InsertionPositions(tau)
		if !ok {
			t.Fatalf("InsertionPositions failed for %v", tau)
		}
		// Replay the insertions and verify we reconstruct tau.
		rebuilt := rank.Ranking{}
		for i, j := range js {
			rebuilt = rebuilt.Insert(model.Sigma()[i], j)
		}
		if !rebuilt.Equal(tau) {
			t.Fatalf("replay %v != original %v", rebuilt, tau)
		}
	}
}

// TestRehashExactBits: a generic RIM's key tells apart insertion matrices
// that differ in the last bit of one entry, where a key printed at 12 digits
// collided.
func TestRehashExactBits(t *testing.T) {
	pi := randomPi(rand.New(rand.NewSource(3)), 6)
	a := MustNew(rank.Identity(6), pi)
	next := make([][]float64, len(pi)) // the model keeps pi's rows
	for i, row := range pi {
		next[i] = slices.Clone(row)
	}
	next[4][2] = math.Nextafter(next[4][2], 1)
	if b := MustNew(rank.Identity(6), next); a.Rehash() == b.Rehash() {
		t.Fatal("Rehash ignores the last bit of Pi[4][2]")
	}
}

// TestRehashParamsKeepTwelveDigits: a parametric model's key spells a
// parameter as %.12g did wherever those 12 digits are the parameter's
// exact value (so such keys, and the cache shards and goldens that hash
// them, did not move), and otherwise in as many digits as tell it apart.
func TestRehashParamsKeepTwelveDigits(t *testing.T) {
	sigma := rank.Ranking{2, 0, 1}
	for _, phi := range []float64{0, 1, 0.3, 0.5, 0.125, 1e-5, 2.5e-7, 0.123456789012, 0.999999999999} {
		if got, want := MustMallows(sigma, phi).Rehash(), fmt.Sprintf("%s|%.12g", sigma.Key(), phi); got != want {
			t.Errorf("phi %v: key %q, want %q", phi, got, want)
		}
	}
	for _, w := range []float64{1e6, 1234567, 1e11, 3.5} {
		if got, want := MustPlackettLuce([]float64{w, 1, 2}).Rehash(), fmt.Sprintf("pl|%.12g|1|2", w); got != want {
			t.Errorf("weight %v: key %q, want %q", w, got, want)
		}
	}
	near := MustMallows(sigma, 0.3+1e-13)
	if key := near.Rehash(); key == MustMallows(sigma, 0.3).Rehash() || key != sigma.Key()+"|"+strconv.FormatFloat(near.Phi, 'g', -1, 64) {
		t.Errorf("phi 0.3+1e-13: key %q", key)
	}
	gm := MustGeneralizedMallows(sigma, []float64{0.3, 0.3 + 1e-13, 0.7})
	if got, want := gm.Rehash(), "gm|"+sigma.Key()+"|0.3|0.3000000000001|0.7"; got != want {
		t.Errorf("generalized Mallows key %q, want %q", got, want)
	}
}

// BenchmarkRehash times the grouping key of a generic RIM at m = 20 (210
// insertion probabilities): what every snapshot-backed session costs per
// grounding.
func BenchmarkRehash(b *testing.B) {
	m := MustNew(rank.Identity(20), randomPi(rand.New(rand.NewSource(1)), 20))
	b.ReportAllocs()
	for range b.N {
		_ = m.Rehash()
	}
}
