package rim

import (
	"math"
	"math/rand"
	"testing"

	"probpref/internal/rank"
)

// The samplers promise more than the right distribution: a seed names one
// sequence of rankings, and estimates, consensus rows and the coordinator's
// byte-identical merge are all recorded against it. The fixtures below were
// printed by the insertion loops this package had before the offset tables
// (per-draw weight sums, map-tracked AMP positions); the tests here hold
// the table-driven loops to the same rankings, the same log densities and
// the same consumption of the random stream.

// streamCase is one model of the stream-compatibility suite.
type streamCase struct {
	name string
	mdl  Sampler
}

// streamCases returns one instance of every model in the package over 8
// items, Mallows at the dispersions that exercise both ends of the offset
// table (phi = 0 draws nothing, phi = 1 is uniform).
func streamCases() []streamCase {
	sigma := rank.Ranking{3, 0, 6, 1, 7, 4, 2, 5}
	pi := make([][]float64, len(sigma))
	for i := range pi {
		// Weights proportional to j+1: a RIM that is no Mallows model.
		pi[i] = make([]float64, i+1)
		for j := range pi[i] {
			pi[i][j] = float64(j+1) / float64((i+1)*(i+2)/2)
		}
	}
	other := rank.Ranking{5, 2, 4, 7, 1, 6, 0, 3}
	mix, err := NewMixture(
		[]*Mallows{MustMallows(sigma, 0.3), MustMallows(other, 0.7)},
		[]float64{0.4, 0.6})
	if err != nil {
		panic(err)
	}
	return []streamCase{
		{"mallows-0", MustMallows(sigma, 0)},
		{"mallows-0.2", MustMallows(sigma, 0.2)},
		{"mallows-0.5", MustMallows(sigma, 0.5)},
		{"mallows-0.8", MustMallows(sigma, 0.8)},
		{"mallows-1", MustMallows(sigma, 1)},
		{"rim", MustNew(sigma, pi)},
		{"gmallows", MustGeneralizedMallows(sigma, []float64{0.5, 0.9, 0, 0.3, 1, 0.6, 0.1, 0.75})},
		{"plackettluce", MustPlackettLuce([]float64{3, 1, 0.5, 2, 8, 0.25, 1.5, 4})},
		{"mixture", mix},
	}
}

// streamAMP is the AMP of the stream-compatibility suite: 8 items, two
// constraint chains that share an item.
func streamAMP() *AMP {
	cons := rank.FromPairs([][2]rank.Item{{5, 3}, {3, 2}, {7, 3}, {1, 0}})
	return MustAMP(rank.Ranking{3, 0, 6, 1, 7, 4, 2, 5}, 0.5, cons)
}

var sampleStreamFixtures = []struct {
	name string
	seed int64
	want []rank.Ranking
}{
	{"mallows-0", 1, []rank.Ranking{{3, 0, 6, 1, 7, 4, 2, 5}, {3, 0, 6, 1, 7, 4, 2, 5}, {3, 0, 6, 1, 7, 4, 2, 5}}},
	{"mallows-0", 2, []rank.Ranking{{3, 0, 6, 1, 7, 4, 2, 5}, {3, 0, 6, 1, 7, 4, 2, 5}, {3, 0, 6, 1, 7, 4, 2, 5}}},
	{"mallows-0.2", 1, []rank.Ranking{{0, 3, 6, 1, 7, 4, 2, 5}, {3, 0, 1, 6, 7, 4, 2, 5}, {3, 0, 6, 1, 7, 4, 5, 2}}},
	{"mallows-0.2", 2, []rank.Ranking{{3, 0, 6, 1, 4, 7, 2, 5}, {3, 0, 1, 6, 7, 4, 5, 2}, {3, 0, 1, 6, 7, 4, 2, 5}}},
	{"mallows-0.5", 1, []rank.Ranking{{0, 6, 3, 1, 4, 7, 2, 5}, {3, 1, 0, 6, 7, 4, 2, 5}, {3, 6, 0, 1, 7, 5, 2, 4}}},
	{"mallows-0.5", 2, []rank.Ranking{{3, 0, 4, 6, 7, 1, 2, 5}, {3, 1, 6, 0, 5, 7, 2, 4}, {3, 1, 0, 6, 7, 2, 4, 5}}},
	{"mallows-0.8", 1, []rank.Ranking{{0, 6, 4, 1, 7, 3, 2, 5}, {3, 1, 6, 0, 4, 5, 2, 7}, {3, 6, 5, 0, 1, 2, 4, 7}}},
	{"mallows-0.8", 2, []rank.Ranking{{4, 3, 0, 7, 6, 2, 1, 5}, {1, 5, 3, 6, 2, 7, 4, 0}, {1, 3, 6, 7, 2, 5, 0, 4}}},
	{"mallows-1", 1, []rank.Ranking{{0, 4, 6, 7, 1, 3, 5, 2}, {1, 3, 6, 4, 5, 2, 7, 0}, {6, 5, 3, 0, 2, 4, 7, 1}}},
	{"mallows-1", 2, []rank.Ranking{{4, 3, 7, 0, 2, 6, 5, 1}, {5, 1, 3, 2, 6, 4, 7, 0}, {1, 3, 7, 2, 5, 6, 0, 4}}},
	{"rim", 1, []rank.Ranking{{3, 2, 5, 0, 1, 7, 4, 6}, {0, 3, 7, 2, 4, 5, 6, 1}, {0, 1, 7, 4, 3, 2, 6, 5}}},
	{"rim", 2, []rank.Ranking{{6, 1, 0, 5, 7, 2, 3, 4}, {0, 3, 7, 4, 6, 2, 1, 5}, {0, 3, 4, 6, 7, 5, 2, 1}}},
	{"gmallows", 1, []rank.Ranking{{0, 3, 7, 6, 4, 1, 2, 5}, {3, 0, 7, 4, 6, 1, 5, 2}, {3, 0, 6, 4, 7, 1, 2, 5}}},
	{"gmallows", 2, []rank.Ranking{{3, 0, 6, 1, 4, 2, 5, 7}, {3, 7, 4, 0, 6, 1, 5, 2}, {0, 3, 6, 1, 4, 5, 7, 2}}},
	{"plackettluce", 1, []rank.Ranking{{4, 6, 7, 0, 2, 3, 5, 1}, {0, 2, 4, 3, 7, 1, 6, 5}, {3, 7, 4, 0, 1, 6, 2, 5}}},
	{"plackettluce", 2, []rank.Ranking{{1, 7, 0, 6, 4, 2, 3, 5}, {2, 0, 4, 3, 1, 7, 6, 5}, {4, 0, 3, 7, 1, 6, 2, 5}}},
	{"mixture", 1, []rank.Ranking{{2, 5, 1, 7, 4, 6, 0, 3}, {0, 3, 6, 1, 7, 4, 2, 5}, {5, 1, 2, 7, 3, 4, 6, 0}}},
	{"mixture", 2, []rank.Ranking{{3, 0, 7, 6, 1, 4, 2, 5}, {0, 3, 6, 1, 4, 7, 2, 5}, {5, 0, 2, 7, 3, 1, 6, 4}}},
}

func TestSampleStreamFixtures(t *testing.T) {
	cases := make(map[string]Sampler)
	for _, c := range streamCases() {
		cases[c.name] = c.mdl
	}
	seen := make(map[string]bool)
	for _, fx := range sampleStreamFixtures {
		mdl, ok := cases[fx.name]
		if !ok {
			t.Fatalf("fixture for unknown model %q", fx.name)
		}
		seen[fx.name] = true
		rng := rand.New(rand.NewSource(fx.seed))
		for k, want := range fx.want {
			if got := mdl.Sample(rng); !got.Equal(want) {
				t.Errorf("%s seed %d draw %d = %v, recorded %v", fx.name, fx.seed, k, got, want)
			}
		}
	}
	for name := range cases {
		if !seen[name] {
			t.Errorf("model %q has no recorded stream", name)
		}
	}
}

// Sample and SampleInto are one stream: the same rankings from the same
// seed, and the generators in the same state afterwards.
func TestSampleIntoMatchesSample(t *testing.T) {
	for _, c := range streamCases() {
		r1 := rand.New(rand.NewSource(99))
		r2 := rand.New(rand.NewSource(99))
		buf := make(rank.Ranking, c.mdl.M())
		mem := &buf[0]
		for k := 0; k < 500; k++ {
			want := c.mdl.Sample(r1)
			buf = c.mdl.SampleInto(r2, buf)
			if !buf.Equal(want) {
				t.Fatalf("%s draw %d: SampleInto %v, Sample %v", c.name, k, buf, want)
			}
			if &buf[0] != mem {
				t.Fatalf("%s draw %d: SampleInto left the buffer it was given", c.name, k)
			}
		}
		if a, b := r1.Int63(), r2.Int63(); a != b {
			t.Errorf("%s: generators diverged after 500 draws (%d vs %d)", c.name, a, b)
		}
		// A buffer that is too small is replaced, not overrun.
		if got := c.mdl.SampleInto(r2, make(rank.Ranking, 0, 3)); len(got) != c.mdl.M() || !got.IsPermutation() {
			t.Errorf("%s: draw into a short buffer = %v", c.name, got)
		}
	}
}

var ampStreamFixtures = []struct {
	seed int64
	tau  rank.Ranking
	logq float64
}{
	{1, rank.Ranking{1, 0, 6, 7, 4, 5, 3, 2}, -5.02792874432941},
	{1, rank.Ranking{1, 7, 5, 3, 0, 6, 4, 2}, -4.3347815637694636},
	{2, rank.Ranking{7, 5, 3, 4, 1, 0, 6, 2}, -5.194249959776922},
	{2, rank.Ranking{5, 1, 7, 3, 6, 0, 2, 4}, -7.954668146396449},
	{3, rank.Ranking{7, 6, 1, 5, 3, 0, 4, 2}, -7.415671645663762},
	{3, rank.Ranking{7, 1, 5, 3, 2, 0, 6, 4}, -7.107370286009244},
}

func TestAMPStreamFixtures(t *testing.T) {
	a := streamAMP()
	sc := NewScratch(len(a.Center))
	var rng, rngInto *rand.Rand
	for i, fx := range ampStreamFixtures {
		if i == 0 || fx.seed != ampStreamFixtures[i-1].seed {
			rng = rand.New(rand.NewSource(fx.seed))
			rngInto = rand.New(rand.NewSource(fx.seed))
		}
		tau, logq := a.Sample(rng)
		if !tau.Equal(fx.tau) || logq != fx.logq {
			t.Errorf("seed %d: Sample = %v, %v; recorded %v, %v", fx.seed, tau, logq, fx.tau, fx.logq)
		}
		tau, logq = a.SampleInto(rngInto, sc)
		if !tau.Equal(fx.tau) || logq != fx.logq {
			t.Errorf("seed %d: SampleInto = %v, %v; recorded %v, %v", fx.seed, tau, logq, fx.tau, fx.logq)
		}
		last := i+1 == len(ampStreamFixtures) || ampStreamFixtures[i+1].seed != fx.seed
		if last && rng.Int63() != rngInto.Int63() {
			t.Errorf("seed %d: generators diverged", fx.seed)
		}
	}
}

// refLogDensity is the AMP density as it was evaluated before the position
// index was shared: its own index, Fenwick tree and flags per call, a
// logarithm per step. The indexed walk must return its values exactly.
func refLogDensity(a *AMP, tau rank.Ranking) (float64, bool) {
	m := len(a.Center)
	if len(tau) != m {
		return math.Inf(-1), false
	}
	finalPos := make([]int, m)
	for i := range finalPos {
		finalPos[i] = -1
	}
	for p, it := range tau {
		if int(it) < 0 || int(it) >= m || finalPos[it] >= 0 {
			return math.Inf(-1), false
		}
		finalPos[it] = p
	}
	fen := make([]int, m+1)
	query := func(i int) int {
		s := 0
		for ; i > 0; i -= i & (-i) {
			s += fen[i]
		}
		return s
	}
	inserted := make([]bool, m)
	logq := 0.0
	for i, item := range a.Center {
		fp := finalPos[item]
		j := query(fp)
		lo, hi := 0, i
		for _, y := range a.preds[item] {
			if inserted[y] {
				if p := query(finalPos[y]) + 1; p > lo {
					lo = p
				}
			}
		}
		for _, z := range a.succs[item] {
			if inserted[z] {
				if p := query(finalPos[z]); p < hi {
					hi = p
				}
			}
		}
		if j < lo || j > hi {
			return math.Inf(-1), false
		}
		logq += float64(hi-j)*a.logPhi - math.Log(a.geom[hi-lo])
		for k := fp + 1; k < len(fen); k += k & (-k) {
			fen[k]++
		}
		inserted[item] = true
	}
	return logq, true
}

// The three ways to a density agree to the bit: the validating LogDensity,
// the indexed walk on the scratch a draw left behind, and the reference —
// over rankings AMP draws (reachable) and over Mallows draws that violate
// the constraints (unreachable), with several proposals taking turns on one
// scratch as the multiple-importance sampler has them do.
func TestLogDensityIndexedMatchesLogDensity(t *testing.T) {
	center := rank.Identity(12)
	cons := rank.FromPairs([][2]rank.Item{{9, 2}, {2, 5}, {11, 0}, {4, 0}, {7, 8}})
	amps := []*AMP{
		MustAMP(center, 0.5, cons),
		MustAMP(rank.Ranking{9, 2, 5, 11, 4, 0, 7, 8, 1, 3, 6, 10}, 0.5, cons),
		MustAMP(rank.Ranking{11, 10, 9, 8, 7, 6, 5, 4, 3, 2, 1, 0}, 0.8, rank.FromPairs([][2]rank.Item{{0, 11}})),
	}
	ml := MustMallows(center, 0.5)
	sc := NewScratch(len(center))
	rng := rand.New(rand.NewSource(5))
	check := func(tau rank.Ranking) {
		t.Helper()
		for k, a := range amps {
			want, wantOK := refLogDensity(a, tau)
			if got, ok := a.LogDensityIndexed(sc); got != want || ok != wantOK {
				t.Fatalf("proposal %d on %v: indexed (%v, %v), reference (%v, %v)", k, tau, got, ok, want, wantOK)
			}
			if got, ok := a.LogDensity(tau); got != want || ok != wantOK {
				t.Fatalf("proposal %d on %v: LogDensity (%v, %v), reference (%v, %v)", k, tau, got, ok, want, wantOK)
			}
		}
		if got, want := ml.LogProbIndexed(sc), ml.LogProb(tau); got != want {
			t.Fatalf("LogProbIndexed(%v) = %v, LogProb %v", tau, got, want)
		}
	}
	for i := 0; i < 1000; i++ {
		tau, logq := amps[i%len(amps)].SampleInto(rng, sc)
		if ld, ok := amps[i%len(amps)].LogDensityIndexed(sc); !ok || ld != logq {
			t.Fatalf("draw %d: density of own sample (%v, %v), drawn at %v", i, ld, ok, logq)
		}
		check(tau)
	}
	violating := 0
	for violating < 1000 {
		tau := ml.Sample(rng)
		if cons.Consistent(tau) {
			continue
		}
		violating++
		if !sc.index(tau) {
			t.Fatalf("index rejected the permutation %v", tau)
		}
		if _, ok := amps[0].LogDensityIndexed(sc); ok {
			t.Fatalf("constraint-violating %v is reachable", tau)
		}
		check(tau)
	}
	// LogDensity still refuses what is not a ranking of the items.
	for _, bad := range []rank.Ranking{nil, rank.Identity(11), append(rank.Identity(11), 3), append(rank.Identity(11), 12), append(rank.Identity(11), -1)} {
		if _, ok := amps[0].LogDensity(bad); ok {
			t.Errorf("LogDensity accepted %v", bad)
		}
	}
}

// BenchmarkMallowsSample times the draw part of the sampling kernel at the
// serving workload's shape (m = 20, phi = 0.5): into a fresh ranking per
// draw, as Sample hands them out, and into the loop's buffer.
func BenchmarkMallowsSample(b *testing.B) {
	sigma := make(rank.Ranking, 20)
	for i, v := range rand.New(rand.NewSource(20)).Perm(len(sigma)) {
		sigma[i] = rank.Item(v)
	}
	ml := MustMallows(sigma, 0.5)
	b.Run("fresh", func(b *testing.B) {
		rng := rand.New(rand.NewSource(1))
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			ml.Sample(rng)
		}
	})
	b.Run("into", func(b *testing.B) {
		rng := rand.New(rand.NewSource(1))
		var tau rank.Ranking
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			tau = ml.SampleInto(rng, tau)
		}
	})
}
