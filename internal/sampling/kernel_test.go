package sampling

import (
	"context"
	"math/rand"
	"sync"
	"testing"

	"probpref/internal/label"
	"probpref/internal/pattern"
	"probpref/internal/rank"
	"probpref/internal/rim"
)

// kernelGroup builds one inference group shaped like the sampled serving
// workload's: 20 items with a party, a sex and an age label each, a Mallows
// session model at phi = 0.5, and the union a hard query grounds to when
// its join variable takes two values — {sex, age} > {sex, age'} once per
// sex. The labels follow the center's order so that each pattern asks for
// an item of the fourth quarter ahead of one of the third: about half the
// model's rankings match.
func kernelGroup() (*rim.Mallows, *label.Labeling, pattern.Union) {
	const m = 20
	sigma := make(rank.Ranking, m)
	for i, v := range rand.New(rand.NewSource(20)).Perm(m) {
		sigma[i] = rank.Item(v)
	}
	lab := label.NewLabeling()
	for p, it := range sigma {
		lab.Add(it, label.Label(p%2))       // party: 0, 1
		lab.Add(it, label.Label(2+(p/2)%2)) // sex: 2, 3
		lab.Add(it, label.Label(4+p/4))     // age: 4..8, by quarter of the center
	}
	var u pattern.Union
	for _, sex := range []label.Label{2, 3} {
		u = append(u, pattern.TwoLabel(label.NewSet(sex, 7), label.NewSet(sex, 6)))
	}
	return rim.MustMallows(sigma, 0.5), lab, u
}

// kernelProposals returns the d AMP proposals MIS-AMP-lite selects for the
// kernel group.
func kernelProposals(tb testing.TB, d int) (*rim.Mallows, []*rim.AMP) {
	tb.Helper()
	ml, lab, u := kernelGroup()
	est, err := NewEstimator(ml, lab, u, Config{})
	if err != nil {
		tb.Fatal(err)
	}
	_, amps := est.selectProposals(d)
	if len(amps) != d {
		tb.Fatalf("kernel group yields %d proposals, want %d", len(amps), d)
	}
	return ml, amps
}

// samplerFixtures runs every estimator of the package on the kernel group
// from a fixed seed and returns what it reported, in a fixed order.
func samplerFixtures(t *testing.T) []float64 {
	t.Helper()
	ml, lab, u := kernelGroup()
	var out []float64
	seeded := func(seed int64) *rand.Rand { return rand.New(rand.NewSource(seed)) }

	est, hw := RejectionModelCI(ml, lab, u, 5000, 1.96, seeded(1))
	out = append(out, est, hw)
	out = append(out, Rejection(ml, lab, u, 3000, seeded(2)))
	est, n := RejectionUntil(ml, lab, u, 0.49, 0.002, 500, 20000, seeded(3))
	out = append(out, est, float64(n))

	e, err := NewEstimator(ml, lab, u, Config{})
	if err != nil {
		t.Fatal(err)
	}
	est, hw, drawn, err := e.EstimateCI(context.Background(), 5, 400, seeded(4), true, 1.96)
	if err != nil {
		t.Fatal(err)
	}
	out = append(out, est, hw, float64(drawn))
	res, err := e.EstimateAdaptive(AdaptiveConfig{Samples: 100, Compensate: true}, seeded(5))
	if err != nil {
		t.Fatal(err)
	}
	out = append(out, res.Estimate, float64(res.D), float64(res.Rounds))

	psi := rank.Ranking{ml.Sigma[15], ml.Sigma[9], ml.Sigma[2]}
	if est, err = ISAMP(ml, psi, 2000, seeded(6)); err != nil {
		t.Fatal(err)
	}
	out = append(out, est)
	if est, err = MISAMP(ml, psi, 4, 500, seeded(7)); err != nil {
		t.Fatal(err)
	}
	out = append(out, est)
	return out
}

// Every estimator is a function of its seed. The values below were reported
// by the allocating loops (a fresh ranking and an uncompiled union match per
// rejection draw; a position map, a re-indexed density per proposal and a
// map-built Kendall tau per MIS sample); the kernel reports them to the bit.
func TestSamplerStreamFixtures(t *testing.T) {
	want := []float64{
		0.494, 0.013858295006240846, // RejectionModelCI
		0.496,                    // Rejection
		0.4908571428571429, 3500, // RejectionUntil
		0.7853410941188465, 0.031333126424030425, 2000, // Estimator.EstimateCI
		0.7505249688864012, 7, 4, // Estimator.EstimateAdaptive
		7.151385979345493e-05, // ISAMP
		5.196217338297788e-05, // MISAMP
	}
	got := samplerFixtures(t)
	if len(got) != len(want) {
		t.Fatalf("%d values, %d recorded", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("value %d = %v, recorded %v", i, got[i], want[i])
		}
	}
}

// The sampling loops allocate their scratch once per call and nothing per
// draw: a call of 10 001 draws allocates what a call of one draw does (give
// or take the runtime's own handful under the race detector).
func TestSamplingLoopsAllocateNothingPerDraw(t *testing.T) {
	ml, lab, u := kernelGroup()
	_, amps := kernelProposals(t, 5)
	ctx := context.Background()
	rng := rand.New(rand.NewSource(1))
	loops := map[string]func(n int){
		"rejection": func(n int) {
			if _, _, err := RejectionModelCICtx(ctx, ml, lab, u, n, 1.96, rng); err != nil {
				t.Fatal(err)
			}
		},
		"mis": func(n int) {
			if _, _, _, err := misEstimateCI(ctx, ml, amps, n, 1.96, rng); err != nil {
				t.Fatal(err)
			}
		},
	}
	for name, loop := range loops {
		one := testing.AllocsPerRun(5, func() { loop(1) })
		many := testing.AllocsPerRun(5, func() { loop(10001) })
		if perDraw := (many - one) / 10000; perDraw > 0.001 {
			t.Errorf("%s: %v allocations for 10001 draws, %v for one: %v per extra draw",
				name, many, one, perDraw)
		}
	}
}

// One compiled matcher and one set of AMP proposals serve any number of
// goroutines, each with its own generator and scratch: four of them at once
// reproduce the answers the same seeds give one after another. Meaningful
// under -race, which is how CI runs it.
func TestKernelSharedAcrossGoroutines(t *testing.T) {
	ml, lab, u := kernelGroup()
	_, amps := kernelProposals(t, 5)
	mt := pattern.CompileMatcher(u, lab, ml.M())
	type answer struct {
		hits           int
		est, halfWidth float64
	}
	run := func(seed int64) answer {
		rng := rand.New(rand.NewSource(seed))
		var a answer
		var tau rank.Ranking
		for i := 0; i < 2000; i++ {
			tau = ml.SampleInto(rng, tau)
			if mt.Matches(tau) {
				a.hits++
			}
		}
		a.est, a.halfWidth, _, _ = misEstimateCI(context.Background(), ml, amps, 200, 1.96, rng)
		return a
	}
	const workers = 4
	var serial [workers]answer
	for g := range serial {
		serial[g] = run(int64(g + 1))
	}
	var wg sync.WaitGroup
	var got [workers]answer
	for g := range got {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got[g] = run(int64(g + 1))
		}()
	}
	wg.Wait()
	for g := range got {
		if got[g] != serial[g] {
			t.Errorf("seed %d: concurrent %+v, serial %+v", g+1, got[g], serial[g])
		}
		if serial[g].hits == 0 || serial[g].est <= 0 {
			t.Errorf("seed %d: degenerate answer %+v", g+1, serial[g])
		}
	}
}

var benchSink float64

// BenchmarkRejectionDraw times one rejection draw of the kernel group: a
// Mallows sample into the loop's buffer and a compiled union match.
func BenchmarkRejectionDraw(b *testing.B) {
	ml, lab, u := kernelGroup()
	rng := rand.New(rand.NewSource(1))
	b.ReportAllocs()
	b.ResetTimer()
	benchSink, _, _ = RejectionModelCICtx(context.Background(), ml, lab, u, b.N, 1.96, rng)
}

// BenchmarkMISLiteSample times one MIS-AMP-lite sample at d = 5: an AMP
// draw, the five proposal densities and the target density off one
// position index, and the balance-heuristic weight.
func BenchmarkMISLiteSample(b *testing.B) {
	const d = 5
	ml, amps := kernelProposals(b, d)
	rng := rand.New(rand.NewSource(1))
	b.ReportAllocs()
	b.ResetTimer()
	benchSink, _, _, _ = misEstimateCI(context.Background(), ml, amps, (b.N+d-1)/d, 1.96, rng)
}
