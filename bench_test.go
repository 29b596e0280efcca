package probpref

// One testing.B benchmark per table/figure of the paper's evaluation
// (Section 6), each delegating to the corresponding driver in
// internal/experiment at small scale, plus micro-benchmarks for the
// individual solvers. Run with:
//
//	go test -bench=. -benchmem
//
// Figure drivers are macro-benchmarks: prefer -benchtime=1x for them.

import (
	"context"
	"fmt"
	"math/rand"
	"testing"

	"probpref/internal/dataset"
	"probpref/internal/experiment"
	"probpref/internal/label"
	"probpref/internal/pattern"
	"probpref/internal/ppd"
	"probpref/internal/rim"
	"probpref/internal/sampling"
	"probpref/internal/solver"
)

func benchFigure(b *testing.B, id string) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		tab, err := experiment.Figures[id](experiment.Small)
		if err != nil {
			b.Fatal(err)
		}
		if len(tab.Rows) == 0 {
			b.Fatal("empty table")
		}
	}
}

// BenchmarkFig04ExactVsAdaptive regenerates Figure 4 (exact solvers vs
// MIS-AMP-adaptive over Polls).
func BenchmarkFig04ExactVsAdaptive(b *testing.B) { benchFigure(b, "4") }

// BenchmarkFig05GeneralSolver regenerates Figure 5 (general solver vs
// conjunction size on Benchmark-A).
func BenchmarkFig05GeneralSolver(b *testing.B) { benchFigure(b, "5") }

// BenchmarkFig06TwoLabelTimeouts regenerates Figure 6 (two-label solver
// completion heatmap on Benchmark-D).
func BenchmarkFig06TwoLabelTimeouts(b *testing.B) { benchFigure(b, "6") }

// BenchmarkFig07aBipartiteByLabels regenerates Figure 7a.
func BenchmarkFig07aBipartiteByLabels(b *testing.B) { benchFigure(b, "7a") }

// BenchmarkFig07bBipartiteByPatterns regenerates Figure 7b.
func BenchmarkFig07bBipartiteByPatterns(b *testing.B) { benchFigure(b, "7b") }

// BenchmarkFig08TopK regenerates Figure 8 (top-k optimization on Polls).
func BenchmarkFig08TopK(b *testing.B) { benchFigure(b, "8") }

// BenchmarkFig09RareEvent regenerates Figure 9 (RS vs MIS-AMP-lite).
func BenchmarkFig09RareEvent(b *testing.B) { benchFigure(b, "9") }

// BenchmarkFig10aLiteBenchmarkA regenerates Figure 10a.
func BenchmarkFig10aLiteBenchmarkA(b *testing.B) { benchFigure(b, "10a") }

// BenchmarkFig10bLiteBenchmarkC regenerates Figure 10b.
func BenchmarkFig10bLiteBenchmarkC(b *testing.B) { benchFigure(b, "10b") }

// BenchmarkFig11TypicalAtypical regenerates Figure 11.
func BenchmarkFig11TypicalAtypical(b *testing.B) { benchFigure(b, "11") }

// BenchmarkFig12Compensation regenerates Figure 12.
func BenchmarkFig12Compensation(b *testing.B) { benchFigure(b, "12") }

// BenchmarkFig13aAdaptiveOverhead regenerates Figure 13a.
func BenchmarkFig13aAdaptiveOverhead(b *testing.B) { benchFigure(b, "13a") }

// BenchmarkFig13bAdaptiveConvergence regenerates Figure 13b.
func BenchmarkFig13bAdaptiveConvergence(b *testing.B) { benchFigure(b, "13b") }

// BenchmarkFig14MovieLens regenerates Figure 14.
func BenchmarkFig14MovieLens(b *testing.B) { benchFigure(b, "14") }

// BenchmarkFig15SessionScaling regenerates Figure 15.
func BenchmarkFig15SessionScaling(b *testing.B) { benchFigure(b, "15") }

// --- Solver micro-benchmarks (per-inference cost on fixed instances) ---

func BenchmarkSolverTwoLabel(b *testing.B) {
	in := dataset.BenchmarkD(1)[0] // m=20, 2 patterns, 3 items/label
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := solver.TwoLabel(in.Model.Model(), in.Lab, in.Union, solver.Options{}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSolverBipartite(b *testing.B) {
	in := dataset.BenchmarkCSlice(1, 3, 3, 3)[0] // m=10
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := solver.Bipartite(in.Model.Model(), in.Lab, in.Union, solver.Options{}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSolverGeneral(b *testing.B) {
	in := dataset.BenchmarkA(1)[0]
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := solver.General(in.Model.Model(), in.Lab, in.Union, solver.Options{}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSolverRelOrder(b *testing.B) {
	in := dataset.BenchmarkCSlice(1, 1, 2, 3)[0]
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := solver.RelOrder(in.Model.Model(), in.Lab, in.Union, solver.Options{}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkMISAMPLite(b *testing.B) {
	in := dataset.BenchmarkA(1)[0]
	est, err := sampling.NewEstimator(in.Model, in.Lab, in.Union, sampling.Config{})
	if err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := est.Estimate(5, 100, rng, true); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkMallowsSample(b *testing.B) {
	ml, err := NewMallows(Identity(100), 0.3)
	if err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ml.Sample(rng)
	}
}

func BenchmarkAMPSampleAndDensity(b *testing.B) {
	ml, err := NewMallows(Identity(100), 0.3)
	if err != nil {
		b.Fatal(err)
	}
	cons := NewPartialOrder()
	cons.Add(Item(90), Item(5))
	cons.Add(Item(80), Item(10))
	amp, err := NewAMP(ml.Sigma, ml.Phi, cons)
	if err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tau, _ := amp.Sample(rng)
		if _, ok := amp.LogDensity(tau); !ok {
			b.Fatal("sample unreachable")
		}
	}
}

// --- Ablation benchmarks (the solver design choices of docs/ARCHITECTURE.md) ---

// BenchmarkAblationTrackerDropOn measures the bipartite solver with the
// only-track-uncertain-labels optimization (Algorithm 4 as published) and
// tracker retirement.
func BenchmarkAblationTrackerDropOn(b *testing.B) {
	benchTrackerDrop(b, solver.Bipartite, dataset.BenchmarkCSlice(1, 3, 4, 3)[0], false)
}

// BenchmarkAblationTrackerDropOff measures the same solve with both
// disabled; the gap is the value of the pruning.
func BenchmarkAblationTrackerDropOff(b *testing.B) {
	benchTrackerDrop(b, solver.Bipartite, dataset.BenchmarkCSlice(1, 3, 4, 3)[0], true)
}

// BenchmarkAblationTrackerDropTwoLabelOn measures the two-label solver with
// tracker retirement on the first Benchmark-D instance (m = 20, z = 2, 3
// items per label).
func BenchmarkAblationTrackerDropTwoLabelOn(b *testing.B) {
	benchTrackerDrop(b, solver.TwoLabel, dataset.BenchmarkD(1)[0], false)
}

// BenchmarkAblationTrackerDropTwoLabelOff measures the same solve carrying
// all 2z trackers to the last insertion step (Algorithm 3 as published).
func BenchmarkAblationTrackerDropTwoLabelOff(b *testing.B) {
	benchTrackerDrop(b, solver.TwoLabel, dataset.BenchmarkD(1)[0], true)
}

func benchTrackerDrop(b *testing.B, solve func(*rim.Model, *label.Labeling, pattern.Union, solver.Options) (float64, error), in dataset.Instance, noDrop bool) {
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := solve(in.Model.Model(), in.Lab, in.Union, solver.Options{NoTrackerDrop: noDrop}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAblationGroupingOn measures query evaluation with
// identical-request session grouping (Section 6.4).
func BenchmarkAblationGroupingOn(b *testing.B) { benchGrouping(b, false) }

// BenchmarkAblationGroupingOff measures the same evaluation solving every
// session independently (experiment.Naive, Figure 15's naive strategy).
func BenchmarkAblationGroupingOff(b *testing.B) { benchGrouping(b, true) }

func benchGrouping(b *testing.B, naive bool) {
	db, err := dataset.CrowdRank(dataset.CrowdRankConfig{Workers: 60, Movies: 10, Seed: 3})
	if err != nil {
		b.Fatal(err)
	}
	q, err := ppd.Parse(dataset.CrowdRankQuery)
	if err != nil {
		b.Fatal(err)
	}
	eng := &ppd.Engine{DB: db, Method: ppd.MethodRelOrder}
	req := &ppd.Request{Kind: ppd.KindBool, Queries: []*ppd.Query{q}}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if naive {
			_, err = experiment.Naive(context.Background(), db, q)
		} else {
			_, err = eng.Do(context.Background(), req)
		}
		if err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAblationParallelWorkers measures multi-worker group solving.
func BenchmarkAblationParallelWorkers(b *testing.B) {
	db, err := dataset.Polls(dataset.PollsConfig{Candidates: 18, Voters: 80, Seed: 4})
	if err != nil {
		b.Fatal(err)
	}
	q, err := ppd.Parse(`P(_, _; l; r), C(l, p, M, _, _, _), C(r, p, F, _, _, _)`)
	if err != nil {
		b.Fatal(err)
	}
	for _, workers := range []int{1, 4} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			eng := &ppd.Engine{DB: db, Method: ppd.MethodTwoLabel, Workers: workers}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := eng.Do(context.Background(), &ppd.Request{Kind: ppd.KindBool, Queries: []*ppd.Query{q}}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
