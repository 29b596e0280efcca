package probpref

// Benchmarks for the extension subsystems beyond the paper's figures:
// exact marginal analytics, the Generalized Mallows and Plackett-Luce
// models, Count-Session distributions, and union queries. The
// PairwiseDP-vs-TwoLabelSolver pair is an ablation: both compute the same
// pairwise marginal, the dedicated DP in O(m^2) and the pattern solver in
// O(m^3).

import (
	"context"
	"fmt"
	"math/rand"
	"testing"

	"probpref/internal/analytics"
	"probpref/internal/label"
	"probpref/internal/pattern"
	"probpref/internal/ppd"
	"probpref/internal/rim"
	"probpref/internal/solver"
)

func BenchmarkAnalyticsPairwiseMatrix(b *testing.B) {
	for _, m := range []int{20, 50, 100} {
		b.Run(fmt.Sprintf("m=%d", m), func(b *testing.B) {
			mdl := rim.MustMallows(Identity(m), 0.5).Model()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				analytics.PairwiseMatrix(mdl)
			}
		})
	}
}

func BenchmarkAnalyticsRankMarginals(b *testing.B) {
	mdl := rim.MustMallows(Identity(100), 0.5).Model()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		analytics.RankMarginals(mdl)
	}
}

// BenchmarkAblationPairwiseDP computes one pairwise marginal Pr(a > b)
// with the dedicated O(m^2) position DP.
func BenchmarkAblationPairwiseDP(b *testing.B) {
	mdl := rim.MustMallows(Identity(40), 0.5).Model()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := analytics.PairwiseProb(mdl, 30, 5); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAblationPairwiseTwoLabel computes the same marginal through the
// paper's two-label solver with singleton labels; the gap against
// BenchmarkAblationPairwiseDP is the value of the specialized DP.
func BenchmarkAblationPairwiseTwoLabel(b *testing.B) {
	mdl := rim.MustMallows(Identity(40), 0.5).Model()
	lab := label.NewLabeling()
	lab.Add(30, 0)
	lab.Add(5, 1)
	u := pattern.Union{pattern.TwoLabel(label.NewSet(0), label.NewSet(1))}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := solver.TwoLabel(mdl, lab, u, solver.Options{}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkGeneralizedMallowsSample(b *testing.B) {
	phis := make([]float64, 100)
	for i := range phis {
		phis[i] = float64(i) / 100
	}
	gm := rim.MustGeneralizedMallows(Identity(100), phis)
	rng := rand.New(rand.NewSource(1))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		gm.Sample(rng)
	}
}

func BenchmarkPlackettLuceSample(b *testing.B) {
	weights := make([]float64, 100)
	for i := range weights {
		weights[i] = 1 + float64(i%10)
	}
	pl := rim.MustPlackettLuce(weights)
	rng := rand.New(rand.NewSource(1))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pl.Sample(rng)
	}
}

func BenchmarkCountDistribution(b *testing.B) {
	for _, n := range []int{100, 1000} {
		b.Run(fmt.Sprintf("sessions=%d", n), func(b *testing.B) {
			rng := rand.New(rand.NewSource(7))
			probs := make([]float64, n)
			for i := range probs {
				probs[i] = rng.Float64()
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := ppd.NewCountDistribution(probs); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkUnionQueryEval(b *testing.B) {
	db, err := Figure1()
	if err != nil {
		b.Fatal(err)
	}
	eng := &Engine{DB: db, Method: MethodAuto}
	uq, err := ParseUnionQuery(
		`P(_, _; c1; c2), C(c1, _, F, _, _, _), C(c2, _, M, _, _, _)` +
			` | P(_, _; c1; c2), C(c1, D, _, _, JD, _), C(c2, R, _, _, _, _)`)
	if err != nil {
		b.Fatal(err)
	}
	req := &Request{Kind: KindBool, Queries: uq.Disjuncts}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := eng.Do(context.Background(), req); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkExtX1PairwiseAblation regenerates extension experiment x1
// (pairwise DP vs two-label solver).
func BenchmarkExtX1PairwiseAblation(b *testing.B) { benchFigure(b, "x1") }

// BenchmarkExtX2MixtureLearning regenerates extension experiment x2
// (EM parameter recovery).
func BenchmarkExtX2MixtureLearning(b *testing.B) { benchFigure(b, "x2") }

// BenchmarkExtX3CountDistribution regenerates extension experiment x3
// (exact Count-Session distribution vs Monte Carlo worlds).
func BenchmarkExtX3CountDistribution(b *testing.B) { benchFigure(b, "x3") }

// BenchmarkExtX4GeneralizedMallows regenerates extension experiment x4
// (Generalized Mallows inference, exact vs MISRIM).
func BenchmarkExtX4GeneralizedMallows(b *testing.B) { benchFigure(b, "x4") }

func BenchmarkFitMixtureEM(b *testing.B) {
	truth := rim.MustMallows(Identity(8), 0.3)
	rng := rand.New(rand.NewSource(21))
	data := make([]Ranking, 400)
	for i := range data {
		data[i] = truth.Sample(rng)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := FitMixture(data, 2, 8, MixtureConfig{Seed: 3}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkMISRIMGeneralizedMallows(b *testing.B) {
	phis := make([]float64, 12)
	for i := range phis {
		phis[i] = 0.1 + 0.07*float64(i)
	}
	gm := rim.MustGeneralizedMallows(Identity(12), phis)
	lab := label.NewLabeling()
	lab.Add(11, 0)
	lab.Add(10, 0)
	lab.Add(0, 1)
	u := pattern.Union{pattern.TwoLabel(label.NewSet(0), label.NewSet(1))}
	rng := rand.New(rand.NewSource(9))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := MISRIM(gm.Model(), lab, u, 200, rng); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkPopulationPairwise(b *testing.B) {
	db, err := Polls(12, 60, 5)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := db.PopulationPairwise("P"); err != nil {
			b.Fatal(err)
		}
	}
}
