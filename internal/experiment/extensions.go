package experiment

// Extension experiments beyond the paper's figures, registered under ids
// "x1".."x4". They quantify the design choices of the extension subsystems:
// the dedicated pairwise-marginal DP against the two-label solver, the
// mixture learner's parameter recovery, the exact Count-Session
// distribution against Monte Carlo over possible worlds, and inference over
// Generalized Mallows sessions (exact solver vs the generic MISRIM
// estimator).

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"time"

	"probpref/internal/analytics"
	"probpref/internal/dataset"
	"probpref/internal/label"
	"probpref/internal/learn"
	"probpref/internal/pattern"
	"probpref/internal/ppd"
	"probpref/internal/rank"
	"probpref/internal/rim"
	"probpref/internal/sampling"
	"probpref/internal/solver"
)

// RunExtX1 compares the O(m^2) pairwise-marginal DP with the paper's
// two-label solver computing the same quantity through a singleton-label
// pattern. Both are exact; the gap is the value of specializing.
func RunExtX1(scale Scale) (*Table, error) {
	ms := []int{10, 15, 20, 25}
	if scale == Paper {
		ms = []int{10, 20, 30, 40, 50, 60}
	}
	t := &Table{
		Title:   "x1: pairwise marginal, analytics DP vs two-label solver",
		Columns: []string{"m", "dp_time", "solver_time", "speedup", "max_abs_diff"},
	}
	for _, m := range ms {
		sigma := rank.Identity(m)
		rng := rand.New(rand.NewSource(int64(m)))
		rng.Shuffle(m, func(i, j int) { sigma[i], sigma[j] = sigma[j], sigma[i] })
		mdl := rim.MustMallows(sigma, 0.5).Model()
		pairs := [][2]rank.Item{
			{rank.Item(m - 1), 0}, {0, rank.Item(m - 1)}, {rank.Item(m / 2), rank.Item(m / 3)},
		}
		var dpTime, solverTime time.Duration
		maxDiff := 0.0
		for _, pr := range pairs {
			var pDP float64
			d1, err := timeIt(func() error {
				var err error
				pDP, err = analytics.PairwiseProb(mdl, pr[0], pr[1])
				return err
			})
			if err != nil {
				return nil, err
			}
			lab := label.NewLabeling()
			lab.Add(pr[0], 0)
			lab.Add(pr[1], 1)
			u := pattern.Union{pattern.TwoLabel(label.NewSet(0), label.NewSet(1))}
			var pTL float64
			d2, err := timeIt(func() error {
				var err error
				pTL, err = solver.TwoLabel(mdl, lab, u, solver.Options{})
				return err
			})
			if err != nil {
				return nil, err
			}
			dpTime += d1
			solverTime += d2
			if diff := math.Abs(pDP - pTL); diff > maxDiff {
				maxDiff = diff
			}
		}
		t.Add(m, dpTime, solverTime, float64(solverTime)/float64(dpTime), maxDiff)
	}
	t.Notes = append(t.Notes,
		"both methods are exact; max_abs_diff is floating-point noise",
		"the DP runs in O(m^2) per pair, the solver in O(m^3)")
	return t, nil
}

// RunExtX2 measures mixture learning: rankings drawn from a ground-truth
// Mallows mixture, EM recovery of centers, dispersions and weights.
func RunExtX2(scale Scale) (*Table, error) {
	m, n := 6, 600
	if scale == Paper {
		m, n = 10, 5000
	}
	truth := []struct {
		phi    float64
		weight float64
	}{
		{0.2, 0.5}, {0.3, 0.3}, {0.25, 0.2},
	}
	rng := rand.New(rand.NewSource(99))
	centers := make([]rank.Ranking, len(truth))
	var data []rank.Ranking
	for c := range truth {
		centers[c] = rank.Identity(m)
		rng.Shuffle(m, func(i, j int) { centers[c][i], centers[c][j] = centers[c][j], centers[c][i] })
		ml := rim.MustMallows(centers[c], truth[c].phi)
		for i := 0; i < int(truth[c].weight*float64(n)); i++ {
			data = append(data, ml.Sample(rng))
		}
	}
	fit, err := learn.FitMixture(data, len(truth), m, learn.MixtureConfig{Seed: 3})
	if err != nil {
		return nil, err
	}
	t := &Table{
		Title:   "x2: Mallows mixture learning (EM) parameter recovery",
		Columns: []string{"component", "true_w", "learned_w", "true_phi", "learned_phi", "center_dist"},
	}
	used := make([]bool, len(truth))
	for c, comp := range fit.Mixture.Components {
		// Match each learned component to the nearest unused truth center.
		best, bestD := -1, math.MaxInt32
		for tc := range truth {
			if used[tc] {
				continue
			}
			if d := rank.KendallTau(comp.Sigma, centers[tc]); d < bestD {
				best, bestD = tc, d
			}
		}
		used[best] = true
		t.Add(fmt.Sprintf("%d->truth%d", c, best),
			truth[best].weight, fit.Mixture.Weights[c],
			truth[best].phi, comp.Phi, bestD)
	}
	t.Notes = append(t.Notes,
		fmt.Sprintf("%d rankings over %d items; EM rounds: %d; log-likelihood %.1f",
			len(data), m, fit.Iterations, fit.LogLikelihood),
		"center_dist is the Kendall distance between learned and true centers (0 = exact)")
	return t, nil
}

// RunExtX3 validates the exact Count-Session distribution against Monte
// Carlo over sampled possible worlds on the Polls database.
func RunExtX3(scale Scale) (*Table, error) {
	voters, worlds := 40, 4000
	if scale == Paper {
		voters, worlds = 200, 50000
	}
	db, err := dataset.Polls(dataset.PollsConfig{Candidates: 12, Voters: voters, Seed: 17})
	if err != nil {
		return nil, err
	}
	q, err := ppd.Parse(`P(_, _; l; r), C(l, p, "M", _, _, _), C(r, p, "F", _, _, _)`)
	if err != nil {
		return nil, err
	}
	eng := &ppd.Engine{DB: db, Method: ppd.MethodAuto}
	resp, err := eng.Do(context.Background(), &ppd.Request{Kind: ppd.KindCountDist, Queries: []*ppd.Query{q}})
	if err != nil {
		return nil, err
	}
	dist := resp.Dist
	g, err := ppd.NewGrounder(db, q)
	if err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(5))
	var mcSum, mcSumSq float64
	tail := 0
	threshold := dist.Quantile(0.9)
	for w := 0; w < worlds; w++ {
		world := db.SampleWorld(rng)
		c, err := g.CountIn(world)
		if err != nil {
			return nil, err
		}
		mcSum += float64(c)
		mcSumSq += float64(c) * float64(c)
		if c >= threshold {
			tail++
		}
	}
	mcMean := mcSum / float64(worlds)
	mcVar := mcSumSq/float64(worlds) - mcMean*mcMean
	mcTail := float64(tail) / float64(worlds)

	t := &Table{
		Title:   "x3: Count-Session distribution, exact vs Monte Carlo worlds",
		Columns: []string{"stat", "exact", "monte_carlo", "rel_err"},
	}
	t.Add("mean", dist.Mean(), mcMean, relErr(mcMean, dist.Mean()))
	t.Add("variance", dist.Variance(), mcVar, relErr(mcVar, dist.Variance()))
	t.Add(fmt.Sprintf("Pr(count>=%d)", threshold), dist.Tail(threshold), mcTail, relErr(mcTail, dist.Tail(threshold)))
	t.Notes = append(t.Notes,
		fmt.Sprintf("%d sessions, %d sampled worlds", dist.N(), worlds))
	return t, nil
}

// RunExtX4 exercises inference beyond plain Mallows: Generalized Mallows
// models (per-step dispersions) answered exactly by the paper's two-label
// solver through the RIM materialization, and approximately by the generic
// MISRIM estimator. The table reports both times and the estimator's
// relative error.
func RunExtX4(scale Scale) (*Table, error) {
	ms := []int{10, 14, 18}
	samples := 400
	if scale == Paper {
		ms = []int{10, 20, 30, 40}
		samples = 2000
	}
	t := &Table{
		Title:   "x4: Generalized Mallows inference, exact solver vs MISRIM",
		Columns: []string{"m", "exact", "exact_time", "misrim", "misrim_time", "rel_err"},
	}
	rng := rand.New(rand.NewSource(44))
	for _, m := range ms {
		sigma := rank.Identity(m)
		rng.Shuffle(m, func(i, j int) { sigma[i], sigma[j] = sigma[j], sigma[i] })
		phis := make([]float64, m)
		for i := range phis {
			phis[i] = 0.1 + 0.8*float64(i)/float64(m) // certain top, noisy bottom
		}
		gm, err := rim.NewGeneralizedMallows(sigma, phis)
		if err != nil {
			return nil, err
		}
		lab := label.NewLabeling()
		lab.Add(sigma[m-1], 0)
		lab.Add(sigma[m-2], 0)
		lab.Add(sigma[0], 1)
		u := pattern.Union{pattern.TwoLabel(label.NewSet(0), label.NewSet(1))}

		var exact float64
		dExact, err := timeIt(func() error {
			var err error
			exact, err = solver.TwoLabel(gm.Model(), lab, u, solver.Options{})
			return err
		})
		if err != nil {
			return nil, err
		}
		var est float64
		dEst, err := timeIt(func() error {
			var err error
			est, _, err = sampling.MISRIM(gm.Model(), lab, u, samples, rng, pattern.Limits{})
			return err
		})
		if err != nil {
			return nil, err
		}
		t.Add(m, exact, dExact, est, dEst, relErr(est, exact))
	}
	t.Notes = append(t.Notes,
		"Generalized Mallows is a RIM, so every exact solver applies unchanged",
		"MISRIM uses one conditioned-RIM proposal per sub-ranking of the union")
	return t, nil
}

func init() {
	Figures["x1"] = RunExtX1
	Figures["x2"] = RunExtX2
	Figures["x3"] = RunExtX3
	Figures["x4"] = RunExtX4
	FigureIDs = append(FigureIDs, "x1", "x2", "x3", "x4")
}
