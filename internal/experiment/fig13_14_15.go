package experiment

import (
	"context"
	"math/rand"
	"time"

	"probpref/internal/dataset"
	"probpref/internal/pattern"
	"probpref/internal/ppd"
	"probpref/internal/rim"
	"probpref/internal/sampling"
	"probpref/internal/solver"
)

// RunFig13a reproduces Figure 13a: the proposal-construction overhead of
// MIS-AMP-adaptive on Benchmark-B, as a function of labels per pattern and
// items per label (m = 100, 3 patterns per union).
func RunFig13a(scale Scale) (*Table, error) {
	perCell := 2
	if scale == Paper {
		perCell = 10
	}
	all := dataset.BenchmarkB(131)
	t := &Table{
		Title:   "Figure 13a: MIS-AMP-adaptive proposal-construction overhead (Benchmark-B, m=100, 3 patterns)",
		Columns: []string{"labels", "items/label", "medianOverhead", "meanOverhead"},
	}
	for _, q := range []int{3, 4, 5} {
		for _, items := range []int{3, 5, 7} {
			st := &stats{}
			count := 0
			for _, in := range all {
				if in.Params["m"] != 100 || in.Params["z"] != 3 ||
					in.Params["q"] != q || in.Params["items"] != items {
					continue
				}
				if count >= perCell {
					break
				}
				count++
				est, err := sampling.NewEstimator(in.Model, in.Lab, in.Union,
					sampling.Config{Limits: decompositionLimits()})
				if err != nil {
					return nil, err
				}
				// Build the proposal pool for 10 proposals; all of this is
				// overhead, none of it sampling.
				if _, err := est.Estimate(10, 1, rand.New(rand.NewSource(int64(count))), true); err != nil {
					// An unsatisfiable instance contributes zero overhead.
					continue
				}
				st.add(est.Overhead().Seconds())
			}
			t.Add(q, items,
				time.Duration(st.median()*float64(time.Second)),
				time.Duration(st.mean()*float64(time.Second)))
		}
	}
	t.Notes = append(t.Notes,
		"target shape: overhead grows sharply with #labels, especially with many items per label")
	return t, nil
}

// RunFig13b reproduces Figure 13b: the sampling (convergence) time of
// MIS-AMP-adaptive on Benchmark-B as m grows (2 patterns per union, 5 items
// per label); query size has little impact once proposals exist.
func RunFig13b(scale Scale) (*Table, error) {
	perCell := 2
	samples := 200
	ms := []int{20, 50, 100}
	if scale == Paper {
		perCell = 3
		samples = 300
		ms = []int{20, 50, 100, 200}
	}
	all := dataset.BenchmarkB(132)
	t := &Table{
		Title:   "Figure 13b: MIS-AMP-adaptive sampling time vs m (Benchmark-B, 2 patterns, 5 items/label)",
		Columns: []string{"labels", "m", "medianSampling", "meanSampling"},
	}
	for _, q := range []int{3, 4, 5} {
		for _, m := range ms {
			st := &stats{}
			count := 0
			for _, in := range all {
				if in.Params["m"] != m || in.Params["z"] != 2 ||
					in.Params["q"] != q || in.Params["items"] != 5 {
					continue
				}
				if count >= perCell {
					break
				}
				count++
				est, err := sampling.NewEstimator(in.Model, in.Lab, in.Union,
					sampling.Config{Limits: decompositionLimits()})
				if err != nil {
					return nil, err
				}
				_, err = est.EstimateAdaptive(sampling.AdaptiveConfig{
					Samples: samples, Compensate: true, MaxD: 9,
				}, rand.New(rand.NewSource(int64(count))))
				if err != nil {
					continue
				}
				st.add(est.SamplingTime().Seconds())
			}
			t.Add(q, m,
				time.Duration(st.median()*float64(time.Second)),
				time.Duration(st.mean()*float64(time.Second)))
		}
	}
	t.Notes = append(t.Notes,
		"target shape: sampling time grows moderately with m; #labels has little impact")
	return t, nil
}

// decompositionLimits bounds the sub-ranking enumeration for the large
// Benchmark-B instances (documented pruning; compensation numerators are
// computed over the enumerated subset).
func decompositionLimits() pattern.Limits {
	return pattern.Limits{MaxEmbeddings: 3000, MaxSubRankings: 3000}
}

// RunFig14 reproduces Figure 14: MIS-AMP-adaptive running time on the
// MovieLens query as the catalog grows from 40 to 200 movies; genre
// diversity grows with the catalog, so the grounded pattern union grows
// from 1 to 14 patterns.
func RunFig14(scale Scale) (*Table, error) {
	ms := []int{40, 80, 120}
	sessionsPerM := 2
	samples := 150
	if scale == Paper {
		ms = []int{40, 80, 120, 160, 200}
		sessionsPerM = 16
		samples = 300
	}
	t := &Table{
		Title:   "Figure 14: MIS-AMP-adaptive runtime on MovieLens vs catalog size",
		Columns: []string{"m", "patterns", "medianTime", "meanTime", "sessions"},
	}
	for _, m := range ms {
		db, err := dataset.MovieLens(dataset.MovieLensConfig{Movies: m, Seed: 14})
		if err != nil {
			return nil, err
		}
		q := ppd.MustParse(dataset.MovieLensQueryText())
		g, err := ppd.NewGrounder(db, q)
		if err != nil {
			return nil, err
		}
		st := &stats{}
		patterns := 0
		count := 0
		for si, s := range g.Pref().Sessions.All() {
			if count >= sessionsPerM {
				break
			}
			gq, err := g.GroundSession(s)
			if err != nil {
				return nil, err
			}
			if len(gq.Union) == 0 {
				continue
			}
			count++
			patterns = len(gq.Union)
			d, err := timeIt(func() error {
				est, err := sampling.NewEstimator(s.Model.(*rim.Mallows), db.Labeling(), gq.Union,
					sampling.Config{Limits: decompLimits14()})
				if err != nil {
					return err
				}
				_, err = est.EstimateAdaptive(sampling.AdaptiveConfig{
					Samples: samples, Compensate: true, MaxD: 9,
				}, rand.New(rand.NewSource(int64(si))))
				return err
			})
			if err != nil {
				return nil, err
			}
			st.add(d.Seconds())
		}
		t.Add(m, patterns,
			time.Duration(st.median()*float64(time.Second)),
			time.Duration(st.mean()*float64(time.Second)),
			st.n())
	}
	t.Notes = append(t.Notes,
		"target shape: time grows with m; pattern count grows 1 -> 14 with genre diversity (paper legend: 1,3,11,12,14)")
	return t, nil
}

func decompLimits14() pattern.Limits {
	return pattern.Limits{MaxEmbeddings: 2000, MaxSubRankings: 2000}
}

// RunFig15 reproduces Figure 15: scalability over sessions on the
// CrowdRank-like workload. The naive strategy solves every session; the
// grouped strategy solves each distinct (model, demographic) request once,
// converging to a constant as sessions grow.
func RunFig15(scale Scale) (*Table, error) {
	counts := []int{10, 50, 200}
	movies := 10
	naiveCap := 200
	if scale == Paper {
		counts = []int{10, 100, 1000, 10000, 200000}
		movies = 20
		naiveCap = 1000
	}
	t := &Table{
		Title:   "Figure 15: session scalability on CrowdRank (naive vs grouped)",
		Columns: []string{"sessions", "groups", "naive", "grouped", "speedup"},
	}
	for _, n := range counts {
		db, err := dataset.CrowdRank(dataset.CrowdRankConfig{Workers: n, Movies: movies, Seed: 15})
		if err != nil {
			return nil, err
		}
		q := ppd.MustParse(dataset.CrowdRankQuery)
		grouped := &ppd.Engine{DB: db, Method: ppd.MethodRelOrder}
		req := &ppd.Request{Kind: ppd.KindBool, Queries: []*ppd.Query{q}}
		var res *ppd.Response
		groupedTime, err := timeIt(func() error {
			var e error
			res, e = grouped.Do(context.Background(), req)
			return e
		})
		if err != nil {
			return nil, err
		}
		naiveTime := time.Duration(0)
		speedup := "-"
		if n <= naiveCap {
			naiveTime, err = timeIt(func() error {
				_, e := Naive(context.Background(), db, q)
				return e
			})
			if err != nil {
				return nil, err
			}
			if groupedTime > 0 {
				speedup = fmtFloat(naiveTime.Seconds()/groupedTime.Seconds()) + "x"
			}
			t.Add(n, res.Solves, naiveTime, groupedTime, speedup)
		} else {
			t.Add(n, res.Solves, "(skipped)", groupedTime, "-")
		}
	}
	t.Notes = append(t.Notes,
		"target shape: naive time linear in sessions; grouped time converges once all distinct requests are seen")
	return t, nil
}

// Naive is Figure 15's naive strategy, the evaluation without Section 6.4's
// grouping: it grounds q on each session of its p-relation and solves that
// session's union alone with the relative-order solver, so sessions that
// share a (model, union) request solve it once each. It returns the live
// sessions' probabilities in p-relation order.
func Naive(ctx context.Context, db *ppd.DB, q *ppd.Query) ([]ppd.SessionProb, error) {
	g, err := ppd.NewGrounder(db, q)
	if err != nil {
		return nil, err
	}
	var per []ppd.SessionProb
	for _, s := range g.Pref().Sessions.All() {
		gq, err := g.GroundSession(s)
		if err != nil {
			return nil, err
		}
		if len(gq.Union) == 0 {
			continue
		}
		p, err := solver.RelOrder(s.Model.Model(), db.Labeling(), gq.Union, solver.Options{Ctx: ctx})
		if err != nil {
			return nil, err
		}
		per = append(per, ppd.SessionProb{Session: s, Prob: p})
	}
	return per, nil
}
