package ppd_test

import (
	"context"
	"encoding/json"
	"errors"
	"math"
	"os"
	"sort"
	"testing"

	"probpref/internal/dataset"
	"probpref/internal/label"
	"probpref/internal/pattern"
	"probpref/internal/ppd"
	"probpref/internal/rim"
	"probpref/internal/solver"
)

// The adaptive planner routes on a price, and a price is only worth routing
// on while it stays close to what the solvers really do. These tests hold
// ppd.EstimateCost against solver.Stats over a fixed fixture — every 7th
// query of the benchmark's frozen pool (read as data: the benchmark module
// is not imported) grounded over a five-voter polls relation, plus every
// 12th instance of Benchmark-D, whose wide unions are the ones exact
// inference cannot afford — and hold the routing and the layer guard that
// follow from it.

// calGroup is one (model, union) inference group of the fixture.
type calGroup struct {
	name    string
	sm      rim.SessionModel
	lab     *label.Labeling
	u       pattern.Union
	sampled bool // a pool query flagged "sampled": the parent's planner sampled it
}

const (
	poolStride   = 7
	benchDStride = 12
	// calMaxStates stops the fixture's unaffordable walks (Benchmark-D's
	// wider half) so the test stays seconds; a stopped walk still says how
	// much it had spent, which the price must not be far below.
	calMaxStates = 1 << 14
)

// pollsDB is the 20-candidate, 5-voter relation the kernel fixtures use.
func pollsDB(tb testing.TB) *ppd.DB {
	tb.Helper()
	db, err := dataset.Polls(dataset.PollsConfig{Candidates: 20, Voters: 5, Seed: 1})
	if err != nil {
		tb.Fatal(err)
	}
	return db
}

// poolGroups grounds every poolStride-th query of benchmark/queries.json
// over db. The file belongs to the benchmark module; a tree without it
// skips.
func poolGroups(tb testing.TB, db *ppd.DB) []calGroup {
	tb.Helper()
	raw, err := os.ReadFile("../../benchmark/queries.json")
	if err != nil {
		tb.Skipf("benchmark pool not readable: %v", err)
	}
	var pool []struct {
		Q       string `json:"q"`
		Sampled bool   `json:"sampled"`
	}
	if err := json.Unmarshal(raw, &pool); err != nil {
		tb.Fatal(err)
	}
	var out []calGroup
	for i := 0; i < len(pool); i += poolStride {
		uq, err := ppd.ParseUnion(pool[i].Q)
		if err != nil {
			tb.Fatalf("%s: %v", pool[i].Q, err)
		}
		gr, err := db.Ground(context.Background(), uq)
		if err != nil {
			tb.Fatalf("%s: %v", pool[i].Q, err)
		}
		for _, g := range gr.Groups {
			out = append(out, calGroup{name: pool[i].Q, sm: g.Model, lab: db.Labeling(), u: g.Union, sampled: pool[i].Sampled})
		}
	}
	return out
}

func benchDGroups() []calGroup {
	var out []calGroup
	for i, in := range dataset.BenchmarkD(1) {
		if i%benchDStride == 0 {
			out = append(out, calGroup{name: in.Name, sm: in.Model, lab: in.Lab, u: in.Union})
		}
	}
	return out
}

// layerCostAtPR21 is the formula EstimateCost used until PR 21, kept as the
// baseline the new price must rank no worse than: (m+1)^2 * (m+2)^width,
// width the distinct (label set, role) trackers for the tracker solvers and
// the involved items for RelOrder.
func layerCostAtPR21(g calGroup, maxInvolved int) float64 {
	m := float64(g.sm.M())
	cost := func(width int) float64 {
		return math.Exp(2*math.Log(m+1) + float64(width)*math.Log(m+2))
	}
	best := math.Inf(1)
	if g.u.AllTwoLabel() || g.u.AllBipartite() {
		trackers := make(map[string]bool)
		for _, p := range g.u {
			for _, e := range p.Edges() {
				trackers["min|"+p.Node(e[0]).Labels.Key()] = true
				trackers["max|"+p.Node(e[1]).Labels.Key()] = true
			}
		}
		best = cost(len(trackers))
	}
	if t := len(pattern.InvolvedItems(g.u, g.lab, g.sm.M())); t <= maxInvolved {
		best = math.Min(best, cost(t))
	}
	return best
}

// walk solves g with the solver the estimate names, under a layer bound, and
// returns what the walk did; stopped reports that the bound ended it.
func walk(tb testing.TB, g calGroup, est ppd.CostEstimate, maxStates int) (st solver.Stats, stopped bool) {
	tb.Helper()
	algo, ok := ppd.PlanAlgo(est.Solver, g.u)
	if !ok {
		tb.Fatalf("%s: estimate names %v, not a plan solver", g.name, est.Solver)
	}
	pl, err := solver.CompilePlan(algo, g.sm.Reference(), g.lab, g.u, solver.Options{})
	if err != nil {
		tb.Fatalf("%s: %v", g.name, err)
	}
	_, err = pl.Solve(g.sm.Model(), solver.Options{Stats: &st, MaxStates: maxStates})
	if err != nil && !errors.Is(err, solver.ErrTooLarge) {
		tb.Fatalf("%s: %v", g.name, err)
	}
	return st, err != nil
}

func quantile(sorted []float64, q float64) float64 {
	return sorted[int(q*float64(len(sorted)-1))]
}

// spearman is the rank correlation of a and b (average ranks on ties).
func spearman(a, b []float64) float64 {
	ranks := func(x []float64) []float64 {
		idx := make([]int, len(x))
		for i := range idx {
			idx[i] = i
		}
		sort.Slice(idx, func(i, j int) bool { return x[idx[i]] < x[idx[j]] })
		r := make([]float64, len(x))
		for i := 0; i < len(idx); {
			j := i
			for j+1 < len(idx) && x[idx[j+1]] == x[idx[i]] {
				j++
			}
			for k := i; k <= j; k++ {
				r[idx[k]] = float64(i+j) / 2
			}
			i = j + 1
		}
		return r
	}
	ra, rb := ranks(a), ranks(b)
	var ma, mb float64
	for i := range ra {
		ma += ra[i]
		mb += rb[i]
	}
	ma /= float64(len(ra))
	mb /= float64(len(rb))
	var cov, va, vb float64
	for i := range ra {
		cov += (ra[i] - ma) * (rb[i] - mb)
		va += (ra[i] - ma) * (ra[i] - ma)
		vb += (rb[i] - mb) * (rb[i] - mb)
	}
	return cov / math.Sqrt(va*vb)
}

// TestCostCalibration: over the fixture, EstimateCost's States against the
// Stats.Transitions of the walk it prices.
func TestCostCalibration(t *testing.T) {
	const (
		maxMedianRatio   = 100.0 // PR 21's formula: 114 531
		maxUnderEstimate = 8.0
		minSpearman      = 0.9
	)
	groups := append(poolGroups(t, pollsDB(t)), benchDGroups()...)
	var price, old, actual, ratio, oldRatio, perPeak []float64
	stoppedWalks, worstUnder := 0, 1.0
	for _, g := range groups {
		est := ppd.EstimateCost(g.sm, g.lab, g.u, 12)
		if math.IsInf(est.States, 1) {
			t.Fatalf("%s: no exact solver priced", g.name)
		}
		st, stopped := walk(t, g, est, calMaxStates)
		spent := math.Max(float64(st.Transitions), 1)
		if under := spent / math.Max(est.States, 1); under > worstUnder {
			worstUnder = under
		}
		if stopped {
			// What the full walk costs is unknown; the price must still not
			// sit far below what the stopped one had already spent.
			stoppedWalks++
			continue
		}
		price = append(price, est.States)
		old = append(old, layerCostAtPR21(g, 12))
		actual = append(actual, spent)
		ratio = append(ratio, math.Max(est.States, 1)/spent)
		oldRatio = append(oldRatio, old[len(old)-1]/spent)
		if st.PeakStates >= 50 {
			perPeak = append(perPeak, spent/float64(st.PeakStates))
		}
	}
	sort.Float64s(ratio)
	sort.Float64s(oldRatio)
	sort.Float64s(perPeak)
	rho, oldRho := spearman(price, actual), spearman(old, actual)
	t.Logf("%d groups (%d walks stopped at %d states)", len(groups), stoppedWalks, calMaxStates)
	t.Logf("States / Transitions      min      p10      p50      p90      max   Spearman")
	t.Logf("  PR 21 formula      %8.3g %8.3g %8.3g %8.3g %8.3g   %.3f",
		oldRatio[0], quantile(oldRatio, 0.1), quantile(oldRatio, 0.5), quantile(oldRatio, 0.9), oldRatio[len(oldRatio)-1], oldRho)
	t.Logf("  Plan.Cost          %8.3g %8.3g %8.3g %8.3g %8.3g   %.3f",
		ratio[0], quantile(ratio, 0.1), quantile(ratio, 0.5), quantile(ratio, 0.9), ratio[len(ratio)-1], rho)
	t.Logf("worst under-estimate %.2fx; transitions per state of the widest layer (walks >= 50 wide): p1 %.1f p50 %.1f",
		worstUnder, quantile(perPeak, 0.01), quantile(perPeak, 0.5))
	if med := quantile(ratio, 0.5); med > maxMedianRatio {
		t.Errorf("median States/Transitions %.3g, want <= %v", med, maxMedianRatio)
	}
	if worstUnder > maxUnderEstimate {
		t.Errorf("worst under-estimate %.2fx, want <= %vx", worstUnder, maxUnderEstimate)
	}
	if rho < oldRho || rho < minSpearman {
		t.Errorf("rank correlation %.3f, want >= %.3f (PR 21's formula) and >= %v", rho, oldRho, minSpearman)
	}
}

// TestAdaptiveRoutesPoolExact: under the default budget the groups the
// parent's planner sampled (the pool's "sampled" queries) are solved exactly
// and answer with MethodAuto's bits.
func TestAdaptiveRoutesPoolExact(t *testing.T) {
	db := pollsDB(t)
	adaptive := &ppd.Engine{DB: db, Method: ppd.MethodAdaptive}
	auto := &ppd.Engine{DB: db, Method: ppd.MethodAuto}
	n, exact := 0, 0
	for _, g := range poolGroups(t, db) {
		if !g.sampled {
			continue
		}
		n++
		p, rep, err := ppd.SolveGroup(adaptive, g.sm, g.u)
		if err != nil {
			t.Fatalf("%s: %v", g.name, err)
		}
		want, _, err := ppd.SolveGroup(auto, g.sm, g.u)
		if err != nil {
			t.Fatalf("%s: %v", g.name, err)
		}
		if !rep.Sampled && p == want {
			exact++
		}
	}
	t.Logf("%d of %d groups of the pool's sampled queries route exact with auto's bits", exact, n)
	if float64(exact) < 0.95*float64(n) {
		t.Errorf("%d of %d groups exact, want >= 95%%", exact, n)
	}
}

// TestAdaptiveStillSamplesTheUnaffordable: a group whose exact solve is
// dearer than its sampled answer stays priced above the default budget —
// Benchmark-D's widest instance through EstimateCost, a four-candidate
// chain through an engine, which samples it and says how well.
func TestAdaptiveStillSamplesTheUnaffordable(t *testing.T) {
	all := dataset.BenchmarkD(1)
	in := all[len(all)-1] // m = 60, five patterns, seven items a label
	// The default budget is the price of the ceiling's draws, linear in the
	// item count: three times the 20-item constant at m = 60.
	budget := ppd.DefaultAdaptiveBudget * float64(in.Model.M()) / 20
	g := calGroup{name: in.Name, sm: in.Model, lab: in.Lab, u: in.Union}
	est := ppd.EstimateCost(g.sm, g.lab, g.u, 12)
	st, stopped := walk(t, g, est, 8*calMaxStates)
	if !stopped || float64(st.Transitions) <= budget {
		t.Fatalf("%s: the walk spent %d transitions (stopped: %v), not dearer than the sampled price %.0f; pick another instance", in.Name, st.Transitions, stopped, budget)
	}
	if est.States <= budget {
		t.Errorf("%s: priced %.3g, within the default budget %.0f, though %d transitions did not finish it", in.Name, est.States, budget, st.Transitions)
	}

	db := pollsDB(t)
	chain := `P(_, _; "cand00"; "cand01"), P(_, _; "cand01"; "cand02"), P(_, _; "cand02"; "cand03")`
	resp, err := (&ppd.Engine{DB: db}).Do(context.Background(), &ppd.Request{Kind: ppd.KindCount, Query: chain, Method: ppd.MethodAdaptive, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if p := resp.Plan; p == nil || p.ExactGroups != 0 || p.SampledGroups == 0 || p.MaxHalfWidth <= 0 || p.CountHalfWidth <= 0 {
		t.Errorf("chain over four candidates: plan %+v, want every group sampled with a half-width", resp.Plan)
	}
}

// TestAdaptiveLayerGuard: an exact attempt whose walk turns out wider than
// its bound stops there and the group is sampled — priced low, answered
// with a half-width, never ErrTooLarge and never a layer past the bound. Two
// ways to a walk wider than its price: a caller's own MaxStates below the
// walk, and the NoTrackerDrop ablation under a budget that pays for the
// retiring walk only. Workers > 1 puts the concurrent compile, price and
// solve of the groups' plans under the race detector.
func TestAdaptiveLayerGuard(t *testing.T) {
	db := pollsDB(t)
	groups := groupsOf(t, db, kernelQueryHead)
	widest, price := 0, 0.0
	for _, g := range groups {
		est := ppd.EstimateCost(g.sm, g.lab, g.u, 12)
		st, _ := walk(t, g, est, calMaxStates)
		widest, price = max(widest, st.PeakStates), math.Max(price, est.States)
	}
	if widest < 8 {
		t.Fatalf("fixture walks are %d states wide at most; the guard needs a wider one", widest)
	}
	for _, c := range []struct {
		name   string
		opts   solver.Options
		budget float64
		bound  int
	}{
		{name: "caller MaxStates", opts: solver.Options{MaxStates: 4}, bound: 4},
		// The budget pays for every group's retiring walk (all are priced
		// within it) and bounds the layers at an eighth of itself.
		{name: "budget-derived bound", opts: solver.Options{NoTrackerDrop: true}, budget: price, bound: int(price / 8)},
	} {
		t.Run(c.name, func(t *testing.T) {
			// Serial first: one Stats may not be shared by concurrent solves.
			var st solver.Stats
			opts := c.opts
			opts.Stats = &st
			eng := ppd.Tune(&ppd.Engine{DB: db, Method: ppd.MethodAdaptive}, ppd.Tuning{Opts: opts, Budget: c.budget})
			sampled := 0
			for _, g := range groups {
				_, rep, err := ppd.SolveGroup(eng, g.sm, g.u)
				if err != nil {
					t.Fatalf("%s: %v", g.name, err)
				}
				if rep.Sampled {
					sampled++
					if rep.Samples == 0 || rep.HalfWidth <= 0 || rep.Cost > price {
						t.Errorf("sampled group reports %+v, want draws, a half-width and its (low) price", rep)
					}
				}
			}
			if sampled == 0 {
				t.Errorf("no group hit the bound of %d states (widest walk %d)", c.bound, widest)
			}
			if st.PeakStates > c.bound {
				t.Errorf("a layer of %d states was walked past the bound of %d", st.PeakStates, c.bound)
			}

			eng = ppd.Tune(&ppd.Engine{DB: db, Workers: 4}, ppd.Tuning{Opts: c.opts, Budget: c.budget})
			resp, err := eng.Do(context.Background(), &ppd.Request{Kind: ppd.KindCount, Query: kernelQueryHead, Method: ppd.MethodAdaptive, Seed: 3})
			if err != nil {
				t.Fatal(err)
			}
			if p := resp.Plan; p == nil || p.SampledGroups != sampled || p.SampledGroups+p.ExactGroups != len(groups) || p.MaxHalfWidth <= 0 {
				t.Errorf("plan %+v, want %d of %d groups sampled with a half-width", resp.Plan, sampled, len(groups))
			}
		})
	}
}

// groupsOf grounds one query over db.
func groupsOf(tb testing.TB, db *ppd.DB, query string) []calGroup {
	tb.Helper()
	gr, err := db.Ground(context.Background(), ppd.MustParseUnion(query))
	if err != nil {
		tb.Fatal(err)
	}
	out := make([]calGroup, len(gr.Groups))
	for i, g := range gr.Groups {
		out[i] = calGroup{name: query, sm: g.Model, lab: db.Labeling(), u: g.Union}
	}
	return out
}

// BenchmarkAdaptiveRoute times one adaptive count request over the five
// polls sessions on a query of the pool's "sampled" class: grounding, then
// per group a compile, a price and the solve the price buys.
func BenchmarkAdaptiveRoute(b *testing.B) {
	eng := &ppd.Engine{DB: pollsDB(b)}
	req := &ppd.Request{Kind: ppd.KindCount, Query: kernelQueryHead, Method: ppd.MethodAdaptive, Seed: 1}
	b.ReportAllocs()
	b.ResetTimer()
	exact := 0
	for i := 0; i < b.N; i++ {
		resp, err := eng.Do(context.Background(), req)
		if err != nil {
			b.Fatal(err)
		}
		exact = resp.Plan.ExactGroups
	}
	b.ReportMetric(float64(exact), "exact-groups/op")
}
