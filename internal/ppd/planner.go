package ppd

import (
	"cmp"
	"context"
	"errors"
	"math"
	"math/rand"
	"time"

	"probpref/internal/label"
	"probpref/internal/pattern"
	"probpref/internal/rank"
	"probpref/internal/rim"
	"probpref/internal/sampling"
	"probpref/internal/solver"
)

// This file implements the adaptive planner behind MethodAdaptive. Per
// (session-model, union) group it compiles the exact solvers that accept the
// union, asks each compiled plan what its layer walk will cost
// (solver.Plan.Cost), and solves the cheapest one exactly when that price
// fits the group's budget; otherwise the group is answered by Monte Carlo
// sampling with a reported confidence half-width. Both sides are priced in
// one unit, DP state-transitions: a budget is what is left of a deadline
// priced once as work (Engine.start), or — when the request gives none —
// the price of the sampled answer the group would otherwise get, so exact
// inference is bought exactly when it is predicted to be no dearer. A
// request that cannot afford exact inference degrades to an estimate with
// error bars instead of timing out with nothing.

// AdaptiveStatesPerSecond converts a deadline into solver work: the
// exact DP solvers generate about this many state-transitions per second,
// 62 ns each. Measured on the 2-core reference box (Xeon 2.1 GHz, go1.24,
// 2026-10-04): BenchmarkTwoLabelSelective 36 ns a transition (0.40 ms /
// 11 101), BenchmarkBipartiteSelective 70 ns (1.51 ms / 21 546), and a
// median 57 ns (p10 38, p90 121, the small solves paying their fixed set-up)
// over the 3 760 groups of TestCostCalibration's polls fixture. The constant
// sits at the slow end so that a deadline is not oversold.
const AdaptiveStatesPerSecond = 16e6

// adaptiveDrawStates is what one rejection draw costs per item of the model,
// in state-transitions: a draw and its union match take 26 ns an item —
// BenchmarkRejectionDraw's 522 ns at m = 20, linear in m from 7 to 200
// items at phi = 0.5 (13 ns an item at phi = 0.1, 31 at 0.9; the benchmark's
// traced sampling.rejection.ns_per_draw reads 600 at m = 20), same box and
// date as AdaptiveStatesPerSecond.
const adaptiveDrawStates = 26e-9 * AdaptiveStatesPerSecond

// drawPrice is the price of n rejection draws from a model over m items, in
// state-transitions.
func drawPrice(n, m int) float64 {
	return float64(n) * float64(m) * adaptiveDrawStates
}

// adaptiveSampleFloor is the minimum number of Monte Carlo draws for a
// sampled group: even a fully exhausted budget reports an estimate with a
// meaningful (non-zero) confidence half-width.
const adaptiveSampleFloor = 512

// adaptiveSampleCeil caps the draws spent on one sampled group.
const adaptiveSampleCeil = 20000

// DefaultAdaptiveBudget is the per-group budget MethodAdaptive works under
// when no deadline supplies one, for a model over 20 items (the polls and
// CrowdRank item counts): the price of the adaptiveSampleCeil draws the
// group would otherwise be answered with. The engine prices those draws at
// the group's own item count (drawPrice); tools that mirror the no-deadline
// rule on a 20-item model compare EstimateCost(...).States against this
// value.
const DefaultAdaptiveBudget = adaptiveSampleCeil * 20 * adaptiveDrawStates

// adaptiveLayerShare derives the layer bound an exact attempt runs under
// from its budget: MaxStates = budget / adaptiveLayerShare. A layer of w
// states took at least w transitions to emit, and over TestCostCalibration's
// fixture a walk spends a median 23 transitions per state of its widest
// layer (8 at the first percentile of the walks wider than 50 states), so a
// walk that grows a layer beyond an eighth of its budget has already shown
// its price wrong — it is stopped there (solver.ErrTooLarge) and the group
// sampled, instead of walking on to whatever the union really costs.
const adaptiveLayerShare = 8

// methodNone marks "no exact solver applies" in a CostEstimate.
const methodNone = Method(-1)

// CostEstimate predicts the exact-inference work of one (model, union)
// group.
type CostEstimate struct {
	// Solver is the cheapest adequate exact solver, or -1 when none applies
	// within the engine's structural limits.
	Solver Method
	// States is the predicted work of that solver in DP state-transitions,
	// the unit solver.Stats.Transitions counts (+Inf when no exact solver
	// applies). It is the compiled plan's own price, solver.Plan.Cost: an
	// upper-leaning bound that TestCostCalibration holds against real walks.
	States float64
}

// EstimateCost predicts the cheapest exact route for a group: it compiles
// the union for every exact solver that accepts its shape — TwoLabel or
// Bipartite by pattern family, RelOrder while the involved items stay
// within maxInvolved — and keeps the plan that prices itself lowest.
func EstimateCost(sm rim.SessionModel, lab *label.Labeling, u pattern.Union, maxInvolved int) CostEstimate {
	est, _ := cheapestPlan(sm, lab, u, maxInvolved)
	return est
}

// cheapestPlan is EstimateCost returning the compiled plan the price was
// read from, so the planner solves the plan it priced. The plan is nil when
// no solver applies.
func cheapestPlan(sm rim.SessionModel, lab *label.Labeling, u pattern.Union, maxInvolved int) (CostEstimate, *solver.Plan) {
	sigma := sm.Reference()
	if len(u) == 0 {
		// Matches nothing under any solver: a constant plan, at no cost.
		pl, _ := solver.CompilePlan(solver.AlgoFor(u), sigma, lab, u, solver.Options{})
		return CostEstimate{Solver: MethodAuto, States: 0}, pl
	}
	best := CostEstimate{Solver: methodNone, States: math.Inf(1)}
	var bestPlan *solver.Plan
	consider := func(s Method, algo solver.Algo) {
		// A compile error is the solver refusing the union (shape caps,
		// involved-item limit): it is simply not a candidate.
		pl, err := solver.CompilePlan(algo, sigma, lab, u, solver.Options{MaxInvolved: maxInvolved})
		if err != nil {
			return
		}
		if states, _ := pl.Cost(); states < best.States {
			best, bestPlan = CostEstimate{Solver: s, States: states}, pl
		}
	}
	// Bipartite walks a two-label union over TwoLabel's trackers without
	// its gap merging, so it never prices one lower: the most specific
	// tracker solver is the only one compiled.
	switch {
	case u.AllTwoLabel():
		consider(MethodTwoLabel, solver.AlgoTwoLabel)
	case u.AllBipartite():
		consider(MethodBipartite, solver.AlgoBipartite)
	}
	if maxInvolved > 0 {
		consider(MethodRelOrder, solver.AlgoRelOrder)
	}
	return best, bestPlan
}

// EstimateConsensusCost predicts the exact-enumeration work of a consensus
// request in the unit of EstimateCost: every live session scores all m!
// rankings at O(m) insertion probabilities each, so the predicted work is
// sessions * m! * m (measured: 60-76 ns a unit at m = 5..7, a DP
// transition's cost). Solver is MethodAuto as a stand-in: exact consensus is
// enumeration, not one of the DP solvers.
func EstimateConsensusCost(m, sessions int) CostEstimate {
	if m > 20 { // rank.Factorial's range; far beyond any budget anyway
		return CostEstimate{Solver: methodNone, States: math.Inf(1)}
	}
	states := float64(sessions) * float64(rank.Factorial(m)) * float64(m)
	return CostEstimate{Solver: MethodAuto, States: states}
}

// SolveReport describes how one inference group was answered.
type SolveReport struct {
	// Method is the solver that produced the answer (for MethodAdaptive,
	// the routed solver, not "adaptive" itself).
	Method Method
	// Sampled reports whether a Monte Carlo estimate answered the group.
	Sampled bool
	// Samples counts the Monte Carlo draws behind a sampled answer.
	Samples int
	// HalfWidth is the 95% confidence half-width of a sampled answer
	// (0 for exact answers).
	HalfWidth float64
	// Cost is the planner's predicted exact work for the group
	// (MethodAdaptive only).
	Cost float64
}

// adaptiveBudget is MethodAdaptive's work budget in state-transitions where
// no deadline is priced: sampled, the price of the sampled answer the
// caller would give instead, unless a test's knobs fix one.
func (e *Engine) adaptiveBudget(sampled float64) float64 {
	return cmp.Or(e.knobs().budget, sampled)
}

// start builds an evaluation's run from the request's method and seed
// (zero: the engine's) and applies its deadline d (0: none). Other methods
// arm d on ctx. MethodAdaptive prices it once: d, else ctx's remaining time
// clamped at 0, at AdaptiveStatesPerSecond. The run carries that budget for
// the groups to spend in a fixed order (groupProbs.route), and ctx's
// deadline is detached, its cancellation kept, so no route reads the clock.
func (e *Engine) start(ctx context.Context, m Method, seed int64, d time.Duration) (run, context.Context, context.CancelFunc) {
	rn := run{method: cmp.Or(m, e.Method), seed: seed}
	if rn.method != MethodAdaptive {
		if d == 0 {
			return rn, ctx, func() {}
		}
		ctx, cancel := context.WithTimeout(ctx, d)
		return rn, ctx, cancel
	}
	if deadline, ok := ctx.Deadline(); (d > 0 || ok) && e.knobs().budget == 0 {
		if d == 0 {
			d = max(time.Until(deadline), 0)
		}
		rn.budget, rn.priced = d.Seconds()*AdaptiveStatesPerSecond, true
	}
	ctx, cancel := DetachDeadline(ctx)
	return rn, ctx, cancel
}

// adaptiveDraws is the draws a budget pays for from a model over m items
// (rounded: the default budget is the price of exactly the cap), within
// the floor and the cap.
func (e *Engine) adaptiveDraws(budget float64, m int) int {
	n := int(math.Min(math.Round(budget/drawPrice(1, m)), math.MaxInt32))
	return min(max(n, adaptiveSampleFloor), e.knobs().sampleCeil)
}

// adaptiveRoute is one group's route: its cheapest exact plan's estimate,
// its budget, and the plan to solve — nil when the group is sampled.
type adaptiveRoute struct {
	est    CostEstimate
	plan   *solver.Plan
	budget float64
}

// route routes one group against budget: the plan is kept when a solver
// applies and its price fits.
func (e *Engine) route(sm rim.SessionModel, u pattern.Union, budget float64) adaptiveRoute {
	est, pl := cheapestPlan(sm, e.DB.Labeling(), u, e.knobs().opts.MaxInvolvedLimit())
	if est.States > budget {
		pl = nil
	}
	return adaptiveRoute{est: est, plan: pl, budget: budget}
}

// solveAdaptive routes one group against its budget, whose sampled answer
// is the cap of draws, and solves the route; a sampled group draws from
// the stream seed seeds.
func (e *Engine) solveAdaptive(ctx context.Context, seed int64, sm rim.SessionModel, u pattern.Union) (float64, SolveReport, error) {
	budget := e.adaptiveBudget(drawPrice(e.knobs().sampleCeil, sm.M()))
	return e.solveRoute(ctx, seed, sm, u, e.route(sm, u, budget))
}

// solveRoute answers one routed group. The plan the price was read from is
// the plan that is solved, under a layer bound derived from the budget
// (adaptiveLayerShare): a walk past it has shown its price wrong and stops
// (solver.ErrTooLarge), and the group is sampled under the same budget,
// from the stream seed seeds: its generator is built only then.
func (e *Engine) solveRoute(ctx context.Context, seed int64, sm rim.SessionModel, u pattern.Union, r adaptiveRoute) (float64, SolveReport, error) {
	rep := SolveReport{Method: r.est.Solver, Cost: r.est.States}
	if r.plan != nil {
		opts := e.solverOpts(ctx)
		bound := int(math.Min(math.Max(r.budget/adaptiveLayerShare, 1), math.MaxInt32))
		if opts.MaxStates == 0 || bound < opts.MaxStates {
			opts.MaxStates = bound
		}
		p, err := r.plan.Solve(sm.Model(), opts)
		if err == nil {
			return p, rep, nil
		}
		if !errors.Is(err, solver.ErrTooLarge) {
			return 0, rep, err
		}
	}
	return e.sampleAdaptive(ctx, rand.New(rand.NewSource(seed)), sm, u, r.budget)
}

// sampleAdaptive answers a group by Monte Carlo with a reported 95%
// half-width: a rejection pass sized to the budget first and, when the
// event is so rare that rejection saw no hits on a Mallows model, an
// MIS-AMP pass whose proposals concentrate on the satisfying set, both
// drawing from rng.
func (e *Engine) sampleAdaptive(ctx context.Context, rng *rand.Rand, sm rim.SessionModel, u pattern.Union, budget float64) (float64, SolveReport, error) {
	lab := e.DB.Labeling()
	n := e.adaptiveDraws(budget, sm.M())
	rep := SolveReport{Method: MethodRejection, Sampled: true, Samples: n}
	p, hw, err := sampling.RejectionModelCICtx(ctx, sm, lab, u, n, 1.96, rng)
	if err != nil {
		return 0, rep, err
	}
	rep.HalfWidth = hw
	if ml, ok := sm.(*rim.Mallows); ok && p == 0 {
		// Zero hits: the event is likely rare and the rejection interval
		// says little. MIS-AMP proposals sample the satisfying set
		// directly, so a bounded pass resolves rare probabilities the
		// rejection pass cannot.
		cfg := sampling.Config{Limits: pattern.Limits{MaxSubRankings: 256}} // keep proposal construction bounded
		mis, err := sampling.NewEstimator(ml, lab, u, cfg)
		if err == nil {
			misN := n / 8
			if misN < adaptiveSampleFloor/2 {
				misN = adaptiveSampleFloor / 2
			}
			const misD = 4
			mp, mhw, drawn, merr := mis.EstimateCI(ctx, misD, misN, rng, true, 1.96)
			if merr != nil {
				return 0, rep, merr
			}
			rep.Method = MethodMISLite
			rep.Samples = n + drawn
			rep.HalfWidth = mhw
			return clamp01(mp), rep, nil
		}
	}
	return p, rep, nil
}

// DetachDeadline returns a context that drops the parent's deadline but
// keeps true cancellation: Done fires when the parent was cancelled
// outright, not when its deadline expired. A MethodAdaptive evaluation runs
// under it once it has priced the deadline (Engine.start), while a client
// disconnect still aborts it; the service's batch fan-out uses it the same
// way. A parent without a deadline is returned as it is. (If the parent is
// already done from its deadline, later cancellations are unobservable.)
func DetachDeadline(parent context.Context) (context.Context, context.CancelFunc) {
	if _, ok := parent.Deadline(); !ok {
		return parent, func() {}
	}
	ctx, cancel := context.WithCancel(context.WithoutCancel(parent))
	stop := context.AfterFunc(parent, func() {
		// Anything but a deadline expiry — plain Canceled or a custom
		// WithCancelCause cause — is an outright cancellation and must
		// propagate.
		if !errors.Is(context.Cause(parent), context.DeadlineExceeded) {
			cancel()
		}
	})
	return ctx, func() { stop(); cancel() }
}

// PlanStats reports MethodAdaptive's routing decisions across one
// evaluation. It is attached to Response.Plan (nil for other methods).
type PlanStats struct {
	// ExactGroups counts the solved groups routed to exact solvers.
	ExactGroups int
	// SampledGroups counts the solved groups routed to sampling.
	SampledGroups int
	// Samples is the total Monte Carlo draws across sampled groups.
	Samples int
	// MaxHalfWidth is the largest per-group 95% half-width.
	MaxHalfWidth float64
	// ProbHalfWidth propagates the per-group half-widths to the
	// evaluation's Boolean confidence (first-order error propagation;
	// 0 when every group went exact, and for an aggregate).
	ProbHalfWidth float64
	// CountHalfWidth likewise propagates to the Count-Session expectation.
	CountHalfWidth float64
	// Methods counts solved groups per routed solver name.
	Methods map[string]int
}

// note records one solved group's report into the plan counters.
func (ps *PlanStats) note(rep SolveReport) {
	if ps.Methods == nil {
		ps.Methods = make(map[string]int)
	}
	ps.Methods[rep.Method.String()]++
	if rep.Sampled {
		ps.SampledGroups++
		ps.Samples += rep.Samples
		if rep.HalfWidth > ps.MaxHalfWidth {
			ps.MaxHalfWidth = rep.HalfWidth
		}
	} else {
		ps.ExactGroups++
	}
}

// propagate computes the half-widths on Prob and Count from the per-session
// probabilities and their group half-widths hw(s): Count = sum p_s, so its
// half-width is the sum of the per-session ones; Prob = 1 - prod(1 - p_s),
// whose partial derivative in p_s is prod_{t != s}(1 - p_t).
func (ps *PlanStats) propagate(per []SessionProb, hw func(s int) float64) {
	ps.ProbHalfWidth, ps.CountHalfWidth = 0, 0
	// prod_{t != s}(1 - p_t) via prefix/suffix products: O(n), and no
	// division-by-zero hazard from a running product over (1 - p_t) == 0.
	n := len(per)
	suffix := make([]float64, n+1)
	suffix[n] = 1
	for t := n - 1; t >= 0; t-- {
		suffix[t] = suffix[t+1] * (1 - per[t].Prob)
	}
	prefix := 1.0
	for s := 0; s < n; s++ {
		if h := hw(s); h != 0 {
			ps.CountHalfWidth += h
			ps.ProbHalfWidth += prefix * suffix[s+1] * h
		}
		prefix *= 1 - per[s].Prob
	}
}
