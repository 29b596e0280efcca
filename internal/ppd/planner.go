package ppd

import (
	"context"
	"errors"
	"math"
	"time"

	"probpref/internal/label"
	"probpref/internal/pattern"
	"probpref/internal/rank"
	"probpref/internal/rim"
	"probpref/internal/sampling"
	"probpref/internal/solver"
)

// This file implements the deadline-aware adaptive planner behind
// MethodAdaptive: a per-(session-model, union) cost estimator routes each
// inference group to the cheapest adequate exact solver when its predicted
// work fits the remaining budget, and to Monte Carlo sampling with a
// reported confidence half-width otherwise. The budget derives from the
// caller's context deadline, so a request that cannot afford exact
// inference degrades to an estimate with error bars instead of timing out
// with nothing.

// AdaptiveStatesPerSecond converts wall-clock budget into predicted solver
// work: the exact DP solvers process state-transitions at very roughly this
// rate on commodity hardware. The constant only needs order-of-magnitude
// accuracy — it decides which side of exact-vs-sampling a group lands on,
// not a precise schedule.
//
// Re-calibrated for the packed-state DP core (PR 5): replacing the
// string-keyed layer maps with packed integer keys, pooled arenas and
// gap-merged expansion made every exact solver ~3.5-4x faster per unit of
// predicted work (measured before and after on the same machine), so the
// same deadline now buys proportionally more exact solving and the
// adaptive method routes correspondingly more groups to exact answers.
const AdaptiveStatesPerSecond = 80e6

// DefaultAdaptiveBudget is the per-group work budget used by MethodAdaptive
// when neither Engine.AdaptiveBudget nor a context deadline supplies one:
// about one second of exact solving per group.
const DefaultAdaptiveBudget = AdaptiveStatesPerSecond

// adaptiveSampleFloor is the minimum number of Monte Carlo draws for a
// sampled group: even a fully exhausted budget reports an estimate with a
// meaningful (non-zero) confidence half-width.
const adaptiveSampleFloor = 512

// adaptiveSampleCeil caps the draws spent on one sampled group.
const adaptiveSampleCeil = 20000

// methodNone marks "no exact solver applies" in a CostEstimate.
const methodNone = Method(-1)

// CostEstimate predicts the exact-inference work of one (model, union)
// group.
type CostEstimate struct {
	// Solver is the cheapest adequate exact solver, or -1 when none applies
	// within the engine's structural limits.
	Solver Method
	// States is the predicted work of that solver in DP state-transitions
	// (+Inf when no exact solver applies). The prediction is a deliberately
	// simple upper-bound shape — layer width times insertion steps — not a
	// tight count; it only has to order groups and compare against a budget.
	States float64
}

// EstimateCost predicts the cheapest exact route for a group. The features
// are the ones the solvers' complexity bounds depend on: the model size m,
// the number of patterns z, the number of distinct (label set, role)
// trackers (TwoLabel/Bipartite layer width), and the number of involved
// items (RelOrder layer width).
func EstimateCost(sm rim.SessionModel, lab *label.Labeling, u pattern.Union, maxInvolved int) CostEstimate {
	best := CostEstimate{Solver: methodNone, States: math.Inf(1)}
	if len(u) == 0 {
		return CostEstimate{Solver: MethodAuto, States: 0}
	}
	m := float64(sm.M())
	consider := func(s Method, states float64) {
		if states < best.States {
			best = CostEstimate{Solver: s, States: states}
		}
	}
	// TwoLabel and Bipartite: layers hold one position (or "absent") per
	// tracker, so width <= (m+2)^trackers; each of the m insertion steps
	// expands every state into up to m slots.
	if u.AllTwoLabel() {
		consider(MethodTwoLabel, layerCost(m, trackerCount(u)))
	}
	if u.AllBipartite() {
		consider(MethodBipartite, layerCost(m, trackerCount(u)))
	}
	// RelOrder: layers hold the positions of the involved items, width
	// <= C(m, t)*t! <= m^t.
	if t := len(pattern.InvolvedItems(u, lab, sm.M())); t <= maxInvolved {
		consider(MethodRelOrder, layerCost(m, t))
	}
	return best
}

// layerCost returns m^2 * (m+2)^width clamped to avoid overflow: predicted
// layer width times insertion steps times per-state expansion.
func layerCost(m float64, width int) float64 {
	logCost := 2*math.Log(m+1) + float64(width)*math.Log(m+2)
	if logCost > 600 { // beyond any budget; avoid Inf arithmetic surprises
		return math.MaxFloat64
	}
	return math.Exp(logCost)
}

// BatchedWalkFraction and BatchedLaneFraction model the throughput of the
// compiled-plan batched executors (solver.SolveSessions): a batched solve
// pays the structural layer walk — state hashing, successor construction,
// matching — once for all lanes, and only the per-lane multiply-accumulate
// scales with the session count. The fractions are calibrated against the
// solver/batched-* benchmarks: walk bookkeeping is roughly 60% of a
// single-session solve and the per-lane fold the remaining 40%, so per
// session the batched cost approaches 40% of a solo solve as the batch
// grows (and degenerates to exactly one solo solve at one lane).
const (
	BatchedWalkFraction = 0.6
	BatchedLaneFraction = 0.4
)

// EstimateBatchedCost predicts the total exact work of solving one union
// shape against lanes sessions in a single batched walk. The planner uses
// it to compare "one batched walk over the class" against "lanes
// independent solves" (est.States * lanes) when budgeting grouped requests.
func EstimateBatchedCost(est CostEstimate, lanes int) CostEstimate {
	if lanes <= 1 || est.Solver == methodNone {
		return est
	}
	est.States = est.States * (BatchedWalkFraction + BatchedLaneFraction*float64(lanes))
	return est
}

// EstimateConsensusCost predicts the exact-enumeration work of a
// consensus request alongside EstimateCost/EstimateBatchedCost: every
// live session scores all m! rankings at O(m) insertion probabilities
// each, so the predicted work is sessions * m! * m — comparable against
// the same budgets (AdaptiveStatesPerSecond) the solver estimates use.
// Solver is MethodAuto as a stand-in: exact consensus is enumeration, not
// one of the DP solvers.
func EstimateConsensusCost(m, sessions int) CostEstimate {
	if m > 20 { // rank.Factorial's range; far beyond any budget anyway
		return CostEstimate{Solver: methodNone, States: math.Inf(1)}
	}
	states := float64(sessions) * float64(rank.Factorial(m)) * float64(m)
	return CostEstimate{Solver: MethodAuto, States: states}
}

// trackerCount counts the distinct (label set, role) slots the
// TwoLabel/Bipartite DP would track for the union, mirroring their slot
// deduplication.
func trackerCount(u pattern.Union) int {
	seen := make(map[string]bool)
	for _, g := range u {
		for _, e := range g.Edges() {
			seen["min|"+g.Node(e[0]).Labels.Key()] = true
			seen["max|"+g.Node(e[1]).Labels.Key()] = true
		}
	}
	return len(seen)
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

// adaptiveBudget resolves the work budget for one group: the explicit
// Engine.AdaptiveBudget when set, otherwise the remaining time before the
// context deadline converted at AdaptiveStatesPerSecond, otherwise
// DefaultAdaptiveBudget. An already-expired deadline yields 0 (everything
// routes to the sampling floor).
func (e *Engine) adaptiveBudget(ctx context.Context) float64 {
	if e.AdaptiveBudget > 0 {
		return e.AdaptiveBudget
	}
	if deadline, ok := ctx.Deadline(); ok {
		remaining := time.Until(deadline).Seconds()
		if remaining <= 0 {
			return 0
		}
		return remaining * AdaptiveStatesPerSecond
	}
	return DefaultAdaptiveBudget
}

// solveAdaptive routes one group. Exact routes run under the caller's
// context, so a mis-predicted solve aborts at the deadline; the fallback
// sampling pass then runs with the deadline detached — the whole point of
// the planner is to return an estimate instead of nothing — while an
// outright cancellation (client disconnect) still aborts it.
func (e *Engine) solveAdaptive(ctx context.Context, sm rim.SessionModel, u pattern.Union) (float64, SolveReport, error) {
	lab := e.DB.Labeling()
	est := EstimateCost(sm, lab, u, e.SolverOpts.MaxInvolvedLimit())
	budget := e.adaptiveBudget(ctx)
	rep := SolveReport{Method: est.Solver, Cost: est.States}
	if est.Solver != methodNone && est.States <= budget {
		opts := e.SolverOpts
		opts.Ctx = ctx
		var (
			p   float64
			err error
		)
		switch est.Solver {
		case MethodTwoLabel:
			p, err = solver.TwoLabel(sm.Model(), lab, u, opts)
		case MethodBipartite:
			p, err = solver.Bipartite(sm.Model(), lab, u, opts)
		default:
			p, err = solver.RelOrder(sm.Model(), lab, u, opts)
		}
		if err == nil {
			return p, rep, nil
		}
		// A blown deadline or a structural rejection (state-space bound,
		// pattern-shape cap the cost model cannot see) degrades to sampling
		// below; anything else (including a true cancellation) propagates.
		if !errors.Is(err, context.DeadlineExceeded) &&
			!errors.Is(err, solver.ErrTooLarge) && !errors.Is(err, solver.ErrShape) {
			return 0, rep, err
		}
	}
	sctx, cancel := DetachDeadline(ctx)
	defer cancel()
	return e.sampleAdaptive(sctx, sm, u, budget)
}

// sampleAdaptive answers a group by Monte Carlo with a reported 95%
// half-width: a rejection pass sized to the budget first and, when the
// event is so rare that rejection saw no hits on a Mallows model, an
// MIS-AMP pass whose proposals concentrate on the satisfying set.
func (e *Engine) sampleAdaptive(ctx context.Context, sm rim.SessionModel, u pattern.Union, budget float64) (float64, SolveReport, error) {
	lab := e.DB.Labeling()
	m := float64(sm.M())
	// A rejection draw costs about one model sample plus a union match:
	// O(m) work, charged here at 4m transitions-equivalent.
	n := int(budget / (4 * m))
	if n < adaptiveSampleFloor {
		n = adaptiveSampleFloor
	}
	if max := e.RejectionN; max > 0 && n > max {
		n = max
	} else if n > adaptiveSampleCeil {
		n = adaptiveSampleCeil
	}
	rep := SolveReport{Method: MethodRejection, Sampled: true, Samples: n}
	p, hw, err := sampling.RejectionModelCICtx(ctx, sm, lab, u, n, 1.96, e.rng())
	if err != nil {
		return 0, rep, err
	}
	rep.HalfWidth = hw
	if ml, ok := sm.(*rim.Mallows); ok && p == 0 {
		// Zero hits: the event is likely rare and the rejection interval
		// says little. MIS-AMP proposals sample the satisfying set
		// directly, so a bounded pass resolves rare probabilities the
		// rejection pass cannot.
		cfg := e.SamplerCfg
		if cfg.Limits.MaxSubRankings == 0 {
			cfg.Limits.MaxSubRankings = 256 // keep proposal construction bounded
		}
		mis, err := sampling.NewEstimator(ml, lab, u, cfg)
		if err == nil {
			misN := n / 8
			if misN < adaptiveSampleFloor/2 {
				misN = adaptiveSampleFloor / 2
			}
			const misD = 4
			mp, mhw, drawn, merr := mis.EstimateCI(ctx, misD, misN, e.rng(), true, 1.96)
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
// outright, not when its deadline expired. MethodAdaptive's degraded
// sampling pass and its surrounding evaluation loop run under it so an
// evaluation can finish past the deadline (returning estimates with error
// bars instead of nothing) while a client disconnect still aborts it; the
// service batch planner uses it the same way. (If the parent is already done
// from its deadline, later cancellations are unobservable — acceptable for
// the short, bounded sampling pass this guards.)
func DetachDeadline(parent context.Context) (context.Context, context.CancelFunc) {
	if parent.Done() == nil {
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
// evaluation. It is attached to EvalResult.Plan (nil for other methods).
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
	// 0 when every group went exact).
	ProbHalfWidth float64
	// CountHalfWidth likewise propagates to the Count-Session expectation.
	CountHalfWidth float64
	// Methods counts solved groups per routed solver name.
	Methods map[string]int
}

// Note records one solved group's report into the plan counters; the
// service batch planner calls it when attributing group solves to queries.
func (ps *PlanStats) Note(rep SolveReport) {
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
// probabilities and their group half-widths: Count = sum p_s, so its
// half-width is the sum of the per-session ones; Prob = 1 - prod(1 - p_s),
// whose partial derivative in p_s is prod_{t != s}(1 - p_t).
func (ps *PlanStats) propagate(per []SessionProb, hw []float64) {
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
		if hw[s] != 0 {
			ps.CountHalfWidth += hw[s]
			ps.ProbHalfWidth += prefix * suffix[s+1] * hw[s]
		}
		prefix *= 1 - per[s].Prob
	}
}

// BatchPlan builds a PlanStats carrying the propagated half-widths for a
// query whose groups were solved by an external batch planner (see
// internal/server): per-session probabilities and the matching group
// half-widths go in, routing counters are attributed separately via Note.
func BatchPlan(per []SessionProb, hw []float64) *PlanStats {
	ps := &PlanStats{}
	ps.propagate(per, hw)
	return ps
}
