package ppd

import (
	"context"
	"fmt"
	"math/rand"
	"sort"
	"strings"

	"probpref/internal/pattern"
	"probpref/internal/pool"
	"probpref/internal/rim"
	"probpref/internal/sampling"
	"probpref/internal/solver"
)

// Method selects the inference solver used per session.
type Method int

const (
	// MethodAuto dispatches to the most specific exact solver.
	MethodAuto Method = iota
	// MethodTwoLabel forces Algorithm 3 (two-label unions only).
	MethodTwoLabel
	// MethodBipartite forces Algorithm 4.
	MethodBipartite
	// MethodGeneral forces the inclusion-exclusion baseline.
	MethodGeneral
	// MethodRelOrder forces the relative-order solver.
	MethodRelOrder
	// MethodMISAdaptive uses MIS-AMP-adaptive.
	MethodMISAdaptive
	// MethodMISLite uses MIS-AMP-lite with Engine.LiteD proposals.
	MethodMISLite
	// MethodRejection uses rejection sampling with Engine.RejectionN samples.
	MethodRejection
	// MethodAdaptive is the deadline-aware cost-based planner: per group it
	// solves the cheapest exact solver's compiled plan when the plan's
	// predicted work fits the budget (Engine.AdaptiveBudget, the context
	// deadline, or else the price of the sampled answer), and samples with
	// a reported confidence half-width otherwise (see planner.go).
	MethodAdaptive
)

// String returns the canonical method name (the form ParseMethod accepts
// and the CLIs print).
func (m Method) String() string {
	switch m {
	case MethodAuto:
		return "auto"
	case MethodTwoLabel:
		return "two-label"
	case MethodBipartite:
		return "bipartite"
	case MethodGeneral:
		return "general"
	case MethodRelOrder:
		return "relorder"
	case MethodMISAdaptive:
		return "mis-amp-adaptive"
	case MethodMISLite:
		return "mis-amp-lite"
	case MethodRejection:
		return "rejection"
	case MethodAdaptive:
		return "adaptive"
	}
	return fmt.Sprintf("method(%d)", int(m))
}

// MethodNames lists the canonical method names ParseMethod accepts, in the
// order the CLIs document them. (ParseMethod also accepts a few aliases and
// the exact Method.String forms.)
func MethodNames() []string {
	return []string{"auto", "twolabel", "bipartite", "general", "relorder",
		"adaptive", "mis-adaptive", "mis-lite", "rejection"}
}

// ParseMethod resolves a method name (as printed by Method.String, plus the
// CLI short forms) to its Method; it is the shared flag parser of the cmd
// binaries.
func ParseMethod(s string) (Method, error) {
	switch strings.ToLower(s) {
	case "auto":
		return MethodAuto, nil
	case "twolabel", "two-label":
		return MethodTwoLabel, nil
	case "bipartite":
		return MethodBipartite, nil
	case "general":
		return MethodGeneral, nil
	case "relorder":
		return MethodRelOrder, nil
	case "mis-adaptive", "mis-amp-adaptive":
		return MethodMISAdaptive, nil
	case "mis-lite", "lite", "mis-amp-lite":
		return MethodMISLite, nil
	case "rejection", "rs":
		return MethodRejection, nil
	case "adaptive", "planner":
		return MethodAdaptive, nil
	}
	return 0, fmt.Errorf("unknown method %q (valid: %s)", s, strings.Join(MethodNames(), " | "))
}

// Engine evaluates queries over a RIM-PPD.
type Engine struct {
	// DB is the queried database.
	DB *DB
	// Method selects the per-session inference solver.
	Method Method

	// SolverOpts applies to exact solvers.
	SolverOpts solver.Options
	// SamplerCfg applies to MIS estimators.
	SamplerCfg sampling.Config
	// Adaptive configures MethodMISAdaptive.
	Adaptive sampling.AdaptiveConfig
	// LiteD and LiteN configure MethodMISLite (proposals, samples/proposal).
	LiteD, LiteN int
	// RejectionN configures MethodRejection.
	RejectionN int
	// Rng seeds the samplers; nil uses a fixed seed.
	Rng *rand.Rand
	// DisableGrouping turns off identical-request grouping (Section 6.4).
	DisableGrouping bool
	// Workers > 1 solves distinct session groups concurrently. Sampler
	// methods derive an independent seeded RNG per group so results stay
	// deterministic for a fixed worker-independent seed.
	Workers int
	// Cache, when non-nil, memoizes solved (model, union) groups across
	// Do calls (and across engines sharing the cache). It is
	// consulted with GroupKey keys before each solve and updated after;
	// see SolveCache for the concurrency and sampling caveats. Ignored
	// when DisableGrouping is set, since per-session keys are synthetic
	// then.
	Cache SolveCache
	// AdaptiveBudget is MethodAdaptive's per-group work budget in predicted
	// solver state-transitions. 0 derives the budget from the context
	// deadline (remaining time at AdaptiveStatesPerSecond) and, when the
	// context has none, from the price of the sampled answer the group
	// would otherwise get (DefaultAdaptiveBudget on a 20-item model).
	AdaptiveBudget float64
	// Plans, when non-nil, caches compiled union plans across evaluations
	// (see PlanCache); exact-method groups sharing a union shape then skip
	// recompilation and solve through one batched layer walk. Must not be
	// shared between engines with different databases.
	Plans PlanCache
}

func (e *Engine) rng() *rand.Rand {
	if e.Rng == nil {
		e.Rng = rand.New(rand.NewSource(1))
	}
	return e.Rng
}

// SessionProb pairs a session with the probability that the query holds on
// it.
type SessionProb struct {
	// Session is the session the probability refers to.
	Session *Session
	// Prob is Pr(Q | session).
	Prob float64
}

// EvalResult reports a full evaluation.
type EvalResult struct {
	// Prob is Pr(Q | D) = 1 - prod_s (1 - Pr(Q | s)) over the independent
	// sessions (Boolean semantics).
	Prob float64
	// Count is the Count-Session expectation sum_s Pr(Q | s).
	Count float64
	// PerSession holds the per-session probabilities in p-relation order.
	PerSession []SessionProb
	// Solves counts actual inference invocations: live sessions, minus
	// identical-request grouping, minus Cache hits.
	Solves int
	// CacheHits counts groups answered from Engine.Cache without solving
	// (always 0 when no cache is configured).
	CacheHits int
	// Plan reports MethodAdaptive's routing decisions and confidence
	// half-widths; nil for every other method.
	Plan *PlanStats
}

// loopContext returns the context an evaluation's grounding pass, group
// loop and fan-out run under. With the adaptive planner an expired deadline
// must not abort the evaluation — the planner's contract is to degrade the
// remaining groups to sampling — so those run deadline-detached
// (cancellation still aborts) while each solve still sees the original ctx
// for budgeting and mid-solve deadline checks.
func (e *Engine) loopContext(ctx context.Context) (context.Context, context.CancelFunc) {
	if e.Method == MethodAdaptive {
		return DetachDeadline(ctx)
	}
	return ctx, func() {}
}

// ground returns the grounding of uq over the engine's database: the
// version's memoised one, or with DisableGrouping a private one in which
// every live session is its own group.
func (e *Engine) ground(ctx context.Context, uq *UnionQuery) (*Grounded, error) {
	if e.DisableGrouping {
		return groundUnion(ctx, e.DB, uq, nil, false)
	}
	return e.DB.Ground(ctx, uq)
}

// useCache reports whether groups resolve through Engine.Cache. Without
// grouping every session is its own group by decree, not by content, so
// the ablation bypasses the content-addressed cache as well.
func (e *Engine) useCache() bool { return e.Cache != nil && !e.DisableGrouping }

// evalUnion is the evaluation core shared by every Boolean / Count-Session
// entry point: the query's grounding, cache resolution of its groups,
// optional batched or parallel solving of the misses, and the Boolean /
// Count-Session aggregation. A done ctx aborts grounding, in-flight solver
// layers and sampling rounds with ctx's error, and MethodAdaptive budgets
// each group from the ctx deadline. The grounding is returned alongside
// for callers that need the relation's session count.
func (e *Engine) evalUnion(ctx context.Context, uq *UnionQuery) (*EvalResult, *Grounded, error) {
	loopCtx, cancel := e.loopContext(ctx)
	defer cancel()
	gr, err := e.ground(loopCtx, uq)
	if err != nil {
		return nil, nil, err
	}
	groups, live := gr.Groups, gr.Live

	// Resolve groups against the shared cache first; only misses are solved.
	// With Workers > 1, pending keeps the original group indices and the
	// parallel branch is entered whenever a cold run would enter it, so
	// per-group sampler seeds do not depend on which groups happened to hit
	// and a warm parallel run reproduces the cold one exactly. The serial
	// path draws from the engine's single RNG stream, so there sampling
	// estimates for the solved groups do depend on how many groups hit.
	probs := make([]float64, len(groups))
	reports := make([]SolveReport, len(groups))
	cacheHits := 0
	useCache := e.useCache()
	var pending []int
	var keys []string
	if useCache {
		keys = make([]string, len(groups))
	}
	for gi := range groups {
		if useCache {
			keys[gi] = gr.GroupKey(e.Method, gi)
			if p, ok := e.Cache.Get(keys[gi]); ok {
				probs[gi] = p
				cacheHits++
				continue
			}
		}
		pending = append(pending, gi)
	}
	finish := func(gi int, p float64, rep SolveReport) {
		probs[gi] = p
		reports[gi] = rep
		if useCache {
			e.Cache.Put(keys[gi], p)
		}
	}

	if len(pending) > 1 && e.Plans != nil && e.batchableMethod() && !e.DisableGrouping {
		// Exact compiled-plan methods: pending groups sharing a union shape
		// solve through one batched layer walk, bit-identical to per-group
		// solves, so this path changes only the work done, never the answer.
		// Gated on a configured PlanCache: without one every evaluation
		// would recompile its plans from scratch, which costs more than
		// batching saves on small groups (engines built by the service layer
		// always carry the shared cache).
		bg := make([]BatchGroup, len(pending))
		for pi, gi := range pending {
			bg[pi] = BatchGroup{SM: groups[gi].Model, U: groups[gi].Union}
		}
		bprobs, breps, err := e.BatchSolveGroups(ctx, bg)
		if err != nil {
			return nil, nil, err
		}
		for pi, gi := range pending {
			finish(gi, bprobs[pi], breps[pi])
		}
	} else if workers := e.Workers; workers > 1 && len(groups) > 1 && len(pending) > 0 {
		baseSeed := int64(1)
		if e.Rng != nil {
			baseSeed = e.Rng.Int63()
		}
		err := pool.RunCtx(loopCtx, len(pending), workers, func(pi int) error {
			gi := pending[pi]
			sub := e.withRng(rand.New(rand.NewSource(baseSeed + int64(gi))))
			p, rep, err := sub.solve(ctx, groups[gi].Model, groups[gi].Union)
			if err != nil {
				return err
			}
			finish(gi, p, rep)
			return nil
		})
		if err != nil {
			return nil, nil, err
		}
	} else {
		for _, gi := range pending {
			if err := loopCtx.Err(); err != nil {
				return nil, nil, context.Cause(loopCtx)
			}
			p, rep, err := e.solve(ctx, groups[gi].Model, groups[gi].Union)
			if err != nil {
				return nil, nil, err
			}
			finish(gi, p, rep)
		}
	}

	per := make([]SessionProb, len(live))
	for i, ls := range live {
		per[i] = SessionProb{Session: ls.Session, Prob: probs[ls.Group]}
	}
	res := BoolAggregate(per)
	res.Solves, res.CacheHits = len(pending), cacheHits
	if e.Method == MethodAdaptive {
		plan := &PlanStats{}
		solved := make([]bool, len(groups))
		for _, gi := range pending {
			solved[gi] = true
			plan.Note(reports[gi])
		}
		// Per-session half-widths for error propagation; cache hits replay
		// earlier answers and contribute no width.
		hw := make([]float64, len(live))
		for i, ls := range live {
			if solved[ls.Group] {
				hw[i] = reports[ls.Group].HalfWidth
			}
		}
		plan.propagate(per, hw)
		res.Plan = plan
	}
	return res, gr, nil
}

// BoolAggregate builds an EvalResult from per-session probabilities: the
// Boolean confidence 1 - prod(1 - p) over the independent sessions and the
// Count-Session expectation sum(p). It is the shared aggregation of
// evalUnion and the service layer's batch planner.
func BoolAggregate(per []SessionProb) *EvalResult {
	res := &EvalResult{PerSession: per}
	oneMinus := 1.0
	for _, sp := range per {
		res.Count += sp.Prob
		oneMinus *= 1 - sp.Prob
	}
	res.Prob = 1 - oneMinus
	return res
}

// withRng returns a shallow copy of the engine using the given RNG; used by
// parallel workers so sampler and statistics state is not shared.
func (e *Engine) withRng(rng *rand.Rand) *Engine {
	clone := *e
	clone.Rng = rng
	clone.SolverOpts.Stats = nil // not aggregated across workers
	return &clone
}

// groupProbs resolves the groups of one grounding lazily, one at a time and
// in the order its caller asks — the top-k loop, which stops at the first
// dominated bound, and aggregation, which skips sessions without a value —
// so a sampling method draws from the engine's RNG stream for exactly the
// groups the answer needs, in session order. Each group is resolved at
// most once: from Engine.Cache when it holds the group, by a solve
// otherwise.
type groupProbs struct {
	e     *Engine
	gr    *Grounded
	probs []float64
	done  []bool

	solves, cacheHits int
	plan              *PlanStats // MethodAdaptive's routing of the solved groups, else nil
}

func (e *Engine) newGroupProbs(gr *Grounded) *groupProbs {
	return &groupProbs{e: e, gr: gr, probs: make([]float64, len(gr.Groups)), done: make([]bool, len(gr.Groups))}
}

// prob returns the probability of group gi.
func (gp *groupProbs) prob(ctx context.Context, gi int) (float64, error) {
	if gp.done[gi] {
		return gp.probs[gi], nil
	}
	e, g := gp.e, gp.gr.Groups[gi]
	var key string
	if e.useCache() {
		key = gp.gr.GroupKey(e.Method, gi)
		if p, ok := e.Cache.Get(key); ok {
			gp.cacheHits++
			gp.probs[gi], gp.done[gi] = p, true
			return p, nil
		}
	}
	p, rep, err := e.solve(ctx, g.Model, g.Union)
	if err != nil {
		return 0, err
	}
	gp.solves++
	if e.Method == MethodAdaptive {
		if gp.plan == nil {
			gp.plan = &PlanStats{}
		}
		gp.plan.Note(rep)
	}
	if key != "" {
		e.Cache.Put(key, p)
	}
	gp.probs[gi], gp.done[gi] = p, true
	return p, nil
}

// SolveUnion computes Pr(union | model) with the engine's configured method,
// bypassing grounding, grouping and Engine.Cache. It is the single-group
// primitive used by batch planners (see internal/server) that deduplicate
// groups themselves before fanning out.
func (e *Engine) SolveUnion(sm rim.SessionModel, u pattern.Union) (float64, error) {
	p, _, err := e.solve(context.Background(), sm, u)
	return p, err
}

// SolveUnionCtx is SolveUnion with cancellation and deadline awareness,
// reporting how the group was answered (routed solver, sample count,
// confidence half-width) alongside the probability.
func (e *Engine) SolveUnionCtx(ctx context.Context, sm rim.SessionModel, u pattern.Union) (float64, SolveReport, error) {
	return e.solve(ctx, sm, u)
}

// solve runs the configured inference method. Exact methods apply to any
// RIM-backed session model through its materialization; the MIS-AMP
// estimators are Mallows-specific and fall back to the model-generic MISRIM
// estimator for other session models (e.g. Generalized Mallows).
func (e *Engine) solve(ctx context.Context, sm rim.SessionModel, u pattern.Union) (float64, SolveReport, error) {
	lab := e.DB.Labeling()
	rep := SolveReport{Method: e.Method}
	opts := e.SolverOpts
	if opts.Ctx == nil {
		opts.Ctx = ctx
	}
	exact := func(p float64, err error) (float64, SolveReport, error) {
		return p, rep, err
	}
	switch e.Method {
	case MethodAuto:
		return exact(solver.Auto(sm.Model(), lab, u, opts))
	case MethodTwoLabel:
		return exact(solver.TwoLabel(sm.Model(), lab, u, opts))
	case MethodBipartite:
		return exact(solver.Bipartite(sm.Model(), lab, u, opts))
	case MethodGeneral:
		return exact(solver.General(sm.Model(), lab, u, opts))
	case MethodRelOrder:
		return exact(solver.RelOrder(sm.Model(), lab, u, opts))
	case MethodAdaptive:
		return e.solveAdaptive(ctx, sm, u)
	case MethodMISAdaptive:
		rep.Sampled = true
		ml, ok := sm.(*rim.Mallows)
		if !ok {
			return e.solveMISRIM(ctx, sm, u, rep)
		}
		est, err := sampling.NewEstimator(ml, lab, u, e.SamplerCfg)
		if err != nil {
			return 0, rep, err
		}
		cfg := e.Adaptive
		cfg.Compensate = true
		r, err := est.EstimateAdaptiveCtx(ctx, cfg, e.rng())
		if err != nil {
			return 0, rep, err
		}
		return clamp01(r.Estimate), rep, nil
	case MethodMISLite:
		rep.Sampled = true
		ml, ok := sm.(*rim.Mallows)
		if !ok {
			return e.solveMISRIM(ctx, sm, u, rep)
		}
		est, err := sampling.NewEstimator(ml, lab, u, e.SamplerCfg)
		if err != nil {
			return 0, rep, err
		}
		d, n := e.LiteD, e.LiteN
		if d == 0 {
			d = 5
		}
		if n == 0 {
			n = 500
		}
		p, hw, drawn, err := est.EstimateCI(ctx, d, n, e.rng(), true, 1.96)
		if err != nil {
			return 0, rep, err
		}
		rep.Samples, rep.HalfWidth = drawn, hw
		return clamp01(p), rep, nil
	case MethodRejection:
		rep.Sampled = true
		n := e.RejectionN
		if n == 0 {
			n = 10000
		}
		rep.Samples = n
		p, hw, err := sampling.RejectionModelCICtx(ctx, sm, lab, u, n, 1.96, e.rng())
		if err != nil {
			return 0, rep, err
		}
		rep.HalfWidth = hw
		return p, rep, nil
	}
	return 0, rep, fmt.Errorf("ppd: unknown method %v", e.Method)
}

// solveMISRIM is the sampling fallback for non-Mallows session models.
func (e *Engine) solveMISRIM(ctx context.Context, sm rim.SessionModel, u pattern.Union, rep SolveReport) (float64, SolveReport, error) {
	n := e.LiteN
	if n == 0 {
		n = 500
	}
	p, _, err := sampling.MISRIMCtx(ctx, sm.Model(), e.DB.Labeling(), u, n, e.rng(), e.SamplerCfg.Limits)
	if err != nil {
		return 0, rep, err
	}
	return clamp01(p), rep, nil
}

func clamp01(p float64) float64 {
	if p < 0 {
		return 0
	}
	if p > 1 {
		return 1
	}
	return p
}

// TopKDiag reports the work done by a Most-Probable-Session evaluation.
type TopKDiag struct {
	// BoundSolves counts upper-bound inference calls (0 for the naive
	// strategy, and for a repeated query whose bounds are all cached).
	BoundSolves int
	// BoundCacheHits counts upper bounds answered from Engine.Cache.
	// BoundSolves + BoundCacheHits is the number of distinct relaxed
	// requests the query's groups bound to.
	BoundCacheHits int
	// ExactSolves counts exact per-session inference calls (after
	// grouping).
	ExactSolves int
	// SessionsEvaluated counts sessions whose exact probability was
	// computed.
	SessionsEvaluated int
	// CacheHits counts exact evaluations answered from Engine.Cache.
	CacheHits int
	// Plan reports MethodAdaptive's routing decisions for the per-session
	// solves; nil for every other method.
	Plan *PlanStats
}

// topKUnion is the Most-Probable-Session core behind KindTopK: the k
// sessions satisfying the union with the highest probability (Section 3.2).
// With boundEdges == 0 it evaluates every session exactly and sorts; with
// boundEdges >= 1 cheap upper bounds from the hardest boundEdges
// transitive-closure edges of each pattern (Section 4.3.2) prioritize
// sessions, and exact evaluation stops once k sessions are at least as
// probable as every remaining bound. Upper bounds are resolved per distinct
// relaxed request of the grounding (see boundSet), through Engine.Cache
// like any other inference request.
func (e *Engine) topKUnion(ctx context.Context, uq *UnionQuery, k, boundEdges int) ([]SessionProb, *TopKDiag, error) {
	if k <= 0 {
		return nil, nil, fmt.Errorf("ppd: top-k requires k >= 1, got %d", k)
	}
	// The candidate loop and the cheap bound solves run under the loop
	// context; each exact solve still sees the original ctx.
	loopCtx, cancel := e.loopContext(ctx)
	defer cancel()
	gr, err := e.ground(loopCtx, uq)
	if err != nil {
		return nil, nil, err
	}
	diag := &TopKDiag{}
	useCache := e.useCache()
	ub := make([]float64, len(gr.Groups)) // upper bound per group
	for gi := range ub {
		ub[gi] = 1
	}
	if boundEdges > 0 {
		boundOpts := e.SolverOpts
		if boundOpts.Ctx == nil {
			boundOpts.Ctx = loopCtx
		}
		lab := e.DB.Labeling()
		bs := gr.bounds(boundEdges, lab)
		vals := make([]float64, len(bs.relaxed))
		for bi, b := range bs.relaxed {
			var key string
			if useCache {
				key = b.id.key(MethodBipartite)
				if p, ok := e.Cache.Get(key); ok {
					vals[bi] = p
					diag.BoundCacheHits++
					continue
				}
			}
			// Bound patterns are constraint sets; the bipartite solver
			// evaluates them directly and its satisfied-state pruning
			// makes it the cheapest choice for the (easy-to-satisfy)
			// relaxations, including the two-label case.
			p, err := solver.Bipartite(b.Model.Model(), lab, b.Union, boundOpts)
			if err != nil {
				return nil, nil, err
			}
			vals[bi] = p
			diag.BoundSolves++
			if key != "" {
				e.Cache.Put(key, p)
			}
		}
		for gi := range ub {
			ub[gi] = vals[bs.of[gi]]
		}
	}
	// Highest upper bound first.
	cands := append([]LiveSession(nil), gr.Live...)
	sort.SliceStable(cands, func(i, j int) bool { return ub[cands[i].Group] > ub[cands[j].Group] })

	exact := e.newGroupProbs(gr)
	var out []SessionProb
	for _, c := range cands {
		if err := loopCtx.Err(); err != nil {
			return nil, nil, context.Cause(loopCtx)
		}
		// out is kept sorted descending and trimmed to k.
		if len(out) >= k && out[len(out)-1].Prob >= ub[c.Group] {
			break // every remaining bound is dominated
		}
		p, err := exact.prob(ctx, c.Group)
		if err != nil {
			return nil, nil, err
		}
		diag.SessionsEvaluated++
		out = append(out, SessionProb{Session: c.Session, Prob: p})
		sort.SliceStable(out, func(a, b int) bool { return out[a].Prob > out[b].Prob })
		if len(out) > k {
			out = out[:k]
		}
	}
	diag.ExactSolves = exact.solves
	diag.CacheHits = exact.cacheHits
	diag.Plan = exact.plan
	return out, diag, nil
}
