package ppd

import (
	"cmp"
	"context"
	"fmt"
	"math/rand"
	"slices"
	"sync"

	"probpref/internal/pattern"
	"probpref/internal/pool"
	"probpref/internal/rim"
	"probpref/internal/sampling"
	"probpref/internal/solver"
)

// Engine evaluates queries over a RIM-PPD. It holds resources — the
// database, the default method and sampler seed, the workers and the
// caches — and each evaluation decides once, at entry, what its request
// asks for, so no evaluation copies or changes the engine. One engine is
// safe for concurrent Do calls.
type Engine struct {
	// DB is the queried database.
	DB *DB
	// Method selects the per-session inference solver of a request that
	// names none.
	Method Method
	// Rng seeds the samplers of a request that sets no seed: the engine
	// reads one Int63 from it (from rand.NewSource(1) when nil) at its first
	// such evaluation under a method that may sample, and that value is the
	// base seed of every unseeded evaluation after it, so a repeated request
	// gives the same bits. Each sampled group draws from its own stream
	// keyed by the base, its model and union (streamSeed).
	Rng *rand.Rand
	// Workers > 1 solves distinct session groups concurrently. Answers do
	// not depend on it: every sampled group draws from its own stream.
	Workers int
	// Cache, when non-nil, memoizes exactly solved (model, union) groups
	// across Do calls (and across engines sharing the cache). It is
	// consulted with GroupKey keys before each solve and updated after an
	// exact one, and a memoised grounding keeps what it answered for the
	// next call through the same cache value; see SolveCache. Ignored for
	// the groups of a method that only samples, since it would never hold
	// them.
	Cache SolveCache
	// Plans, when non-nil, caches compiled union plans across evaluations
	// (see PlanCache); exact-method groups sharing a union shape then skip
	// recompilation and solve through one batched layer walk. Must not be
	// shared between engines with different databases.
	Plans PlanCache

	baseOnce sync.Once
	base     int64  // the default base seed, once baseOnce has run
	tune     *knobs // nil: defaultKnobs; set by tests only (export_test.go)
}

// knobs are the sampler sizes, adaptive budget and exact-solver options an
// engine's evaluations run with: defaultKnobs, or a test's own.
type knobs struct {
	rejectionN   int            // draws of a MethodRejection group
	liteD, liteN int            // MIS-AMP-lite proposals and samples a proposal (liteN: MIS-RIM's samples too)
	sampleCeil   int            // draws cap of a sampled MethodAdaptive group
	consensusN   int            // draws a session of a sampled consensus row
	budget       float64        // MethodAdaptive's per-group budget; 0: a deadline's, else the sampled answer's price
	opts         solver.Options // exact solves' options; a solve sets Ctx
}

var defaultKnobs = knobs{rejectionN: 10000, liteD: 5, liteN: 500, sampleCeil: adaptiveSampleCeil, consensusN: DefaultConsensusDraws}

func (e *Engine) knobs() *knobs {
	if e.tune != nil {
		return e.tune
	}
	return &defaultKnobs
}

// solverOpts returns the options of an exact solve under ctx.
func (e *Engine) solverOpts(ctx context.Context) solver.Options {
	opts := e.knobs().opts
	opts.Ctx = ctx
	return opts
}

// baseSeed returns an evaluation's base seed: the first Int63 of
// rand.NewSource(seed) for a request that sets a seed, else the engine's
// default base (see Engine.Rng), read once whatever the concurrent callers.
func (e *Engine) baseSeed(seed int64) int64 {
	if seed != 0 {
		return rand.NewSource(seed).Int63()
	}
	e.baseOnce.Do(func() {
		if e.Rng == nil {
			e.base = rand.NewSource(1).Int63()
		} else {
			e.base = e.Rng.Int63()
		}
	})
	return e.base
}

// run is what one evaluation decides at entry (Engine.start) and passes
// down: its method, the seed its base derives from, and under
// MethodAdaptive the work a deadline priced.
type run struct {
	method Method
	seed   int64   // the request's seed; 0: the engine's default base
	budget float64 // the priced deadline, when priced
	priced bool
}

// NewRand returns a generator with rand.NewSource(seed)'s stream, seeded at
// its first draw (607 words, ~10 µs, 4.9 KB) at one more indirection a draw:
// for an Engine.Rng that only seeds evaluations, as a service's does.
func NewRand(seed int64) *rand.Rand { return rand.New(&lazySource{seed: seed}) }

// lazySource is rand.NewSource(seed) built at the first draw.
type lazySource struct {
	seed int64
	src  rand.Source64
}

func (l *lazySource) source() rand.Source64 {
	if l.src == nil {
		l.src = rand.NewSource(l.seed).(rand.Source64)
	}
	return l.src
}

func (l *lazySource) Int63() int64    { return l.source().Int63() }
func (l *lazySource) Uint64() uint64  { return l.source().Uint64() }
func (l *lazySource) Seed(seed int64) { l.seed, l.src = seed, nil }

// streamSeed seeds a stream from an evaluation's base seed and the parts
// naming what draws from it (a group's model and union, a consensus row's
// session key): the base XORed with FNV-1a over the NUL-terminated parts.
func streamSeed(base int64, parts ...string) int64 {
	const offset, prime = 14695981039346656037, 1099511628211
	h := uint64(offset)
	for _, part := range parts {
		for i := 0; i < len(part); i++ {
			h = (h ^ uint64(part[i])) * prime
		}
		h *= prime // the NUL terminator
	}
	return base ^ int64(h)
}

// SessionProb pairs a session with the probability that the query holds on
// it.
type SessionProb struct {
	// Session is the session the probability refers to.
	Session *Session
	// Prob is Pr(Q | session).
	Prob float64
}

// source returns what a groupProbs resolves gr's groups through: with a
// cache, under a method whose answers it stores, gr's cache keys and
// probability column for method m and the engine's cache.
func (e *Engine) source(m Method, gr *Grounded) groupSource {
	src := groupSource{gr: gr}
	if e.Cache != nil && m.cached() {
		src.keys, src.col = gr.cacheKeys(m), gr.column(m, e.Cache)
	}
	return src
}

// GroupedResult reports a DoGrouped call.
type GroupedResult struct {
	// Responses holds one response per request, in request order. Their
	// Solves and CacheHits count each group once, on the first request
	// that references it.
	Responses []*Response
	// Groups, Instances, Solved and CacheHits account for the call's
	// inference groups: the distinct (model, union) groups of all the
	// requests, the group references before dedup (their live sessions),
	// the groups sent to a solver or sampler, and those answered through
	// Engine.Cache, off a grounding's column or from the cache itself
	// (Solved + CacheHits == Groups).
	Groups, Instances, Solved, CacheHits int
}

// RequestError attributes a DoGrouped failure to one of its requests. Its
// text is the cause's.
type RequestError struct {
	// Index is the position of the request whose grounding or fold failed,
	// or of the first request referencing the group whose solve failed.
	Index int
	// Err is the cause.
	Err error
}

// Error returns the cause's text.
func (e *RequestError) Error() string { return e.Err.Error() }

// Unwrap returns the cause.
func (e *RequestError) Unwrap() error { return e.Err }

// DoGrouped answers bool, count, countdist and aggregate requests over the
// engine's database as one unit; Do answers each such request as a call of
// one. The (model, union) inference groups of all the requests are
// deduplicated (the cross-query generalization of the paper's Section 6.4
// grouping; see numberGroups) and each is resolved once, off its
// grounding's probability column, from Engine.Cache or by a solve, so
// exact answers are bit-identical to asking alone. The requests run under
// the engine's Method and default base seed and under ctx; their own
// Method, Seed and Deadline are the caller's to apply, as Do does. A done
// ctx aborts with ctx's error, but MethodAdaptive prices ctx's deadline as
// its budget instead (Engine.start) and routes the groups in their call
// order.
func (e *Engine) DoGrouped(ctx context.Context, crs []*CompiledRequest) (*GroupedResult, error) {
	rn, ctx, cancel := e.start(ctx, MethodAuto, 0, 0)
	defer cancel()
	return e.doGrouped(ctx, rn, crs)
}

// doGrouped is DoGrouped under an evaluation's run.
func (e *Engine) doGrouped(ctx context.Context, rn run, crs []*CompiledRequest) (*GroupedResult, error) {
	res := &GroupedResult{Responses: make([]*Response, len(crs))}

	reqs := make([]groupedReq, len(crs))
	for qi, cr := range crs {
		if err := ctx.Err(); err != nil {
			return nil, context.Cause(ctx)
		}
		rq := &reqs[qi]
		if cr.Kind == KindAggregate {
			vals, err := e.DB.aggValues(cr.AggRel, cr.AggAttr)
			if err != nil {
				return nil, &RequestError{Index: qi, Err: err}
			}
			rq.vals = vals
		} else if cr.Kind != KindBool && cr.Kind != KindCount && cr.Kind != KindCountDist {
			return nil, &RequestError{Index: qi, Err: fmt.Errorf("ppd: grouped evaluation answers bool, count, countdist and aggregate, not %s", cr.Kind)}
		}
		gr, err := e.DB.Ground(ctx, cr.Union)
		if err != nil {
			return nil, &RequestError{Index: qi, Err: err}
		}
		rq.gr = gr
		res.Instances += len(gr.Live)
	}

	gp := e.numberGroups(rn, reqs)
	if err := gp.resolve(ctx, nil, func(gi int, err error) error {
		return &RequestError{Index: gp.request(gi), Err: err}
	}); err != nil {
		return nil, err
	}
	res.Groups, res.Solved, res.CacheHits = len(gp.probs), gp.solves, gp.cacheHits

	// Fold every request. An adaptive plan notes each freshly solved group
	// its request references, matching the propagated half-widths; a cache
	// hit is an exact answer and contributes no width.
	for qi, cr := range crs {
		rq := &reqs[qi]
		gr := rq.gr
		resp := &Response{Kind: cr.Kind}
		res.Responses[qi] = resp
		if rn.method == MethodAdaptive {
			resp.Plan = &PlanStats{}
			for lgi := range gr.Groups {
				if gi := rq.group(lgi); gp.solved[gi] {
					resp.Plan.note(gp.reports[gi])
				}
			}
		}
		if cr.Kind == KindAggregate {
			resp.Agg = gp.aggregate(rq, resp.Plan)
			resp.Count = resp.Agg.Count
			continue
		}
		per := make([]SessionProb, len(gr.Live))
		for i, ls := range gr.Live {
			per[i] = SessionProb{Session: ls.Session, Prob: gp.probs[rq.group(ls.Group)]}
		}
		resp.PerSession = per
		resp.Prob, resp.Count = BoolAggregate(per)
		if resp.Plan != nil { // a cache hit's report is zero: exact, no width
			resp.Plan.propagate(per, func(i int) float64 { return gp.reports[rq.group(gr.Live[i].Group)].HalfWidth })
		}
		if cr.Kind == KindCountDist {
			dist, err := CountDistFromSessions(per, gr.Sessions)
			if err != nil {
				return nil, &RequestError{Index: qi, Err: err}
			}
			resp.Dist = dist
		}
	}
	for gi, solved := range gp.solved {
		if resp := res.Responses[gp.request(gi)]; solved {
			resp.Solves++
		} else {
			resp.CacheHits++
		}
	}
	return res, nil
}

// groupedReq is one request of a DoGrouped call: its grounding, where its
// groups are among the call's, and an aggregate's values.
type groupedReq struct {
	gr   *Grounded
	of   []int // the grounding's group -> the call's; nil: the same index
	vals map[string]float64
}

// group returns the call's index of the request's group lgi.
func (rq *groupedReq) group(lgi int) int {
	if rq.of == nil {
		return lgi
	}
	return rq.of[lgi]
}

// unionOwner is the first grounding of a DoGrouped call over a union key:
// the request that brought it, and the union's index in its grounding, or
// -1 once a second grounding over the key has had the owner's groups over
// it indexed by (model, union).
type unionOwner struct {
	qi int
	ui int32
}

// numberGroups numbers the inference groups of a DoGrouped call and
// returns their resolver. A lone request's groups are its grounding's.
// Otherwise groups are deduplicated across the requests, and each is read
// from the grounding of the first request that references it. Groups of
// one grounding are distinct, so only groups of two groundings over one
// union key can coincide: a grounding asked again shares all its groups,
// one over union keys no earlier grounding has brings only new ones, and
// only the groups over a union key two groundings share are deduplicated
// by (model, union).
func (e *Engine) numberGroups(rn run, reqs []groupedReq) *groupProbs {
	if len(reqs) == 1 {
		return e.newGroupProbs(rn, []groupSource{e.source(rn.method, reqs[0].gr)}, len(reqs[0].gr.Groups), nil, nil)
	}
	seen := make(map[*Grounded]int, len(reqs)) // grounding -> first request over it
	total, unions := 0, 0
	for qi := range reqs {
		if _, ok := seen[reqs[qi].gr]; !ok {
			seen[reqs[qi].gr] = qi
			total, unions = total+len(reqs[qi].gr.Groups), unions+len(reqs[qi].gr.unionAt)
		}
	}
	owners := make(map[string]unionOwner, unions) // union key -> first grounding over it
	var shared map[groupID]int                    // group over a shared union key -> the call's index
	srcs := make([]groupSource, len(reqs))
	first, local := make([]int, 0, total), make([]int32, 0, total)
	for qi := range reqs {
		rq := &reqs[qi]
		gr := rq.gr
		if qj := seen[gr]; qj != qi {
			rq.of = reqs[qj].of
			continue
		}
		srcs[qi] = e.source(rn.method, gr)
		var share []bool // by union of gr: whether an earlier grounding has its key
		for ui, gi := range gr.unionAt {
			key := gr.Groups[gi].id.union
			o, ok := owners[key]
			if !ok {
				owners[key] = unionOwner{qi: qi, ui: int32(ui)}
				continue
			}
			if share == nil {
				share = make([]bool, len(gr.unionAt))
			}
			share[ui] = true
			if o.ui < 0 {
				continue
			}
			if shared == nil {
				shared = make(map[groupID]int)
			}
			og := &reqs[o.qi] // index the owner's groups over the key
			for lgi, u := range og.gr.unionOf {
				if u == o.ui {
					shared[og.gr.Groups[lgi].id] = og.group(lgi)
				}
			}
			owners[key] = unionOwner{qi: o.qi, ui: -1}
		}
		rq.of = make([]int, len(gr.Groups))
		for lgi := range gr.Groups {
			if share != nil && share[gr.unionOf[lgi]] {
				id := gr.Groups[lgi].id
				if gi, ok := shared[id]; ok {
					rq.of[lgi] = gi
					continue
				}
				shared[id] = len(first)
			}
			rq.of[lgi] = len(first)
			first, local = append(first, qi), append(local, int32(lgi))
		}
	}
	return e.newGroupProbs(rn, srcs, len(first), first, local)
}

// BoolAggregate folds per-session probabilities into the Boolean
// confidence Pr(Q | D) = 1 - prod(1 - p) over the independent sessions and
// the Count-Session expectation sum(p). It is the shared aggregation of
// DoGrouped and the coordinator's merge (internal/cluster).
func BoolAggregate(per []SessionProb) (prob, count float64) {
	oneMinus := 1.0
	for _, sp := range per {
		count += sp.Prob
		oneMinus *= 1 - sp.Prob
	}
	return 1 - oneMinus, count
}

// groupProbs resolves the probabilities of distinct groups, each at most
// once: from its grounding's probability column or Engine.Cache when either
// holds the group, by a solve otherwise. DoGrouped, and top-k for the
// groups that are their own bound, resolve a set up front (resolve: one
// sweep of the columns and the cache, then the misses solved together);
// the top-k loop resolves the rest one group at a time, as it needs them
// (prob). Either way solve is where a group is solved, after route under a
// priced deadline.
//
// The groups are read from one or more groundings (srcs): group gi is
// group local[gi] of srcs[first[gi]], or with first nil group gi of
// srcs[0].
type groupProbs struct {
	e       *Engine
	method  Method
	srcs    []groupSource
	first   []int
	local   []int32
	base    int64 // the evaluation's base seed, under a method that may sample
	probs   []float64
	reports []SolveReport   // of the solved groups, for MethodAdaptive's plans; else nil
	done    []bool          // resolved, from a column, the cache or by a solve
	solved  []bool          // resolved by a solve
	routes  []adaptiveRoute // under a priced deadline, the solved groups' routes; else nil
	left    float64         // what the priced deadline has left to route

	solves, cacheHits int
}

// groupSource is a grounding whose groups a groupProbs reads, with their
// cache keys and probability column under the engine's method and cache
// (both nil when groups do not resolve through Engine.Cache; see
// Engine.source). The keys are shared and read-only.
type groupSource struct {
	gr   *Grounded
	keys []string
	col  *probColumn
}

// newGroupProbs resolves n groups read from srcs as first and local say
// (see groupProbs), under rn. Under a method that may sample it takes the
// evaluation's base seed (Engine.baseSeed).
func (e *Engine) newGroupProbs(rn run, srcs []groupSource, n int, first []int, local []int32) *groupProbs {
	gp := &groupProbs{e: e, method: rn.method, srcs: srcs, first: first, local: local, probs: make([]float64, n), done: make([]bool, n), solved: make([]bool, n)}
	if !rn.method.Exact() {
		gp.base = e.baseSeed(rn.seed)
	}
	if rn.method == MethodAdaptive {
		gp.reports = make([]SolveReport, n)
	}
	if rn.priced {
		gp.routes, gp.left = make([]adaptiveRoute, n), rn.budget
	}
	return gp
}

// at returns the source of group gi and the group's index in it.
func (gp *groupProbs) at(gi int) (*groupSource, int) {
	if gp.first == nil {
		return &gp.srcs[0], gi
	}
	return &gp.srcs[gp.first[gi]], int(gp.local[gi])
}

// request returns the index of the source group gi is read from: in
// DoGrouped, the first request referencing it.
func (gp *groupProbs) request(gi int) int {
	if gp.first == nil {
		return 0
	}
	return gp.first[gi]
}

// group returns group gi.
func (gp *groupProbs) group(gi int) Group {
	src, li := gp.at(gi)
	return src.gr.Groups[li]
}

// resolve resolves the groups want selects (every group when want is nil),
// none of them resolved yet: it sweeps the columns and the cache (lookup),
// routes the misses in group order under a priced deadline, then solves
// them concurrently on Engine.Workers. fail attributes a failed solve to
// its group.
func (gp *groupProbs) resolve(ctx context.Context, want func(gi int) bool, fail func(gi int, err error) error) error {
	e := gp.e
	var pending []int
	for gi := range gp.probs {
		if (want == nil || want(gi)) && !gp.lookup(gi) {
			pending = append(pending, gi)
		}
	}
	if len(pending) == 0 {
		return nil
	}
	gp.solves += len(pending)
	for _, gi := range pending {
		gp.route(gi)
	}
	if len(pending) > 1 && e.Plans != nil && gp.method.row().plan != nil {
		// Exact compiled-plan methods: groups sharing a union shape solve as
		// the lanes of one layer walk, bit-identical to per-group solves.
		// Gated on a PlanCache: without one every evaluation would recompile
		// its plans, which costs more than batching saves on small groups.
		bg := make([]BatchGroup, len(pending))
		keys := make([]string, len(pending))
		for pi, gi := range pending {
			g := gp.group(gi)
			bg[pi], keys[pi] = BatchGroup{SM: g.Model, U: g.Union}, g.id.union
		}
		probs, err := e.batchSolveGroups(ctx, gp.method, bg, keys)
		if err != nil {
			return fail(pending[0], err)
		}
		for pi, gi := range pending {
			gp.record(gi, probs[pi], SolveReport{Method: gp.method})
		}
		return nil
	}
	return pool.RunCtx(ctx, len(pending), e.Workers, func(pi int) error {
		gi := pending[pi]
		if _, err := gp.solve(ctx, gi); err != nil {
			return fail(gi, err)
		}
		return nil
	})
}

// lookup answers group gi from its column or, failing that, from
// Engine.Cache, whose answer then fills the column.
func (gp *groupProbs) lookup(gi int) bool {
	src, li := gp.at(gi)
	var (
		p  float64
		ok bool
	)
	if src.col != nil {
		p, ok = src.col.get(li)
	}
	if !ok && src.keys != nil {
		if p, ok = gp.e.Cache.Get(src.keys[li]); ok && src.col != nil {
			src.col.set(li, p)
		}
	}
	if ok {
		gp.probs[gi], gp.done[gi] = p, true
		gp.cacheHits++
	}
	return ok
}

// record stores group gi's solved answer and, when it is exact, caches it
// and fills its column. Calls for distinct groups may run concurrently.
func (gp *groupProbs) record(gi int, p float64, rep SolveReport) {
	gp.probs[gi], gp.done[gi], gp.solved[gi] = p, true, true
	if gp.reports != nil {
		gp.reports[gi] = rep
	}
	if src, li := gp.at(gi); src.keys != nil && !rep.Sampled {
		gp.e.Cache.Put(src.keys[li], p)
		if src.col != nil {
			src.col.set(li, p)
		}
	}
}

// prob returns the probability of group gi, resolving it on first use.
func (gp *groupProbs) prob(ctx context.Context, gi int) (float64, error) {
	if gp.done[gi] || gp.lookup(gi) {
		return gp.probs[gi], nil
	}
	gp.solves++
	gp.route(gi)
	return gp.solve(ctx, gi)
}

// route routes group gi against what a priced deadline has left, if any,
// and charges it the exact price, or when that does not fit the price of
// the group's draws. Groups are routed one at a time as they are resolved,
// so the routes depend on the budget and that order alone.
func (gp *groupProbs) route(gi int) {
	if gp.routes == nil {
		return
	}
	g, e := gp.group(gi), gp.e
	r := e.route(g.Model, g.Union, gp.left)
	price := r.est.States
	if r.plan == nil {
		price = drawPrice(e.adaptiveDraws(r.budget, g.Model.M()), g.Model.M())
	}
	gp.routes[gi], gp.left = r, max(gp.left-price, 0)
}

// solve resolves group gi by a solve, along its route under a priced
// deadline; under a method that may sample, from the group's own stream
// (see streamSeed). Calls for distinct groups may run concurrently.
func (gp *groupProbs) solve(ctx context.Context, gi int) (float64, error) {
	g, e := gp.group(gi), gp.e
	var seed int64
	if !gp.method.Exact() {
		seed = streamSeed(gp.base, g.id.model, g.id.union)
	}
	var (
		p   float64
		rep SolveReport
		err error
	)
	if gp.routes != nil {
		p, rep, err = e.solveRoute(ctx, seed, g.Model, g.Union, gp.routes[gi])
	} else {
		p, rep, err = e.solve(ctx, gp.method, seed, g.Model, g.Union)
	}
	if err != nil {
		return 0, err
	}
	gp.record(gi, p, rep)
	return p, nil
}

// solve answers one group alone under method m. Exact methods apply to any
// RIM-backed session model through its materialization; a method that may
// sample draws from the stream seed seeds. The MIS-AMP estimators are
// Mallows-specific and fall back to the model-generic MISRIM estimator for
// other session models (e.g. Generalized Mallows).
func (e *Engine) solve(ctx context.Context, m Method, seed int64, sm rim.SessionModel, u pattern.Union) (float64, SolveReport, error) {
	rep := SolveReport{Method: m}
	if err := shapeErr(m, u); err != nil {
		return 0, rep, err
	}
	r := m.row()
	if r.exact == nil {
		if r.sampled == nil {
			return 0, rep, m.errUnknown()
		}
		return r.sampled(e, ctx, seed, sm, u)
	}
	p, err := r.exact(sm.Model(), e.DB.Labeling(), u, e.solverOpts(ctx))
	return p, rep, err
}

// solveMISAdaptive answers a group with MIS-AMP-adaptive.
func (e *Engine) solveMISAdaptive(ctx context.Context, seed int64, sm rim.SessionModel, u pattern.Union) (float64, SolveReport, error) {
	rep := SolveReport{Method: MethodMISAdaptive, Sampled: true}
	rng := rand.New(rand.NewSource(seed))
	ml, ok := sm.(*rim.Mallows)
	if !ok {
		return e.solveMISRIM(ctx, rng, sm, u, rep)
	}
	est, err := sampling.NewEstimator(ml, e.DB.Labeling(), u, sampling.Config{})
	if err != nil {
		return 0, rep, err
	}
	r, err := est.EstimateAdaptiveCtx(ctx, sampling.AdaptiveConfig{Compensate: true}, rng)
	if err != nil {
		return 0, rep, err
	}
	return clamp01(r.Estimate), rep, nil
}

// solveMISLite answers a group with MIS-AMP-lite: 5 proposals of 500
// samples each.
func (e *Engine) solveMISLite(ctx context.Context, seed int64, sm rim.SessionModel, u pattern.Union) (float64, SolveReport, error) {
	rep := SolveReport{Method: MethodMISLite, Sampled: true}
	rng := rand.New(rand.NewSource(seed))
	ml, ok := sm.(*rim.Mallows)
	if !ok {
		return e.solveMISRIM(ctx, rng, sm, u, rep)
	}
	est, err := sampling.NewEstimator(ml, e.DB.Labeling(), u, sampling.Config{})
	if err != nil {
		return 0, rep, err
	}
	k := e.knobs()
	p, hw, drawn, err := est.EstimateCI(ctx, k.liteD, k.liteN, rng, true, 1.96)
	if err != nil {
		return 0, rep, err
	}
	rep.Samples, rep.HalfWidth = drawn, hw
	return clamp01(p), rep, nil
}

// solveRejection answers a group by rejection sampling with 10 000 draws.
func (e *Engine) solveRejection(ctx context.Context, seed int64, sm rim.SessionModel, u pattern.Union) (float64, SolveReport, error) {
	n := e.knobs().rejectionN
	rep := SolveReport{Method: MethodRejection, Sampled: true, Samples: n}
	p, hw, err := sampling.RejectionModelCICtx(ctx, sm, e.DB.Labeling(), u, n, 1.96, rand.New(rand.NewSource(seed)))
	if err != nil {
		return 0, rep, err
	}
	rep.HalfWidth = hw
	return p, rep, nil
}

// solveMISRIM is the sampling fallback for non-Mallows session models: 500
// samples.
func (e *Engine) solveMISRIM(ctx context.Context, rng *rand.Rand, sm rim.SessionModel, u pattern.Union, rep SolveReport) (float64, SolveReport, error) {
	p, _, err := sampling.MISRIMCtx(ctx, sm.Model(), e.DB.Labeling(), u, e.knobs().liteN, rng, pattern.Limits{})
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
	// BoundSolves counts upper-bound relaxation solves (0 for the naive
	// strategy, for a repeated query whose bounds are all cached, and for
	// groups that are their own bound; see topKUnion).
	BoundSolves int
	// BoundCacheHits counts relaxation bounds answered from Engine.Cache.
	// BoundSolves + BoundCacheHits is the number of distinct relaxed
	// requests the query's groups bound to.
	BoundCacheHits int
	// ExactSolves counts exact inference calls (after grouping), including
	// those of groups that are their own bound.
	ExactSolves int
	// SessionsEvaluated counts the sessions the candidate loop took an
	// exact probability for before every remaining bound was dominated.
	SessionsEvaluated int
	// CacheHits counts exact probabilities answered through Engine.Cache
	// (off the grounding's column or from the cache itself).
	CacheHits int
}

// topKUnion is the Most-Probable-Session core behind KindTopK: the k
// sessions satisfying the union with the highest probability (Section 3.2).
// With BoundEdges == 0 it evaluates every session exactly and sorts; with
// BoundEdges >= 1 cheap upper bounds from the hardest BoundEdges
// transitive-closure edges of each pattern (Section 4.3.2) prioritize
// sessions, and exact evaluation stops once k sessions are at least as
// probable as every remaining bound. Upper bounds are resolved per distinct
// relaxed request of the grounding (see boundSet), through Engine.Cache
// like any other inference request. Relaxing a two-label pattern keeps it
// whole, so under a method whose row is ownTopKBound a group whose union is
// all two-label is bounded by its exact probability: those groups are
// resolved up front, the cache swept and the misses solved together as
// DoGrouped does (routed first under a priced deadline), and no relaxation
// is built or solved for them.
func (e *Engine) topKUnion(ctx context.Context, rn run, cr *CompiledRequest) (*Response, error) {
	k := cr.K
	if k <= 0 {
		return nil, fmt.Errorf("ppd: top-k requires k >= 1, got %d", k)
	}
	gr, err := e.DB.Ground(ctx, cr.Union)
	if err != nil {
		return nil, err
	}
	diag := &TopKDiag{}
	exact := e.newGroupProbs(rn, []groupSource{e.source(rn.method, gr)}, len(gr.Groups), nil, nil)
	ub := make([]float64, len(gr.Groups)) // upper bound per group
	for gi := range ub {
		ub[gi] = 1
	}
	if cr.BoundEdges > 0 {
		lab := e.DB.Labeling()
		bs := gr.bounds(boundMode{edges: cr.BoundEdges, own: rn.method.row().ownTopKBound}, lab)
		own := func(gi int) bool { return bs.of[gi] < 0 }
		if err := exact.resolve(ctx, own, func(_ int, err error) error { return err }); err != nil {
			return nil, err
		}
		boundOpts := e.solverOpts(ctx)
		vals := make([]float64, len(bs.relaxed))
		for bi, b := range bs.relaxed {
			if e.Cache != nil {
				if p, ok := e.Cache.Get(bs.keys[bi]); ok {
					vals[bi] = p
					diag.BoundCacheHits++
					continue
				}
			}
			// Bound patterns are constraint sets, which the bipartite
			// solver evaluates directly; its satisfied-state pruning suits
			// the easy-to-satisfy relaxations of multi-edge patterns.
			p, err := solver.Bipartite(b.Model.Model(), lab, b.Union, boundOpts)
			if err != nil {
				return nil, err
			}
			vals[bi] = p
			diag.BoundSolves++
			if e.Cache != nil {
				e.Cache.Put(bs.keys[bi], p)
			}
		}
		for gi, bi := range bs.of {
			if bi < 0 {
				ub[gi] = exact.probs[gi]
			} else {
				ub[gi] = vals[bi]
			}
		}
	}
	// Highest upper bound first.
	cands := append([]LiveSession(nil), gr.Live...)
	slices.SortStableFunc(cands, func(a, b LiveSession) int { return cmp.Compare(ub[b.Group], ub[a.Group]) })

	var out []SessionProb
	for _, c := range cands {
		if err := ctx.Err(); err != nil {
			return nil, context.Cause(ctx)
		}
		// out is kept sorted descending and trimmed to k.
		if len(out) >= k && out[len(out)-1].Prob >= ub[c.Group] {
			break // every remaining bound is dominated
		}
		p, err := exact.prob(ctx, c.Group)
		if err != nil {
			return nil, err
		}
		diag.SessionsEvaluated++
		out = append(out, SessionProb{Session: c.Session, Prob: p})
		slices.SortStableFunc(out, func(a, b SessionProb) int { return cmp.Compare(b.Prob, a.Prob) })
		if len(out) > k {
			out = out[:k]
		}
	}
	diag.ExactSolves = exact.solves
	diag.CacheHits = exact.cacheHits
	resp := &Response{
		Kind:      KindTopK,
		Top:       out,
		Diag:      diag,
		Solves:    diag.ExactSolves + diag.BoundSolves,
		CacheHits: diag.CacheHits + diag.BoundCacheHits,
	}
	if exact.reports != nil && exact.solves > 0 {
		resp.Plan = &PlanStats{}
		for gi, solved := range exact.solved {
			if solved {
				resp.Plan.note(exact.reports[gi])
			}
		}
	}
	return resp, nil
}
