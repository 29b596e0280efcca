package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"probpref/internal/consensus"
	"probpref/internal/pattern"
	"probpref/internal/pool"
	"probpref/internal/ppd"
	"probpref/internal/rim"
	"probpref/internal/sampling"
	"probpref/internal/server"
	"probpref/internal/solver"
	"probpref/internal/store"
	"probpref/internal/wal"
)

// This file is the traced run: it runs no child process. For the leading
// ops of a workload's sequence it calls each layer's public entry point
// from here, outermost to innermost, over the same generated database and
// request — "peeling": handler -> Service.Do -> Engine.DoCompiled (with the
// timing cache decorators in place) -> grounding -> CompilePlan/Plan.Solve
// or the samplers -> folds -> encode. Every level runs against its own
// replica of the state below it (its own Service, caches, registry, log),
// and all replicas see the same op sequence, so a level's cache is exactly
// as warm as the level above found it.

// layerDef names one per-layer metric. The list is the contract with
// BENCHMARK.json: a traced run reports every one of them, 0 where the
// workload never reaches the layer.
type layerDef struct {
	name, unit string
	higher     bool
}

var layerDefs = []layerDef{
	{"server.http.self_ms", "ms", false},
	{"server.decode.us", "us", false},
	{"server.encode.us", "us", false},
	{"server.encode.bytes", "bytes", false},
	{"server.do.self_ms", "ms", false},
	{"server.solves_per_req", "count", false},
	{"server.batch8.ms", "ms", false},
	{"server.batch.dedup_ratio", "ratio", true},
	{"server.cache.get_ns", "ns", false},
	{"server.cache.put_ns", "ns", false},
	{"server.cache.hit_ratio", "ratio", true},
	{"server.cache.evictions", "count", false},
	{"server.plancache.get_ns", "ns", false},
	{"server.plancache.hit_ratio", "ratio", true},
	{"server.admission.sheds", "count", false},
	{"server.admission.queued_max", "count", false},
	{"server.ingest.ms", "ms", false},
	{"server.ingest.purged_entries", "count", false},
	{"server.ingest.ack_p95_ms", "ms", false},
	{"server.ingest.read_stall_ms", "ms", false},
	{"ppd.compile.us", "us", false},
	{"ppd.ground.ms", "ms", false},
	{"ppd.ground.groups_per_req", "count", false},
	{"ppd.group.dedup_ratio", "ratio", true},
	{"ppd.union.size_p50", "count", false},
	{"ppd.do.self_ms", "ms", false},
	{"ppd.fold.bool_us", "us", false},
	{"ppd.fold.countdist_us", "us", false},
	{"ppd.fold.aggregate_us", "us", false},
	{"ppd.topk.exact_solves", "count", false},
	{"ppd.topk.sessions_evaluated", "count", false},
	{"solver.compile.us", "us", false},
	{"solver.solve.ms", "ms", false},
	{"solver.batched.ms_per_lane", "ms", false},
	{"solver.solves_per_req", "count", false},
	{"solver.share", "ratio", false},
	{"solver.algo.twolabel.count", "count", false},
	{"solver.algo.bipartite.count", "count", false},
	{"solver.algo.relorder.count", "count", false},
	{"solver.algo.general.count", "count", false},
	{"sampling.rejection.ms", "ms", false},
	{"sampling.rejection.ns_per_draw", "ns", false},
	{"sampling.mislite.overhead_ms", "ms", false},
	{"sampling.mislite.sample_ms", "ms", false},
	{"sampling.accept_ratio", "ratio", true},
	{"sampling.half_width_p50", "ratio", false},
	{"rim.sample.ns", "ns", false},
	{"consensus.rows.ms", "ms", false},
	{"consensus.solve.median_ms", "ms", false},
	{"consensus.solve.topk_ms", "ms", false},
	{"registry.open.ns", "ns", false},
	{"registry.append.self_ms", "ms", false},
	{"wal.append.us", "us", false},
	{"wal.append_nosync.us", "us", false},
	{"wal.fsync.us", "us", false},
	{"wal.bytes_per_batch", "bytes", false},
	{"wal.replay.ms", "ms", false},
	{"wal.open.ms", "ms", false},
	{"store.write.ms", "ms", false},
	{"store.bytes", "bytes", false},
	{"store.open.ms", "ms", false},
	{"store.first_touch.ms", "ms", false},
	{"store.write_amp", "ratio", false},
	{"cluster.http.self_ms", "ms", false},
	{"cluster.fetch.ms", "ms", false},
	{"cluster.bytes_in_per_req", "bytes", false},
	{"cluster.hedge_ratio", "ratio", false},
	{"cluster.hedge_win_ratio", "ratio", true},
	{"cluster.owner_skew", "ratio", false},
	{"cluster.retries", "count", false},
	{"cluster.degraded", "count", false},
	{"hardqd.boot_ms", "ms", false},
	{"hardqd.recovery_ms", "ms", false},
	{"hardqd.rss_peak_mb", "MB", false},
	{"hardqd.cpu_user_s", "s", false},
	{"hardqd.cpu_sys_s", "s", false},
	{"net.loopback_ms", "ms", false},
	{"trace.overhead_ratio", "ratio", false},
}

// nsSep mirrors the service's model-namespace separator: the decorated
// level-2 caches key entries exactly as Service.engine does.
const nsSep = "\x00"

// tracedCache is the timing decorator implementing ppd.SolveCache over a
// server.Cache: every Get and Put is a true child span of the request's
// ppd.do span, and the keys that missed tell the solver replay which groups
// the engine had to solve.
type tracedCache struct {
	ns          string
	c           *server.Cache
	tr          *tracer
	req, parent int

	mu     sync.Mutex
	missed map[string]bool
	hits   int
}

func (t *tracedCache) Get(key string) (float64, bool) {
	start := t.tr.now()
	p, ok := t.c.Get(t.ns + key)
	t.tr.add(t.req, t.parent, "server.cache.get", start, t.tr.now(), nil)
	t.mu.Lock()
	if ok {
		t.hits++
	} else {
		t.missed[key] = true
	}
	t.mu.Unlock()
	return p, ok
}

func (t *tracedCache) Put(key string, p float64) {
	start := t.tr.now()
	t.c.Put(t.ns+key, p)
	t.tr.add(t.req, t.parent, "server.cache.put", start, t.tr.now(), nil)
}

// tracedPlans is the same decorator over server.PlanCache.
type tracedPlans struct {
	ns          string
	c           *server.PlanCache
	tr          *tracer
	req, parent int

	mu           sync.Mutex
	hits, misses int
}

func (t *tracedPlans) Get(key string) (*solver.Plan, bool) {
	start := t.tr.now()
	p, ok := t.c.Get(t.ns + key)
	t.tr.add(t.req, t.parent, "server.plancache.get", start, t.tr.now(), nil)
	t.mu.Lock()
	if ok {
		t.hits++
	} else {
		t.misses++
	}
	t.mu.Unlock()
	return p, ok
}

func (t *tracedPlans) Put(key string, p *solver.Plan) { t.c.Put(t.ns+key, p) }

// peeler holds the replicas and the samples of one traced workload.
type peeler struct {
	w   *workload
	g   *generated
	tr  *tracer
	dir string

	// s0 serves the handler level, s1 the Service.Do level; s2 lends its
	// registry (and, for ingest, its log and snapshot path) to the engine
	// level, whose caches are cache/plans.
	s0, s1, s2 *stack
	cache      *server.Cache
	plans      *server.PlanCache
	cl         *inprocCluster // cluster_hot only: replaces s0
	curCluster atomic.Pointer[clusterReq]

	// The ingest ladder's own logs (fsync always / never) and snapshot file.
	walAlways, walNever *wal.Log
	snapPath            string
	ingested            bool // at least one batch went down the ingest ladder

	// samples collects per-request values by metric name; counts sums.
	mu      sync.Mutex
	samples map[string][]float64
	counts  map[string]float64
	// l0MS holds the outermost span's duration per op (net.loopback_ms).
	l0MS []float64
}

// sample and count are safe from any goroutine: sampler replays run on a
// worker pool and hedged shard fetches outlive the request that sent them.
func (p *peeler) sample(name string, v float64) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.samples[name] = append(p.samples[name], v)
}

func (p *peeler) count(name string, v float64) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.counts[name] += v
}

func nsToMS(ns int64) float64 { return float64(ns) / 1e6 }

// newPeeler builds the replicas for w under dir and brings each to the
// state the daemon has when the measured sequence starts (the warm-up
// pass), without recording spans.
func newPeeler(ctx context.Context, w *workload, g *generated, dir string) (*peeler, error) {
	p := &peeler{
		w: w, g: g, tr: newTracer(), dir: dir,
		samples: make(map[string][]float64), counts: make(map[string]float64),
		cache: server.NewCache(server.DefaultCacheSize), plans: server.NewPlanCache(server.DefaultPlanCacheSize),
	}
	var err error
	if w.cluster {
		if p.cl, err = newInprocCluster(w); err != nil {
			return nil, err
		}
		for _, o := range g.warm {
			if status, body, _ := (handlerTarget{p.cl.handler}).do(o); status != http.StatusOK {
				return nil, fmt.Errorf("trace warm-up: status %d: %s", status, firstLine(body))
			}
		}
		p.cl.transport.inflight.Wait()
		p.cl.transport.begin = p.beginFetch
		return p, nil
	}
	for i, st := range []**stack{&p.s0, &p.s1, &p.s2} {
		if *st, err = newStack(w, filepath.Join(dir, fmt.Sprintf("level%d", i)), false); err != nil {
			return nil, err
		}
	}
	if w.durable {
		if p.walAlways, err = wal.Open(filepath.Join(dir, "wal-always"), wal.Options{Sync: wal.SyncAlways}); err != nil {
			return nil, err
		}
		if p.walNever, err = wal.Open(filepath.Join(dir, "wal-never"), wal.Options{Sync: wal.SyncNever}); err != nil {
			return nil, err
		}
		p.snapPath = filepath.Join(dir, "store", "default.ppds")
		if err := os.MkdirAll(filepath.Dir(p.snapPath), 0o755); err != nil {
			return nil, err
		}
	}
	// Warm the three levels side by side: each pays the same cold solves.
	errs := make([]error, 3)
	var wg sync.WaitGroup
	warm := func(i int, do func(o *op) error) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for _, o := range g.warm {
				if errs[i] = do(o); errs[i] != nil {
					return
				}
			}
		}()
	}
	warm(0, func(o *op) error {
		if status, body, _ := (handlerTarget{p.s0.handler}).do(o); status != http.StatusOK {
			return fmt.Errorf("trace warm-up: status %d: %s", status, firstLine(body))
		}
		return nil
	})
	warm(1, func(o *op) error { _, err := p.serviceCall(ctx, p.s1.svc, o); return err })
	warm(2, func(o *op) error {
		if o.isBatch() {
			return nil // the singles of the pass already solved every group
		}
		_, _, _, err := p.engineCall(ctx, 0, 0, o.reqs[0])
		return err
	})
	wg.Wait()
	p.tr = newTracer() // drop the warm-up's cache spans
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return p, nil
}

func (p *peeler) close() {
	if p.cl != nil {
		p.cl.close()
	}
	for _, st := range []*stack{p.s0, p.s1, p.s2} {
		if st != nil {
			st.close()
		}
	}
	for _, l := range []*wal.Log{p.walAlways, p.walNever} {
		if l != nil {
			l.Close()
		}
	}
}

// typed converts an op's wire requests into ppd.Requests.
func typed(o *op) ([]*ppd.Request, error) {
	reqs := make([]*ppd.Request, len(o.reqs))
	for i := range o.reqs {
		r, err := o.reqs[i].ToRequest()
		if err != nil {
			return nil, err
		}
		reqs[i] = r
	}
	return reqs, nil
}

// serviceCall answers an op through svc.Do, or svc.DoBatch for a batch.
func (p *peeler) serviceCall(ctx context.Context, svc *server.Service, o *op) (*server.DoBatchResult, error) {
	reqs, err := typed(o)
	if err != nil {
		return nil, err
	}
	if o.isBatch() {
		return svc.DoBatch(ctx, reqs)
	}
	resp, err := svc.Do(ctx, reqs[0])
	if err != nil {
		return nil, err
	}
	return &server.DoBatchResult{Responses: []*ppd.Response{resp}}, nil
}

// engineCall answers one request through Engine.DoCompiled on the level-2
// replica, building the engine exactly as Service.engine does but with the
// timing decorators as its caches.
func (p *peeler) engineCall(ctx context.Context, req, parent int, vr server.V1Request) (*ppd.Response, *tracedCache, *tracedPlans, error) {
	r, err := vr.ToRequest()
	if err != nil {
		return nil, nil, nil, err
	}
	cr, err := r.Compile()
	if err != nil {
		return nil, nil, nil, err
	}
	h, err := p.s2.reg.Open(server.DefaultModel)
	if err != nil {
		return nil, nil, nil, err
	}
	defer h.Close()
	tc := &tracedCache{ns: h.Name() + nsSep, c: p.cache, tr: p.tr, req: req, parent: parent, missed: make(map[string]bool)}
	tp := &tracedPlans{ns: h.Name() + nsSep, c: p.plans, tr: p.tr, req: req, parent: parent}
	eng := &ppd.Engine{
		DB: h.DB(), Method: ppd.MethodAuto, Rng: rand.New(rand.NewSource(daemonSeed)),
		Workers: daemonWorkers, Cache: tc, Plans: tp,
	}
	resp, err := eng.DoCompiled(ctx, cr)
	return resp, tc, tp, err
}

// encodeLikeServeJSON renders v the way server.ServeJSON does.
func encodeLikeServeJSON(v any) int {
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetIndent("", "  ")
	enc.Encode(v)
	return buf.Len()
}

// span runs fn as a span under parent and samples its duration under
// metric, in units of perNS nanoseconds (1e3 = us, 1e6 = ms).
func (p *peeler) span(req, parent int, name, metric string, perNS float64, fn func()) int {
	id := p.tr.timed(req, parent, name, func() map[string]float64 { fn(); return nil })
	p.sample(metric, float64(p.tr.durNS(id))/perNS)
	return id
}

// detail is span for a detail span: a root that re-measures a slice of a
// layer's self time in isolation.
func (p *peeler) detail(req int, name, metric string, perNS float64, fn func()) {
	p.span(req, 0, name, metric, perNS, fn)
}

// grounded is one request's grounding, as evalGrounded computes it: the
// live sessions with their unions, and the distinct inference groups.
type grounded struct {
	live   []*ppd.Session
	unions []pattern.Union // aligned with live
	groups []groundedGroup
}

type groundedGroup struct {
	sm  rim.SessionModel
	u   pattern.Union
	key string
}

// missed returns the groups whose cache lookup missed during the request:
// the ones the engine had to hand to a solver or sampler.
func (g *grounded) missed(tc *tracedCache) []groundedGroup {
	var out []groundedGroup
	for _, gr := range g.groups {
		if tc.missed[gr.key] {
			out = append(out, gr)
		}
	}
	return out
}

// ground is the grounding detail span: UnionGrounders + GroundMerged over
// every session, grouped by GroupKey.
func (p *peeler) ground(req int, db *ppd.DB, cr *ppd.CompiledRequest) (*grounded, error) {
	g := &grounded{}
	var err error
	p.detail(req, "ppd.ground", "ppd.ground.ms", 1e6, func() {
		var grounders []*ppd.Grounder
		if grounders, err = ppd.UnionGrounders(db, cr.Union); err != nil {
			return
		}
		seen := make(map[string]bool)
		for _, s := range grounders[0].Pref().Sessions.All() {
			var u pattern.Union
			if u, err = ppd.GroundMerged(grounders, s); err != nil {
				return
			}
			if len(u) == 0 {
				continue
			}
			g.live = append(g.live, s)
			g.unions = append(g.unions, u)
			if key := ppd.GroupKey(cr.Method, s.Model, u); !seen[key] {
				seen[key] = true
				g.groups = append(g.groups, groundedGroup{s.Model, u, key})
			}
		}
	})
	if err != nil {
		return nil, err
	}
	p.sample("ppd.ground.groups_per_req", float64(len(g.groups)))
	if len(g.live) > 0 {
		sizes := make([]float64, len(g.unions))
		for i, u := range g.unions {
			sizes[i] = float64(len(u))
		}
		p.sample("ppd.group.dedup_ratio", float64(len(g.live)-len(g.groups))/float64(len(g.live)))
		p.sample("ppd.union.size_p50", median(sizes))
	}
	return g, nil
}

// peelQuery records one /v1/query op's ladder.
func (p *peeler) peelQuery(ctx context.Context, req int, o *op) error {
	tr := p.tr
	// Level 0: the HTTP handler, end to end.
	var status int
	var body []byte
	id0 := tr.timed(req, 0, "server.http", func() map[string]float64 {
		status, body, _ = (handlerTarget{p.s0.handler}).do(o)
		return map[string]float64{"status": float64(status), "bytes": float64(len(body))}
	})
	if status != http.StatusOK {
		return fmt.Errorf("trace op %d: status %d: %s", req, status, firstLine(body))
	}
	p.l0MS = append(p.l0MS, nsToMS(tr.durNS(id0)))

	// Detail: what the handler does before Service.Do.
	var reqs []*ppd.Request
	var err error
	p.detail(req, "server.decode", "server.decode.us", 1e3, func() {
		dec := json.NewDecoder(bytes.NewReader(o.body))
		dec.DisallowUnknownFields()
		var vb server.V1Body
		dec.Decode(&vb)
		reqs, err = typed(o)
	})
	if err != nil {
		return err
	}

	// Level 1: Service.Do / Service.DoBatch.
	name := "server.do"
	if o.isBatch() {
		name = "server.batch8"
	}
	var br *server.DoBatchResult
	id1 := tr.timed(req, id0, name, func() map[string]float64 {
		br, err = p.serviceCall(ctx, p.s1.svc, o)
		return nil
	})
	if err != nil {
		return err
	}
	// Detail: what the handler does after it.
	p.detail(req, "server.encode", "server.encode.us", 1e3, func() {
		out := &server.V1Response{}
		if o.isBatch() {
			out.Batch = &server.BatchJSON{Groups: br.Groups, Instances: br.Instances, Solved: br.Solved, CacheHits: br.CacheHits}
			for i, resp := range br.Responses {
				out.Results = append(out.Results, server.NewV1Result(resp, o.reqs[i].PerSession))
			}
		} else {
			res := server.NewV1Result(br.Responses[0], o.reqs[0].PerSession)
			out.Result = &res
		}
		p.sample("server.encode.bytes", float64(encodeLikeServeJSON(out)))
	})
	if o.isBatch() {
		p.sample("server.batch8.ms", nsToMS(tr.durNS(id1)))
		if br.Instances > 0 {
			p.sample("server.batch.dedup_ratio", float64(br.Instances-br.Groups)/float64(br.Instances))
		}
		return nil // DoBatch's grouped path has no public entry point below the service
	}

	// Detail: Request.Compile.
	var cr *ppd.CompiledRequest
	p.detail(req, "ppd.compile", "ppd.compile.us", 1e3, func() { cr, err = reqs[0].Compile() })
	if err != nil {
		return err
	}

	// Level 2: Engine.DoCompiled with the cache decorators as true children.
	id2 := tr.reserve(req, id1, "ppd.do", tr.now())
	resp, tc, tp, err := p.engineCall(ctx, req, id2, o.reqs[0])
	tr.finish(id2, tr.now(), nil)
	if err != nil {
		return err
	}
	p.count("cache.hits", float64(tc.hits))
	p.count("cache.misses", float64(len(tc.missed)))
	p.count("plans.hits", float64(tp.hits))
	p.count("plans.misses", float64(tp.misses))
	p.count("request_ns", float64(tr.durNS(id0)))

	h, err := p.s2.reg.Open(server.DefaultModel)
	if err != nil {
		return err
	}
	defer h.Close()
	db := h.DB()
	g, err := p.ground(req, db, cr)
	if err != nil {
		return err
	}
	if err := p.replay(ctx, req, id2, db, cr, resp, g, tc); err != nil {
		return err
	}

	// Detail: the folds.
	switch cr.Kind {
	case ppd.KindBool, ppd.KindCount:
		p.detail(req, "ppd.fold.bool", "ppd.fold.bool_us", 1e3, func() { ppd.BoolAggregate(resp.PerSession) })
	case ppd.KindCountDist:
		probs := make([]float64, len(resp.PerSession))
		for i, sp := range resp.PerSession {
			probs[i] = sp.Prob
		}
		p.detail(req, "ppd.fold.countdist", "ppd.fold.countdist_us", 1e3, func() { ppd.NewCountDistribution(probs) })
	case ppd.KindAggregate:
		p.detail(req, "ppd.fold.aggregate", "ppd.fold.aggregate_us", 1e3, func() { ppd.FoldAggregateRows(resp.Agg.Rows) })
	case ppd.KindTopK:
		p.sample("ppd.topk.exact_solves", float64(resp.Diag.ExactSolves))
		p.sample("ppd.topk.sessions_evaluated", float64(resp.Diag.SessionsEvaluated))
	}
	if len(g.live) > 0 {
		// Detail: raw model sampling, the samplers' inner loop.
		const draws = 2000
		rng := rand.New(rand.NewSource(int64(req)))
		p.detail(req, "rim.sample", "rim.sample.ns", draws, func() {
			for i := 0; i < draws; i++ {
				g.live[0].Model.Sample(rng)
			}
		})
	}
	return nil
}

// replay repeats, as children of the request's ppd.do span (id2), the work
// the engine handed to the layers below it: consensus.Solve on its rows,
// the samplers on the groups its cache missed, or the exact solvers on them
// plus a bound-k top-k's bound relaxations.
func (p *peeler) replay(ctx context.Context, req, id2 int, db *ppd.DB, cr *ppd.CompiledRequest, resp *ppd.Response, g *grounded, tc *tracedCache) error {
	tr := p.tr
	var err error
	switch method := cr.Method; {
	case cr.Kind == ppd.KindConsensus:
		c := resp.Consensus
		id := tr.timed(req, id2, "consensus.solve", func() map[string]float64 {
			_, err = consensus.Solve(c.Rows, consensus.Params{Target: cr.Target, M: db.M(), K: cr.K})
			return map[string]float64{"rows": float64(len(c.Rows))}
		})
		solveMS := nsToMS(tr.durNS(id))
		if cr.Target == consensus.TargetMedian {
			p.sample("consensus.solve.median_ms", solveMS)
		} else {
			p.sample("consensus.solve.topk_ms", solveMS)
		}
		p.sample("consensus.rows.ms", nsToMS(tr.durNS(id2))-solveMS)
		p.count("sampling.draws", float64(c.Samples))
		p.count("sampling.accepts", float64(c.Accepts))
	case method == ppd.MethodRejection, method == ppd.MethodMISLite, method == ppd.MethodAdaptive:
		pending := g.missed(tc)
		tr.timed(req, id2, "sampling."+method.String(), func() map[string]float64 {
			// The engine's own fan-out: a pool of daemonWorkers over the groups.
			err = pool.RunCtx(ctx, len(pending), daemonWorkers, func(i int) error {
				rng := rand.New(rand.NewSource(int64(req)*1000 + int64(i)))
				return p.replaySampler(ctx, method, db, pending[i].sm, pending[i].u, rng)
			})
			return map[string]float64{"groups": float64(len(pending))}
		})
	default:
		start := tr.now()
		var bg []ppd.BatchGroup
		for _, gr := range g.missed(tc) {
			bg = append(bg, ppd.BatchGroup{SM: gr.sm, U: gr.u})
		}
		if err = p.replayExact(req, id2, db, bg); err != nil {
			return err
		}
		solved := len(bg)
		if cr.Kind == ppd.KindTopK && cr.BoundEdges > 0 {
			// The bound relaxations of a bound-k top-k: one bipartite solve
			// per distinct (model, bound union), never cached across calls.
			lab := db.Labeling()
			seen := make(map[string]bool)
			n := 0
			id := tr.timed(req, id2, "solver.bound", func() map[string]float64 {
				for i, s := range g.live {
					bu := pattern.BoundUnion(g.unions[i], s.Model.Reference(), lab, cr.BoundEdges)
					key := ppd.GroupKey(ppd.MethodBipartite, s.Model, bu)
					if seen[key] {
						continue
					}
					seen[key] = true
					if _, err = solver.Bipartite(s.Model.Model(), lab, bu, solver.Options{}); err != nil {
						return nil
					}
					n++
				}
				return map[string]float64{"solves": float64(n)}
			})
			if n > 0 {
				p.sample("solver.solve.ms", nsToMS(tr.durNS(id))/float64(n))
			}
			p.count("solver.algo.bipartite", float64(n))
			solved += n
		}
		p.count("solver.busy_ns", float64(tr.now()-start))
		p.count("solver.solves", float64(solved))
	}
	return err
}

// replayExact re-solves the groups the engine missed in its cache the way
// BatchSolveGroups does: one CompilePlan per union shape, then Plan.Solve
// for a lone group or one SolveSessions walk for several.
func (p *peeler) replayExact(req, parent int, db *ppd.DB, groups []ppd.BatchGroup) error {
	type class struct {
		algo    solver.Algo
		members []int
	}
	var classes []*class
	classOf := make(map[string]*class)
	for gi, g := range groups {
		algo, ok := ppd.PlanAlgo(ppd.MethodAuto, g.U)
		if !ok {
			continue
		}
		key := ppd.PlanKey(algo, g.SM.Reference(), g.U)
		c := classOf[key]
		if c == nil {
			c = &class{algo: algo}
			classOf[key] = c
			classes = append(classes, c)
		}
		c.members = append(c.members, gi)
	}
	tr := p.tr
	lab := db.Labeling()
	for _, c := range classes {
		first := groups[c.members[0]]
		var plan *solver.Plan
		var err error
		p.span(req, parent, "solver.compile", "solver.compile.us", 1e3, func() {
			plan, err = solver.CompilePlan(c.algo, first.SM.Reference(), lab, first.U, solver.Options{})
		})
		if err != nil {
			return err
		}
		p.count("solver.algo."+c.algo.String(), float64(len(c.members)))
		if len(c.members) == 1 {
			p.span(req, parent, "solver.solve", "solver.solve.ms", 1e6, func() {
				_, err = plan.Solve(first.SM.Model(), solver.Options{})
			})
		} else {
			models := make([]*rim.Model, len(c.members))
			for i, gi := range c.members {
				models[i] = groups[gi].SM.Model()
			}
			id := tr.timed(req, parent, "solver.batched", func() map[string]float64 {
				_, err = solver.SolveSessions(plan, models, solver.Options{})
				return map[string]float64{"lanes": float64(len(models))}
			})
			p.sample("solver.batched.ms_per_lane", nsToMS(tr.durNS(id))/float64(len(models)))
		}
		if err != nil {
			return err
		}
	}
	return nil
}

// replaySampler re-estimates one group the way Engine.solve does for the
// method; it runs on the replay's worker pool.
func (p *peeler) replaySampler(ctx context.Context, method ppd.Method, db *ppd.DB, sm rim.SessionModel, u pattern.Union, rng *rand.Rand) error {
	lab := db.Labeling()
	rejection := func(n int) error {
		start := time.Now()
		est, hw, err := sampling.RejectionModelCICtx(ctx, sm, lab, u, n, 1.96, rng)
		if err != nil {
			return err
		}
		d := time.Since(start)
		p.sample("sampling.rejection.ms", float64(d)/1e6)
		p.sample("sampling.rejection.ns_per_draw", float64(d)/float64(n))
		p.sample("sampling.half_width_p50", hw)
		p.count("sampling.draws", float64(n))
		p.count("sampling.accepts", est*float64(n))
		return nil
	}
	switch method {
	case ppd.MethodRejection:
		return rejection(10000) // Engine.RejectionN's default
	case ppd.MethodMISLite:
		ml, ok := sm.(*rim.Mallows)
		if !ok {
			return nil
		}
		est, err := sampling.NewEstimator(ml, lab, u, sampling.Config{})
		if err != nil {
			return err
		}
		_, hw, _, err := est.EstimateCI(ctx, 5, 500, rng, true, 1.96) // Engine.LiteD / LiteN defaults
		if err != nil {
			return err
		}
		p.sample("sampling.mislite.overhead_ms", float64(est.Overhead())/1e6)
		p.sample("sampling.mislite.sample_ms", float64(est.SamplingTime())/1e6)
		p.sample("sampling.half_width_p50", hw)
		return nil
	}
	// Adaptive without a deadline: the planner's default budget decides.
	est := ppd.EstimateCost(sm, lab, u, solver.Options{}.MaxInvolvedLimit())
	if est.States <= ppd.DefaultAdaptiveBudget {
		start := time.Now()
		if _, err := solver.Auto(sm.Model(), lab, u, solver.Options{Ctx: ctx}); err != nil {
			return err
		}
		d := time.Since(start)
		p.sample("solver.solve.ms", float64(d)/1e6)
		p.count("solver.solves", 1)
		p.count("solver.busy_ns", float64(d))
		p.count("solver.algo."+solver.AlgoFor(u).String(), 1)
		return nil
	}
	return rejection(20000) // sampleAdaptive's ceiling at the default budget
}

// peelIngest records one /v1/sessions op's ladder: handler ->
// Service.IngestSessions -> Registry.Append -> Log.Append (fsync always; and
// never, as a detail span) -> store.WriteFileSeq.
func (p *peeler) peelIngest(req int, o *op) error {
	tr := p.tr
	var status int
	var body []byte
	id0 := tr.timed(req, 0, "server.http", func() map[string]float64 {
		status, body, _ = (handlerTarget{p.s0.handler}).do(o)
		return map[string]float64{"status": float64(status)}
	})
	if status != http.StatusOK {
		return fmt.Errorf("trace op %d: ingest status %d: %s", req, status, firstLine(body))
	}
	p.l0MS = append(p.l0MS, nsToMS(tr.durNS(id0)))
	var ir *server.IngestResponse
	var err error
	id1 := p.span(req, id0, "server.ingest", "server.ingest.ms", 1e6, func() {
		ir, err = p.s1.svc.IngestSessions(o.ingest)
	})
	if err != nil {
		return err
	}
	p.sample("server.ingest.purged_entries", float64(ir.PurgedSolves+ir.PurgedPlans))

	parsed, err := ppd.ParseSessionsJSON(o.ingest.Sessions)
	if err != nil {
		return err
	}
	id2 := tr.timed(req, id1, "registry.append", func() map[string]float64 {
		_, err = p.s2.reg.Append(server.DefaultModel, o.ingest.Pref, parsed)
		return nil
	}) // its self time is derived from the span tree
	if err != nil {
		return err
	}
	// The engine level's caches lose the model's namespace, as the
	// service's do.
	p.cache.PurgePrefix(server.DefaultModel + nsSep)
	p.plans.PurgePrefix(server.DefaultModel + nsSep)

	// The registry logs one JSON record per batch.
	payload, err := json.Marshal(map[string]any{"model": server.DefaultModel, "pref": o.ingest.Pref, "sessions": o.ingest.Sessions})
	if err != nil {
		return err
	}
	p.span(req, id2, "wal.append", "wal.append.us", 1e3, func() { _, err = p.walAlways.Append(payload) })
	if err != nil {
		return err
	}
	p.sample("wal.bytes_per_batch", float64(len(payload)))
	p.detail(req, "wal.append_nosync", "wal.append_nosync.us", 1e3, func() { _, err = p.walNever.Append(payload) })
	if err != nil {
		return err
	}

	h, err := p.s2.reg.Open(server.DefaultModel)
	if err != nil {
		return err
	}
	defer h.Close()
	p.span(req, id2, "store.write", "store.write.ms", 1e6, func() {
		err = store.WriteFileSeq(p.snapPath, h.DB(), h.DemoQuery(), uint64(req))
	})
	p.ingested = true
	return err
}

// clusterReq is the coordinator request the transport's round trips
// currently belong to.
type clusterReq struct {
	req, id0 int
	bytesIn  atomic.Int64
}

// beginFetch is the cluster transport's observer: it ties a shard round
// trip to the coordinator request in flight when it started (a hedged
// attempt may finish after that request has been answered).
func (p *peeler) beginFetch(string) func(bytesIn int) {
	cur := p.curCluster.Load()
	start := p.tr.now()
	return func(n int) {
		end := p.tr.now()
		p.tr.add(cur.req, cur.id0, "cluster.fetch", start, end, map[string]float64{"bytes": float64(n)})
		cur.bytesIn.Add(int64(n))
		p.sample("cluster.fetch.ms", nsToMS(end-start))
	}
}

// peelCluster records one op's coordinator ladder: the coordinator handler
// with every shard round trip as a true child.
func (p *peeler) peelCluster(req int, o *op) error {
	tr := p.tr
	cur := &clusterReq{req: req, id0: tr.reserve(req, 0, "cluster.http", tr.now())}
	p.curCluster.Store(cur)
	status, body, _ := (handlerTarget{p.cl.handler}).do(o)
	tr.finish(cur.id0, tr.now(), map[string]float64{"status": float64(status)})
	if status != http.StatusOK {
		return fmt.Errorf("trace op %d: coordinator status %d: %s", req, status, firstLine(body))
	}
	p.l0MS = append(p.l0MS, nsToMS(tr.durNS(cur.id0)))
	p.sample("cluster.bytes_in_per_req", float64(cur.bytesIn.Load()))
	return nil
}
