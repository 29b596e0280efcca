package server

import (
	"context"
	"fmt"

	"probpref/internal/pool"
	"probpref/internal/ppd"
	"probpref/internal/registry"
)

// This file is the service's unified entry point: Do answers one
// ppd.Request (routing by Request.Model through the registry) and DoBatch
// answers many as one unit, deduplicating inference groups across the
// requests of the batch wherever their compiled forms allow it. The HTTP
// routes compile in their front half (DecodeV1Query) and enter through the
// compiled twins do and doBatch.

// Do answers one request: the request is compiled (validated), routed to
// its model — which stays open, immune to catalog deletion, until the
// evaluation returns — and executed by a request-scoped engine sharing the
// service's solve cache under the model's namespace. Request.Method and
// Request.Seed override the service's configured method and seed for this
// request only; Request.Deadline arms a deadline the adaptive planner
// budgets against.
func (s *Service) Do(ctx context.Context, req *ppd.Request) (*ppd.Response, error) {
	cr, err := req.Compile()
	if err != nil {
		return nil, err
	}
	return s.do(ctx, cr)
}

// do is Do for an already-compiled request.
func (s *Service) do(ctx context.Context, cr *ppd.CompiledRequest) (*ppd.Response, error) {
	h, err := s.open(cr.Model)
	if err != nil {
		return nil, err
	}
	defer h.Close()
	resp, err := s.engine(s.cfg.Seed, h).DoCompiled(ctx, cr)
	if err != nil {
		return nil, &evalError{err}
	}
	s.noteResponse(resp)
	return resp, nil
}

// noteResponse folds one answered request into the service counters.
func (s *Service) noteResponse(resp *ppd.Response) {
	if resp.Kind == ppd.KindTopK {
		s.topks.Add(1)
	} else {
		s.evals.Add(1)
	}
	s.solves.Add(uint64(resp.Solves))
}

// DoBatchResult reports a DoBatch: one Response per request (in request
// order) plus the batch-level inference-group dedup accounting of the
// grouped evaluation path (all four counters stay zero when the batch ran
// on the per-request fan-out path instead).
type DoBatchResult struct {
	// Responses holds one response per request, in request order.
	Responses []*ppd.Response
	// Groups counts distinct (model, union) inference groups across the
	// whole batch.
	Groups int
	// Instances counts group references before cross-request dedup
	// (Instances - Groups were saved by sharing within the batch).
	Instances int
	// Solved counts groups actually sent to a solver.
	Solved int
	// CacheHits counts groups answered from the shared cache.
	// Solved + CacheHits == Groups.
	CacheHits int
}

// DoBatch answers a batch of requests as one unit.
//
// The batch is partitioned per request, not all-or-nothing: every
// evaluation-backed request (bool, count or countdist) without a
// per-request seed or deadline joins a grouped cluster keyed by its (model,
// effective method) pair, and each cluster takes the grouped path — every
// request of the cluster is grounded, the
// per-session inference groups are deduplicated across the cluster (the
// cross-query generalization of the paper's Section 6.4 grouping), cached
// results come from the shared solve cache, and only the remaining distinct
// groups are solved: through one compiled-plan batched walk for the exact
// methods, or on the bounded worker pool otherwise. For the exact methods
// per-request probabilities are identical to answering each request alone;
// for the sampling methods each group's seed derives from its cluster-wide
// group index, so answers are deterministic per batch+seed but can differ
// from a standalone evaluation. A request's Solves / CacheHits attribute
// each group to the first request of its cluster that needed it.
//
// Every other request — topk or aggregate kinds, and the carve-outs
// carrying their own seed or deadline — fans out
// request-by-request on the worker pool; one seeded request no longer
// forces the groupable majority off the grouped path. Identical fan-out
// requests (equal compiled Keys) are answered once and share the response
// when their method is exact (seed-independent); under a sampling method
// they additionally need an explicit shared seed, since each request
// otherwise samples with its own index-derived seed. Cross-request sharing
// between the two paths still happens through the shared solve cache.
func (s *Service) DoBatch(ctx context.Context, reqs []*ppd.Request) (*DoBatchResult, error) {
	crs := make([]*ppd.CompiledRequest, len(reqs))
	for i, r := range reqs {
		cr, err := r.Compile()
		if err != nil {
			return nil, fmt.Errorf("server: query %d: %w", i+1, err)
		}
		crs[i] = cr
	}
	return s.doBatch(ctx, crs)
}

// doBatch is DoBatch for an already-compiled batch.
func (s *Service) doBatch(ctx context.Context, crs []*ppd.CompiledRequest) (*DoBatchResult, error) {
	clusters, fanOut := s.partitionBatch(crs)
	br := &DoBatchResult{Responses: make([]*ppd.Response, len(crs))}
	for _, idx := range clusters {
		if err := s.doBatchGrouped(ctx, crs, idx, br); err != nil {
			return nil, err
		}
	}
	if len(fanOut) > 0 {
		if err := s.doBatchFanOut(ctx, crs, fanOut, br); err != nil {
			return nil, err
		}
	}
	s.batches.Add(1)
	return br, nil
}

// groupEligible reports whether one request may join a grouped cluster:
// evaluation-backed kinds only, and no per-request seed or deadline (the
// grouped path seeds each group from its cluster-wide index and runs under
// the batch context).
func groupEligible(cr *ppd.CompiledRequest) bool {
	switch cr.Kind {
	case ppd.KindBool, ppd.KindCount, ppd.KindCountDist:
	default:
		return false
	}
	return cr.Seed == 0 && cr.Deadline == 0
}

// partitionBatch splits a compiled batch into grouped clusters (eligible
// requests sharing a model and effective method, in request order; a
// singleton cluster still profits from per-session group dedup and cache
// accounting) and the fan-out remainder (ineligible requests, in request
// order). Every request lands in exactly one partition.
func (s *Service) partitionBatch(crs []*ppd.CompiledRequest) (clusters [][]int, fanOut []int) {
	clusterOf := make(map[string]int)
	for ri, cr := range crs {
		if !groupEligible(cr) {
			fanOut = append(fanOut, ri)
			continue
		}
		key := cr.Model + nsSep + s.effMethod(cr).String()
		ci, ok := clusterOf[key]
		if !ok {
			ci = len(clusters)
			clusterOf[key] = ci
			clusters = append(clusters, nil)
		}
		clusters[ci] = append(clusters[ci], ri)
	}
	return clusters, fanOut
}

// effMethod resolves a request's effective solver method: the forced one,
// or the service default when the request leaves it at MethodAuto.
func (s *Service) effMethod(cr *ppd.CompiledRequest) ppd.Method {
	if cr.Method != ppd.MethodAuto {
		return cr.Method
	}
	return s.cfg.Method
}

// seedSensitive reports whether a method's answers depend on the sampler
// seed. Exact methods are deterministic whatever the seed, so identical
// requests can share one answer even when their derived seeds differ.
func seedSensitive(m ppd.Method) bool {
	switch m {
	case ppd.MethodMISAdaptive, ppd.MethodMISLite, ppd.MethodRejection, ppd.MethodAdaptive:
		return true
	}
	return false
}

// doBatchGrouped is the grouped evaluation path of DoBatch, run per
// cluster: take the grounding of every request of idx (original request
// indices, one model and effective method) from the model's database,
// deduplicate the (model, union) inference groups across the cluster,
// resolve cache hits inside the model's namespace, and solve the misses —
// through one compiled-plan batched walk (ppd.BatchSolveGroups) for the
// exact methods, or fanned out to the worker pool otherwise. Responses land
// at their original indices in br and the dedup counters accumulate into
// it.
func (s *Service) doBatchGrouped(ctx context.Context, crs []*ppd.CompiledRequest, idx []int, br *DoBatchResult) error {
	h, err := s.open(crs[idx[0]].Model)
	if err != nil {
		return err
	}
	defer h.Close()
	method := s.effMethod(crs[idx[0]])
	type batchGroup struct {
		ppd.Group
		key   string
		first int // position in idx of the first request referencing the group
	}
	var (
		groupOf = make(map[string]int)
		groups  []batchGroup
		// grounded holds each request's grounding and groupIdx maps its
		// groups to their cluster-wide indices.
		grounded = make([]*ppd.Grounded, len(idx))
		groupIdx = make([][]int, len(idx))
	)
	// With the adaptive method an expired deadline degrades remaining groups
	// to sampling instead of aborting the batch: the grounding loop and the
	// pool fan-out run deadline-detached (cancellation still aborts), while
	// each group's solve sees the original ctx for budgeting.
	adaptive := method == ppd.MethodAdaptive
	loopCtx := ctx
	if adaptive {
		var cancel context.CancelFunc
		loopCtx, cancel = ppd.DetachDeadline(ctx)
		defer cancel()
	}
	for qi, ri := range idx {
		if err := loopCtx.Err(); err != nil {
			return &evalError{context.Cause(loopCtx)}
		}
		gr, err := h.DB().Ground(loopCtx, crs[ri].Union)
		if err != nil {
			return &evalError{fmt.Errorf("server: query %d: %w", ri+1, err)}
		}
		grounded[qi], groupIdx[qi] = gr, make([]int, len(gr.Groups))
		for lgi, g := range gr.Groups {
			key := gr.GroupKey(method, lgi)
			gi, ok := groupOf[key]
			if !ok {
				gi = len(groups)
				groupOf[key] = gi
				groups = append(groups, batchGroup{Group: g, key: key, first: qi})
			}
			groupIdx[qi][lgi] = gi
		}
		br.Instances += len(gr.Live)
	}
	br.Groups += len(groups)

	// Resolve groups from the shared cache (inside the model's namespace),
	// then solve the misses. Sampler seeds derive from the cluster-wide
	// group index (offset by the cluster's first request index, so a batch
	// with one cluster keeps the historical seeds and distinct clusters
	// never share a stream) and answers are deterministic for a fixed
	// Config.Seed regardless of pool scheduling.
	ns := h.Name() + nsSep
	probs := make([]float64, len(groups))
	reports := make([]ppd.SolveReport, len(groups))
	cached := make([]bool, len(groups))
	var pending []int
	for gi := range groups {
		if s.cache != nil {
			if p, ok := s.cache.Get(ns + groups[gi].key); ok {
				probs[gi] = p
				cached[gi] = true
				br.CacheHits++
				continue
			}
		}
		pending = append(pending, gi)
	}
	br.Solved += len(pending)
	seedBase := s.cfg.Seed + int64(idx[0])
	if len(pending) > 1 && ppd.BatchableMethod(method) {
		// Exact compiled-plan methods: solve every pending group through one
		// compile-once / solve-many pass. Plans come from (and fill) the
		// model's plan-cache namespace, groups sharing a union shape fold
		// through one batched layer walk, and results are bit-identical to
		// per-group solves, so this changes only the cost, never the answer.
		eng := s.engine(seedBase, h)
		eng.Method = method
		bgs := make([]ppd.BatchGroup, len(pending))
		for pi, gi := range pending {
			bgs[pi] = ppd.BatchGroup{SM: groups[gi].Model, U: groups[gi].Union}
		}
		bprobs, breps, err := eng.BatchSolveGroups(ctx, bgs)
		if err != nil {
			return &evalError{fmt.Errorf("server: query %d: %w", idx[groups[pending[0]].first]+1, err)}
		}
		for pi, gi := range pending {
			probs[gi], reports[gi] = bprobs[pi], breps[pi]
			if s.cache != nil {
				s.cache.Put(ns+groups[gi].key, bprobs[pi])
			}
		}
	} else {
		err = pool.RunCtx(loopCtx, len(pending), s.cfg.Workers, func(pi int) error {
			gi := pending[pi]
			eng := s.engine(seedBase+int64(gi), h)
			eng.Method = method
			eng.Workers = 1 // the pool is the parallelism
			p, rep, err := eng.SolveUnionCtx(ctx, groups[gi].Model, groups[gi].Union)
			if err != nil {
				return fmt.Errorf("server: query %d: %w", idx[groups[gi].first]+1, err)
			}
			probs[gi] = p
			reports[gi] = rep
			if s.cache != nil {
				s.cache.Put(ns+groups[gi].key, p)
			}
			return nil
		})
		if err != nil {
			return &evalError{err}
		}
	}

	// Aggregate per request with the engine's own aggregation. Solves and
	// CacheHits attribute each group's cost to the first request that
	// referenced it (batch accounting); the adaptive plan instead reflects
	// each request's own view — every distinct freshly-solved group the
	// request references counts toward its routing totals, matching the
	// propagated half-widths, so shared groups appear in every referencing
	// request's plan (cache hits replay a point answer and contribute no
	// width).
	solves := make([]int, len(idx))
	cacheHits := make([]int, len(idx))
	for gi, g := range groups {
		if cached[gi] {
			cacheHits[g.first]++
		} else {
			solves[g.first]++
		}
	}
	for qi, ri := range idx {
		cr := crs[ri]
		live, gidx := grounded[qi].Live, groupIdx[qi]
		per := make([]ppd.SessionProb, len(live))
		hw := make([]float64, len(live))
		for i, ls := range live {
			gi := gidx[ls.Group]
			per[i] = ppd.SessionProb{Session: ls.Session, Prob: probs[gi]}
			if !cached[gi] {
				hw[i] = reports[gi].HalfWidth
			}
		}
		res := ppd.BoolAggregate(per)
		if adaptive {
			// The request's groups are distinct cluster-wide too: its own
			// grouping already merged equal keys.
			plan := ppd.BatchPlan(per, hw)
			for _, gi := range gidx {
				if !cached[gi] {
					plan.Note(reports[gi])
				}
			}
			res.Plan = plan
		}
		res.Solves, res.CacheHits = solves[qi], cacheHits[qi]
		resp := &ppd.Response{
			Kind:       cr.Kind,
			Prob:       res.Prob,
			Count:      res.Count,
			PerSession: res.PerSession,
			Solves:     res.Solves,
			CacheHits:  res.CacheHits,
			Plan:       res.Plan,
		}
		if cr.Kind == ppd.KindCountDist {
			dist, err := ppd.CountDistFromSessions(res.PerSession, grounded[qi].Sessions)
			if err != nil {
				return &evalError{fmt.Errorf("server: query %d: %w", ri+1, err)}
			}
			resp.Dist = dist
		}
		br.Responses[ri] = resp
	}
	s.evals.Add(uint64(len(idx)))
	s.solves.Add(uint64(len(pending)))
	return nil
}

// doBatchFanOut is the per-request path of DoBatch: every distinct request
// of idx (original request indices) runs on the worker pool through the
// same engine construction as Do, with per-request sampler seeds derived
// from the original request index unless the request carries its own seed.
// Requests with identical compiled keys and seeds are answered once and
// share the response value. Responses land at their original indices in br.
func (s *Service) doBatchFanOut(ctx context.Context, crs []*ppd.CompiledRequest, idx []int, br *DoBatchResult) error {
	// Open every distinct model up front so an unknown name fails the batch
	// with its catalog error (404), and so deletions cannot unload a model
	// mid-batch.
	handles := make(map[string]*registry.Handle)
	defer func() {
		for _, h := range handles {
			h.Close()
		}
	}()
	for _, ri := range idx {
		if _, ok := handles[crs[ri].Model]; !ok {
			h, err := s.open(crs[ri].Model)
			if err != nil {
				return err
			}
			handles[crs[ri].Model] = h
		}
	}
	seeds := make([]int64, len(crs))
	firstOf := make(map[string]int)
	dupOf := make([]int, len(crs)) // -1 = unique, else index answered for us
	var unique []int
	for _, ri := range idx {
		cr := crs[ri]
		seeds[ri] = s.cfg.Seed + int64(ri)
		if cr.Seed != 0 {
			seeds[ri] = cr.Seed
		}
		// Exact methods answer independently of the sampler seed, so
		// identical requests share one evaluation even though their derived
		// seeds differ; seed-sensitive methods only dedup on an explicit
		// shared seed (each otherwise samples with its index-derived seed).
		// Consensus requests are always seed-suffixed: even under MethodAuto
		// the engine routes them to sampling when the item count exceeds the
		// exact cap, so their answers may depend on the derived seed.
		key := cr.Key()
		if seedSensitive(s.effMethod(cr)) || cr.Kind == ppd.KindConsensus {
			key = fmt.Sprintf("%s#%d", key, seeds[ri])
		}
		if first, ok := firstOf[key]; ok {
			dupOf[ri] = first
			continue
		}
		firstOf[key] = ri
		dupOf[ri] = -1
		unique = append(unique, ri)
	}
	// As on the grouped path: with the adaptive method an expired deadline
	// degrades per-request groups to sampling instead of aborting the
	// fan-out.
	adaptive := s.cfg.Method == ppd.MethodAdaptive
	for _, ri := range idx {
		if crs[ri].Method == ppd.MethodAdaptive {
			adaptive = true
		}
	}
	loopCtx := ctx
	if adaptive {
		var cancel context.CancelFunc
		loopCtx, cancel = ppd.DetachDeadline(ctx)
		defer cancel()
	}
	err := pool.RunCtx(loopCtx, len(unique), s.cfg.Workers, func(pi int) error {
		ri := unique[pi]
		eng := s.engine(seeds[ri], handles[crs[ri].Model])
		eng.Workers = 1 // the pool is the parallelism
		resp, err := eng.DoCompiled(ctx, crs[ri])
		if err != nil {
			return fmt.Errorf("server: query %d: %w", ri+1, err)
		}
		br.Responses[ri] = resp
		return nil
	})
	if err != nil {
		return &evalError{err}
	}
	for _, ri := range idx {
		if first := dupOf[ri]; first >= 0 {
			br.Responses[ri] = br.Responses[first]
		}
	}
	for _, ri := range idx {
		resp := br.Responses[ri]
		if resp.Kind == ppd.KindTopK {
			s.topks.Add(1)
		} else {
			s.evals.Add(1)
		}
		// Deduplicated aliases share one evaluation; count its solver work
		// once, not per referencing request.
		if dupOf[ri] < 0 {
			s.solves.Add(uint64(resp.Solves))
		}
	}
	return nil
}
