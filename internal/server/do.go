package server

import (
	"context"
	"errors"
	"fmt"
	"strconv"

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
// request only; Request.Deadline arms a deadline, or the adaptive planner's
// work budget (see ppd.Engine.Do).
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
// order) plus the batch-level inference-group dedup accounting of its
// grouped clusters, summed over their ppd.Engine.DoGrouped calls (all four
// counters stay zero when the batch ran on the per-request fan-out path
// instead).
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
// evaluation-backed request (bool, count, countdist or aggregate) without a
// deadline joins a grouped cluster keyed by its model, effective method and
// effective seed (its own, else Config.Seed), and each cluster is one
// ppd.Engine.DoGrouped call, the grouped evaluation Engine.Do runs for a
// single request: every request of the cluster is grounded, the inference
// groups are deduplicated across the cluster (the cross-query
// generalization of the paper's Section 6.4 grouping), cached results come
// from the shared solve cache, and only the remaining distinct groups are
// solved. Every answer, sampled ones included, is identical to answering
// the request alone: a sampled group draws from a stream keyed by its
// base seed, model and union (see ppd.Engine.Rng). A request's Solves /
// CacheHits attribute each group to the first request of its cluster that
// needed it.
//
// Every other request — topk and consensus kinds, and those carrying a
// deadline — fans out request-by-request on the worker pool. Identical
// fan-out requests (equal compiled Keys, which carry the seed) are answered
// once and share the response. Cross-request sharing between the two paths
// still happens through the shared solve cache.
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
// evaluation-backed kinds only, and no per-request deadline: a deadline is
// one request's budget or timeout, and a grouped cluster shares its groups
// across requests.
func groupEligible(cr *ppd.CompiledRequest) bool {
	switch cr.Kind {
	case ppd.KindBool, ppd.KindCount, ppd.KindCountDist, ppd.KindAggregate:
	default:
		return false
	}
	return cr.Deadline == 0
}

// partitionBatch splits a compiled batch into grouped clusters (eligible
// requests sharing a model, effective method and seed, in request order; a
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
		key := ModelName(cr.Model) + nsSep + s.effMethod(cr).String() + nsSep + strconv.FormatInt(s.effSeed(cr), 10)
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

// effSeed resolves a request's effective sampler seed: its own, or
// Config.Seed when it leaves the seed at 0.
func (s *Service) effSeed(cr *ppd.CompiledRequest) int64 {
	if cr.Seed != 0 {
		return cr.Seed
	}
	return s.cfg.Seed
}

// doBatchGrouped answers one cluster of DoBatch — original request indices
// idx, one model, effective method and seed — as one Engine.DoGrouped call.
// Responses land at their original indices in br and the dedup counters
// accumulate into it.
func (s *Service) doBatchGrouped(ctx context.Context, crs []*ppd.CompiledRequest, idx []int, br *DoBatchResult) error {
	h, err := s.open(crs[idx[0]].Model)
	if err != nil {
		return err
	}
	defer h.Close()
	eng := s.engine(s.effSeed(crs[idx[0]]), h)
	eng.Method = s.effMethod(crs[idx[0]])
	cluster := make([]*ppd.CompiledRequest, len(idx))
	for qi, ri := range idx {
		cluster[qi] = crs[ri]
	}
	res, err := eng.DoGrouped(ctx, cluster)
	var re *ppd.RequestError
	if errors.As(err, &re) {
		err = fmt.Errorf("server: query %d: %w", idx[re.Index]+1, re.Err)
	}
	if err != nil {
		return &evalError{err}
	}
	for qi, ri := range idx {
		br.Responses[ri] = res.Responses[qi]
	}
	br.Groups += res.Groups
	br.Instances += res.Instances
	br.Solved += res.Solved
	br.CacheHits += res.CacheHits
	s.evals.Add(uint64(len(idx)))
	s.solves.Add(uint64(res.Solved))
	return nil
}

// doBatchFanOut is the per-request path of DoBatch: every distinct request
// of idx (original request indices) runs on the worker pool through the
// same engine construction as Do. Requests with identical compiled keys are
// answered once and share the response value. Responses land at their
// original indices in br.
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
		if name := ModelName(crs[ri].Model); handles[name] == nil {
			h, err := s.open(name)
			if err != nil {
				return err
			}
			handles[name] = h
		}
	}
	firstOf := make(map[string]int)
	dupOf := make([]int, len(crs)) // -1 = unique, else index answered for us
	var unique []int
	for _, ri := range idx {
		key := crs[ri].Key()
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
		eng := s.engine(s.cfg.Seed, handles[ModelName(crs[ri].Model)])
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
