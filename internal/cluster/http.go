package cluster

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"sort"
	"strings"
	"sync"
	"time"

	"probpref/internal/ppd"
	"probpref/internal/registry"
	"probpref/internal/server"
)

// nsSep separates the model namespace from the request key in result-cache
// keys, mirroring the service layer's cache namespaces. NUL cannot appear in
// a registry model name, so purging "model\x00" never clips a neighbor.
const nsSep = "\x00"

// Handler returns the coordinator's HTTP front end:
//
//	POST   /v1/query               unified query endpoint, wire-compatible
//	                               with a shard's: single, batch and NDJSON
//	                               streaming forms, answered by fan-out/merge
//	GET    /models                 merged catalog: partition rows regrouped
//	                               under their base model names
//	DELETE /models/{name}          evict a model cluster-wide: fans the
//	                               delete to every shard and purges the
//	                               coordinator's result cache
//	GET    /cluster/stats          coordinator counters, shard health, cache
//	GET    /cluster/placement      partition → owner/replica routing for a
//	                               model (?model=, "" = default)
//	POST   /cluster/shards         add a shard ({"name","url"}) and rehash
//	DELETE /cluster/shards/{name}  drop a shard and rehash
//	GET    /healthz                liveness probe
//
// Query responses are byte-identical to a single process serving the
// unsplit model whenever every partition answers; a partial fan-out answers
// degraded with a "cluster" diagnostic instead of failing.
func (c *Coordinator) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/query", c.handleQuery)
	mux.HandleFunc("GET /models", func(w http.ResponseWriter, r *http.Request) {
		server.ServeJSON(w, func() (any, error) { return c.mergedModels(r.Context()) })
	})
	mux.HandleFunc("DELETE /models/{name}", func(w http.ResponseWriter, r *http.Request) {
		server.ServeJSON(w, func() (any, error) { return c.deleteModel(r.Context(), r.PathValue("name")) })
	})
	mux.HandleFunc("GET /cluster/stats", func(w http.ResponseWriter, r *http.Request) {
		server.ServeJSON(w, func() (any, error) { return c.Stats(), nil })
	})
	mux.HandleFunc("GET /cluster/placement", func(w http.ResponseWriter, r *http.Request) {
		server.ServeJSON(w, func() (any, error) {
			base := r.URL.Query().Get("model")
			if base == "" {
				base = server.DefaultModel
			}
			return &PlacementResponse{Model: base, Partitions: c.Placement(base)}, nil
		})
	})
	mux.HandleFunc("POST /cluster/shards", func(w http.ResponseWriter, r *http.Request) {
		server.ServeJSON(w, func() (any, error) {
			dec := json.NewDecoder(r.Body)
			dec.DisallowUnknownFields()
			var req ShardRequest
			if err := dec.Decode(&req); err != nil {
				return nil, fmt.Errorf("decoding body: %w", err)
			}
			if err := c.AddShard(ShardConfig{Name: req.Name, URL: req.URL}); err != nil {
				return nil, err
			}
			shards, _ := c.members()
			return &ShardResponse{Shard: req.Name, Shards: len(shards)}, nil
		})
	})
	mux.HandleFunc("DELETE /cluster/shards/{name}", func(w http.ResponseWriter, r *http.Request) {
		server.ServeJSON(w, func() (any, error) {
			name := r.PathValue("name")
			if err := c.RemoveShard(name); err != nil {
				return nil, err
			}
			shards, _ := c.members()
			return &ShardResponse{Shard: name, Shards: len(shards)}, nil
		})
	})
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		fmt.Fprintln(w, "ok")
	})
	return mux
}

// handleQuery serves POST /v1/query: wire-compatible with the shard
// endpoint — the body goes through the shard's own front half,
// server.DecodeV1Query, so both tiers reject a malformed body with the same
// bytes — answered by fanning the request out per partition and merging.
func (c *Coordinator) handleQuery(w http.ResponseWriter, r *http.Request) {
	q, err := server.DecodeV1Query(r.Body)
	if err != nil {
		server.ServeJSON(w, func() (any, error) { return nil, err })
		return
	}
	c.queries.Add(uint64(len(q.Compiled)))
	if q.Body.Stream {
		c.stream(w, r, q.Body.V1Request, q.Compiled[0])
		return
	}
	server.ServeJSON(w, func() (any, error) {
		if q.Batch() {
			return c.doBatch(r.Context(), q)
		}
		res, err := c.doSingle(r.Context(), q.Body.V1Request, q.Compiled[0])
		if err != nil {
			return nil, err
		}
		return &ResponseJSON{Result: res}, nil
	})
}

// cacheable reports whether the request's merged answer may be cached and
// served again: only deterministic exact methods with no per-request seed
// or deadline qualify (a sampled or deadline-shaped answer is not a pure
// function of the request).
func cacheable(cr *ppd.CompiledRequest) bool {
	if cr.Deadline != 0 || cr.Seed != 0 {
		return false
	}
	switch cr.Method {
	case ppd.MethodAuto, ppd.MethodTwoLabel, ppd.MethodBipartite, ppd.MethodGeneral, ppd.MethodRelOrder:
		return true
	}
	return false
}

// keysSuffix marks the result-cache entries merged with their rows: the
// shards send session keys only for a per_session or stream request, so an
// entry merged for one kind of caller must never answer the other.
const keysSuffix = nsSep + "rows"

// doSingle answers one request: result cache, then fan-out/merge. The
// result carries its session rows exactly when the client set per_session
// or stream.
func (c *Coordinator) doSingle(ctx context.Context, vr server.V1Request, cr *ppd.CompiledRequest) (*ResultJSON, error) {
	base := vr.Model
	if base == "" {
		base = server.DefaultModel
	}
	vr.PerSession = vr.PerSession || vr.Stream
	vr.Stream = false
	key := base + nsSep + cr.Key()
	if vr.PerSession {
		key += keysSuffix
	}
	useCache := c.cache != nil && cacheable(cr)
	if useCache {
		if hit, ok := c.cache.Get(key); ok {
			return cachedCopy(hit), nil
		}
	}
	parts, diag, err := c.fanout(ctx, base, vr)
	if err != nil {
		return nil, err
	}
	res, err := mergeResults(cr.Kind, cr.K, vr.PerSession, parts)
	if err != nil {
		return nil, err
	}
	res.Cluster = diag
	if diag != nil {
		c.degraded.Add(1)
	} else if useCache {
		c.cache.Put(key, res)
	}
	return res, nil
}

// fanout posts vr, renamed to each partition's model, to the partition's
// shard and collects the answers indexed by partition. A deterministic shard
// rejection (4xx) fails the whole fan-out with that status; unreachable
// partitions are reported in the degraded-answer diagnostic unless every
// partition failed, which is a gateway error.
func (c *Coordinator) fanout(ctx context.Context, base string, vr server.V1Request) ([]*server.RowsResult, *ClusterDiagJSON, error) {
	n := c.cfg.Partitions
	parts := make([]*server.RowsResult, n)
	errs := make([]error, n)
	var wg sync.WaitGroup
	for p := 0; p < n; p++ {
		wg.Add(1)
		go func(p int, pvr server.V1Request) {
			defer wg.Done()
			pvr.Model = PartitionModel(base, p)
			body, err := json.Marshal(pvr)
			if err != nil {
				errs[p] = err
				return
			}
			frame, err := c.fetch(ctx, pvr.Model, body)
			if err != nil {
				errs[p] = err
				return
			}
			if frame.Batch != nil || len(frame.Results) != 1 {
				errs[p] = fmt.Errorf("shard answer for %s has %d results, want 1", pvr.Model, len(frame.Results))
				return
			}
			parts[p] = &frame.Results[0]
		}(p, vr)
	}
	wg.Wait()
	diag, err := collectFanout(errs)
	return parts, diag, err
}

// collectFanout classifies per-partition outcomes (errs is indexed by
// partition): fatal rejections and total failure become errors, partial
// failure becomes a diagnostic.
func collectFanout(errs []error) (*ClusterDiagJSON, error) {
	var diag *ClusterDiagJSON
	for p, err := range errs {
		if err == nil {
			continue
		}
		if status, ok := server.ErrorStatus(err); ok && status >= 400 && status < 500 {
			// The shard rejected the request deterministically (bad query,
			// unknown model): every partition would, so mirror it.
			return nil, err
		}
		if diag == nil {
			diag = &ClusterDiagJSON{Partial: true}
		}
		diag.FailedPartitions = append(diag.FailedPartitions, p)
		diag.Errors = append(diag.Errors, err.Error())
	}
	if diag != nil && len(diag.Errors) == len(errs) {
		return nil, server.HTTPError(http.StatusBadGateway,
			fmt.Errorf("all %d partitions failed: %s", len(errs), strings.Join(diag.Errors, "; ")))
	}
	return diag, nil
}

// doBatch answers the batch form. The batch is split per distinct base
// model — requests of one model always share placement, and inference
// groups never span models, so splitting preserves the shard-side dedup
// accounting — and each model's sub-batch fans out per partition.
func (c *Coordinator) doBatch(ctx context.Context, q *server.V1Query) (*ResponseJSON, error) {
	body := &q.Body
	// Group request indexes by base model, preserving request order within
	// each group.
	byModel := map[string][]int{}
	var models []string
	for i, vr := range body.Requests {
		base := vr.Model
		if base == "" {
			base = server.DefaultModel
		}
		if _, ok := byModel[base]; !ok {
			models = append(models, base)
		}
		byModel[base] = append(byModel[base], i)
	}
	n := c.cfg.Partitions
	// results[p][i] is partition p's answer to request i (nil on failure).
	results := make([][]*server.RowsResult, n)
	for p := range results {
		results[p] = make([]*server.RowsResult, len(body.Requests))
	}
	partErrs := make([]error, n)
	batch := &server.BatchJSON{}
	var batchMu sync.Mutex
	var wg sync.WaitGroup
	for _, base := range models {
		idxs := byModel[base]
		for p := 0; p < n; p++ {
			wg.Add(1)
			go func(base string, idxs []int, p int) {
				defer wg.Done()
				model := PartitionModel(base, p)
				sub := server.V1Body{}
				for _, i := range idxs {
					pvr := body.Requests[i]
					pvr.Model = model
					sub.Requests = append(sub.Requests, pvr)
				}
				bodyBytes, err := json.Marshal(sub)
				if err != nil {
					batchMu.Lock()
					partErrs[p] = err
					batchMu.Unlock()
					return
				}
				resp, err := c.fetch(ctx, model, bodyBytes)
				if err != nil {
					batchMu.Lock()
					if partErrs[p] == nil {
						partErrs[p] = err
					}
					batchMu.Unlock()
					return
				}
				batchMu.Lock()
				defer batchMu.Unlock()
				if len(resp.Results) != len(idxs) {
					if partErrs[p] == nil {
						partErrs[p] = fmt.Errorf("partition %d answered %d results for a %d-request sub-batch", p, len(resp.Results), len(idxs))
					}
					return
				}
				for j, i := range idxs {
					results[p][i] = &resp.Results[j]
				}
				if resp.Batch != nil {
					batch.Groups += resp.Batch.Groups
					batch.Instances += resp.Batch.Instances
					batch.Solved += resp.Batch.Solved
					batch.CacheHits += resp.Batch.CacheHits
				}
			}(base, idxs, p)
		}
	}
	wg.Wait()
	// Classify per-partition failures across the whole batch the same way
	// the single path does. (A fatal 4xx from any sub-batch rejects the
	// batch, matching a single process rejecting the whole body.)
	diag, err := collectFanout(partErrs)
	if err != nil {
		return nil, err
	}
	if diag != nil {
		c.degraded.Add(1)
	}
	out := &ResponseJSON{Batch: batch}
	for i := range body.Requests {
		sub := make([]*server.RowsResult, n)
		for p := 0; p < n; p++ {
			sub[p] = results[p][i]
		}
		m, err := mergeResults(q.Compiled[i].Kind, body.Requests[i].K, body.Requests[i].PerSession, sub)
		if err != nil {
			return nil, fmt.Errorf("query %d: %w", i+1, err)
		}
		m.Cluster = diag
		out.Results = append(out.Results, *m)
	}
	return out, nil
}

// stream answers one request as NDJSON, byte-compatible with a shard's
// stream: the merged summary line first (session rows elided), then one
// session row per line. The merged answer is computed up front — the
// partitions stream nothing to the coordinator — so the coordinator's
// incremental value is emission, not evaluation; a client disconnect stops
// the stream between rows with a final {"error": ...} line.
func (c *Coordinator) stream(w http.ResponseWriter, r *http.Request, vr server.V1Request, cr *ppd.CompiledRequest) {
	// Mirror the shard: one deadline governs the whole exchange, so the
	// per-request timeout is armed here and not forwarded downstream.
	ctx := r.Context()
	if cr.Deadline > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, cr.Deadline)
		defer cancel()
		vr.TimeoutMS = 0
	}
	res, err := c.doSingle(ctx, vr, cr)
	if err != nil {
		server.ServeJSON(w, func() (any, error) { return nil, err })
		return
	}
	w.Header().Set("Content-Type", "application/x-ndjson")
	enc := json.NewEncoder(w)
	flusher, _ := w.(http.Flusher)
	flush := func() {
		if flusher != nil {
			flusher.Flush()
		}
	}
	rows := res.PerSession
	if cr.Kind == ppd.KindTopK {
		rows = res.Top
	}
	head := *res
	head.Top = nil
	head.PerSession = nil
	enc.Encode(&head)
	flush()
	for _, row := range rows {
		if err := ctx.Err(); err != nil {
			enc.Encode(map[string]string{"error": context.Cause(ctx).Error()})
			flush()
			return
		}
		if err := enc.Encode(row); err != nil {
			return // client gone; stop emitting
		}
		flush()
	}
}

// deleteModel evicts a base model cluster-wide: every shard is asked to
// delete every partition (owner and replica copies alike; absent copies
// 404 and are ignored) and the coordinator's result cache drops the
// model's namespace — without the purge, a model re-created under the same
// name could be answered from its predecessor's merged results.
func (c *Coordinator) deleteModel(ctx context.Context, name string) (*server.DeleteModelResponse, error) {
	shards, _ := c.members()
	type del struct {
		shard *shard
		model string
	}
	var dels []del
	for _, s := range shards {
		for p := 0; p < c.cfg.Partitions; p++ {
			dels = append(dels, del{s, PartitionModel(name, p)})
		}
	}
	deleted := make([]bool, len(dels))
	errs := make([]error, len(dels))
	var wg sync.WaitGroup
	for i, d := range dels {
		wg.Add(1)
		go func(i int, d del) {
			defer wg.Done()
			dctx, cancel := context.WithTimeout(ctx, 30*time.Second)
			defer cancel()
			req, err := http.NewRequestWithContext(dctx, http.MethodDelete, d.shard.url+"/models/"+d.model, nil)
			if err != nil {
				errs[i] = err
				return
			}
			res, err := c.client.Do(req)
			if err != nil {
				errs[i] = fmt.Errorf("shard %s: %w", d.shard.name, err)
				return
			}
			defer res.Body.Close()
			switch {
			case res.StatusCode == http.StatusOK:
				deleted[i] = true
			case res.StatusCode == http.StatusNotFound:
				// This shard never held the partition; fine.
			default:
				errs[i] = fmt.Errorf("shard %s: delete %s: status %d", d.shard.name, d.model, res.StatusCode)
			}
		}(i, d)
	}
	wg.Wait()
	// The purge happens regardless of shard outcomes: serving stale merged
	// results is worse than purging for a delete that partially failed.
	if c.cache != nil {
		c.cache.PurgePrefix(name + nsSep)
	}
	var firstErr error
	any := false
	for i := range dels {
		if deleted[i] {
			any = true
		}
		if errs[i] != nil && firstErr == nil {
			firstErr = errs[i]
		}
	}
	if firstErr != nil {
		return nil, server.HTTPError(http.StatusBadGateway, firstErr)
	}
	if !any {
		return nil, server.HTTPError(http.StatusNotFound, fmt.Errorf("unknown model %q", name))
	}
	return &server.DeleteModelResponse{Deleted: name}, nil
}

// mergedModels lists the cluster catalog: every shard's /models rows,
// deduplicated (a partition lives on its owner and replica), with
// partition rows regrouped under their base model names — sessions sum
// across partitions, the item domain is shared.
func (c *Coordinator) mergedModels(ctx context.Context) (*server.ModelsResponse, error) {
	shards, _ := c.members()
	lists := make([]*server.ModelsResponse, len(shards))
	errs := make([]error, len(shards))
	var wg sync.WaitGroup
	for i, s := range shards {
		wg.Add(1)
		go func(i int, s *shard) {
			defer wg.Done()
			lctx, cancel := context.WithTimeout(ctx, 30*time.Second)
			defer cancel()
			req, err := http.NewRequestWithContext(lctx, http.MethodGet, s.url+"/models", nil)
			if err != nil {
				errs[i] = err
				return
			}
			res, err := c.client.Do(req)
			if err != nil {
				errs[i] = fmt.Errorf("shard %s: %w", s.name, err)
				return
			}
			defer res.Body.Close()
			var out server.ModelsResponse
			if err := json.NewDecoder(res.Body).Decode(&out); err != nil {
				errs[i] = fmt.Errorf("shard %s: decoding models: %w", s.name, err)
				return
			}
			lists[i] = &out
		}(i, s)
	}
	wg.Wait()
	ok := false
	var firstErr error
	for i := range shards {
		if errs[i] == nil {
			ok = true
		} else if firstErr == nil {
			firstErr = errs[i]
		}
	}
	if !ok {
		return nil, server.HTTPError(http.StatusBadGateway, fmt.Errorf("no shard answered /models: %v", firstErr))
	}
	return regroupModels(lists), nil
}

// regroupModels deduplicates shard rows by model name and folds partition
// rows ("base--p<i>") into one row per base model.
func regroupModels(lists []*server.ModelsResponse) *server.ModelsResponse {
	seen := map[string]registry.Info{}
	for _, l := range lists {
		if l == nil {
			continue
		}
		for _, m := range l.Models {
			if prev, ok := seen[m.Name]; !ok || (!prev.Loaded && m.Loaded) {
				seen[m.Name] = m
			}
		}
	}
	grouped := map[string]*registry.Info{}
	var names []string
	for name, m := range seen {
		base, ok := splitPartitionModel(name)
		if !ok {
			base = name
		}
		g, have := grouped[base]
		if !have {
			names = append(names, base)
			info := m
			info.Name = base
			if ok {
				info.Sessions = 0
			}
			grouped[base] = &info
			g = grouped[base]
		}
		if ok {
			g.Sessions += m.Sessions
			g.Loaded = g.Loaded && m.Loaded
			if m.Items > g.Items {
				g.Items = m.Items
			}
		}
	}
	sort.Strings(names)
	out := &server.ModelsResponse{}
	for _, name := range names {
		out.Models = append(out.Models, *grouped[name])
	}
	return out
}

// splitPartitionModel splits a partition model name "base--p<i>" into its
// base, reporting ok=false for names without the partition suffix.
func splitPartitionModel(name string) (base string, ok bool) {
	i := strings.LastIndex(name, "--p")
	if i <= 0 {
		return "", false
	}
	suffix := name[i+len("--p"):]
	if suffix == "" {
		return "", false
	}
	for _, r := range suffix {
		if r < '0' || r > '9' {
			return "", false
		}
	}
	return name[:i], true
}
