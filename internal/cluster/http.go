package cluster

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"slices"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
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
			base := server.ModelName(r.URL.Query().Get("model"))
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
// served again: whether it is a function of the request. An exact answer
// is; a sampled one is when it carries a seed, because every sampled group
// (consensus: every session) draws from a stream keyed by that seed and by
// what it samples, wherever it runs. A deadline changes neither (the
// adaptive planner prices it as a budget; an exact method's timeout is an
// error), and an unseeded sampled answer depends on the engine's generator.
func cacheable(cr *ppd.CompiledRequest) bool {
	return cr.Method.Exact() || cr.Seed != 0
}

// keysSuffix marks the result-cache entries merged with their rows: the
// shards send session keys only for a per_session or stream request, so an
// entry merged for one kind of caller must never answer the other.
const keysSuffix = nsSep + "rows"

// doSingle answers one request: result cache, then fan-out/merge. The
// result carries its session rows exactly when the client set per_session
// or stream.
func (c *Coordinator) doSingle(ctx context.Context, vr server.V1Request, cr *ppd.CompiledRequest) (*ResultJSON, error) {
	vr.PerSession = vr.PerSession || vr.Stream
	vr.Stream = false
	key := server.ModelName(vr.Model) + nsSep + cr.Key()
	if vr.PerSession {
		key += keysSuffix
	}
	useCache := c.cache != nil && cacheable(cr)
	if useCache {
		if hit, ok := c.cache.Get(key); ok {
			return cachedCopy(hit), nil
		}
	}
	f, err := c.fanout(ctx, []server.V1Request{vr}, false)
	if err != nil {
		return nil, err
	}
	res, err := mergeResults(cr.Kind, cr.K, vr.PerSession, f.parts[0])
	if err != nil {
		return nil, err
	}
	res.Cluster = f.diag
	if f.diag != nil {
		c.degraded.Add(1)
	} else if useCache {
		c.cache.Put(key, res)
	}
	return res, nil
}

// doBatch answers the batch form: one fan-out, then each request's merge.
func (c *Coordinator) doBatch(ctx context.Context, q *server.V1Query) (*ResponseJSON, error) {
	f, err := c.fanout(ctx, q.Body.Requests, true)
	if err != nil {
		return nil, err
	}
	if f.diag != nil {
		c.degraded.Add(1)
	}
	out := &ResponseJSON{Batch: f.batch}
	for i, vr := range q.Body.Requests {
		m, err := mergeResults(q.Compiled[i].Kind, vr.K, vr.PerSession, f.parts[i])
		if err != nil {
			return nil, fmt.Errorf("query %d: %w", i+1, err)
		}
		m.Cluster = f.diag
		out.Results = append(out.Results, *m)
	}
	return out, nil
}

// fanned is what one fan-out collected: parts[i][p] is partition p's answer
// to request i (nil when p failed), batch the shards' summed dedup
// accounting (batch form only), diag the degraded-answer diagnostic.
type fanned struct {
	parts [][]*server.RowsResult
	batch *server.BatchJSON
	diag  *ClusterDiagJSON
}

// fanout posts the client's requests to every partition: one /v1/rows body
// per (base model, partition), each request renamed to the partition's
// model, all concurrently. The body has the inline form for a lone inline
// request and the requests form for a batch — the bodies a single process
// would take for its slice, so shard seeds, counters and dedup stay those
// of the unsplit answer (requests of one model share placement, and
// inference groups never span models). Failures are classified by
// collectFanout.
func (c *Coordinator) fanout(ctx context.Context, reqs []server.V1Request, batch bool) (*fanned, error) {
	n := c.cfg.Partitions
	var models []string
	byModel := map[string][]int{} // request indexes per base model, in order
	for i, vr := range reqs {
		base := server.ModelName(vr.Model)
		if _, ok := byModel[base]; !ok {
			models = append(models, base)
		}
		byModel[base] = append(byModel[base], i)
	}
	// Job j posts model j/n's requests to partition j%n.
	frames := make([]*server.RowsFrame, len(models)*n)
	errs := make([]error, len(frames))
	var wg sync.WaitGroup
	for j := range frames {
		wg.Add(1)
		go func() {
			defer wg.Done()
			idxs, model := byModel[models[j/n]], PartitionModel(models[j/n], j%n)
			var body server.V1Body
			for _, i := range idxs {
				vr := reqs[i]
				vr.Model = model
				if !batch {
					body.V1Request = vr
				} else {
					body.Requests = append(body.Requests, vr)
				}
			}
			data, err := json.Marshal(body)
			if err == nil {
				frames[j], err = c.fetch(ctx, model, data)
			}
			if err == nil && len(frames[j].Results) != len(idxs) {
				err = fmt.Errorf("partition %d answered %d results for %d requests", j%n, len(frames[j].Results), len(idxs))
			}
			errs[j] = err
		}()
	}
	wg.Wait()
	diag, err := collectFanout(errs, n)
	if err != nil {
		return nil, err
	}
	f := &fanned{parts: make([][]*server.RowsResult, len(reqs)), diag: diag}
	for i := range f.parts {
		f.parts[i] = make([]*server.RowsResult, n)
	}
	if batch {
		f.batch = &server.BatchJSON{}
	}
	for j, frame := range frames {
		if errs[j] != nil {
			continue
		}
		for k, i := range byModel[models[j/n]] {
			f.parts[i][j%n] = &frame.Results[k]
		}
		if b := frame.Batch; b != nil && batch {
			f.batch.Groups += b.Groups
			f.batch.Instances += b.Instances
			f.batch.Solved += b.Solved
			f.batch.CacheHits += b.CacheHits
		}
	}
	return f, nil
}

// collectFanout classifies the fan-out's job outcomes (errs[j] is job j's,
// on partition j%n): a deterministic shard rejection (4xx) fails the whole
// fan-out with that status, as a single process rejects the whole body; a
// partition any of whose jobs failed is reported in the degraded-answer
// diagnostic, unless every partition failed, which is a gateway error.
func collectFanout(errs []error, n int) (*ClusterDiagJSON, error) {
	var failed []error
	for j, err := range errs {
		if err == nil {
			continue
		}
		if status, ok := server.ErrorStatus(err); ok && status >= 400 && status < 500 {
			return nil, err
		}
		if failed == nil {
			failed = make([]error, n)
		}
		if failed[j%n] == nil {
			failed[j%n] = err
		}
	}
	var diag *ClusterDiagJSON
	for p, err := range failed {
		if err == nil {
			continue
		}
		if diag == nil {
			diag = &ClusterDiagJSON{Partial: true}
		}
		diag.FailedPartitions = append(diag.FailedPartitions, p)
		diag.Errors = append(diag.Errors, err.Error())
	}
	if diag != nil && len(diag.Errors) == n {
		return nil, server.HTTPError(http.StatusBadGateway,
			fmt.Errorf("all %d partitions failed: %s", n, strings.Join(diag.Errors, "; ")))
	}
	return diag, nil
}

// stream answers one request as NDJSON through the shard's own emitter. The
// merged answer is computed up front — the partitions stream nothing to the
// coordinator — so the coordinator's incremental value is emission, not
// evaluation.
func (c *Coordinator) stream(w http.ResponseWriter, r *http.Request, vr server.V1Request, cr *ppd.CompiledRequest) {
	// The shards evaluate under the forwarded deadline, as unstreamed; armed
	// here from the request's arrival, it also governs emission.
	ctx := r.Context()
	if cr.Deadline > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, cr.Deadline)
		defer cancel()
	}
	res, err := c.doSingle(r.Context(), vr, cr)
	if err != nil {
		server.ServeJSON(w, func() (any, error) { return nil, err })
		return
	}
	head := *res // res may be the cache's: split the rows off a copy
	rows := head.PerSession
	if cr.Kind == ppd.KindTopK {
		rows = head.Top
	}
	head.Top, head.PerSession = nil, nil
	server.StreamNDJSON(ctx, w, &head, rows, nil)
}

// shardCall is one request of callShards: method on path of shard s.
type shardCall struct {
	s            *shard
	method, path string
}

// callShards issues calls in parallel, each under timeout, and hands each
// response to read on the call's goroutine (the body is closed after it).
// errs[i] is call i's transport or read error, naming its shard.
func (c *Coordinator) callShards(ctx context.Context, timeout time.Duration, calls []shardCall, read func(i int, res *http.Response) error) []error {
	errs := make([]error, len(calls))
	var wg sync.WaitGroup
	for i, call := range calls {
		wg.Add(1)
		go func() {
			defer wg.Done()
			cctx, cancel := context.WithTimeout(ctx, timeout)
			defer cancel()
			req, err := http.NewRequestWithContext(cctx, call.method, call.s.url+call.path, nil)
			if err == nil {
				var res *http.Response
				if res, err = c.client.Do(req); err == nil {
					err = read(i, res)
					res.Body.Close()
				}
			}
			if err != nil {
				errs[i] = fmt.Errorf("shard %s: %w", call.s.name, err)
			}
		}()
	}
	wg.Wait()
	return errs
}

// adminTimeout bounds each shard request of a catalog call (deleteModel,
// mergedModels).
const adminTimeout = 30 * time.Second

// deleteModel evicts a base model cluster-wide: every shard is asked to
// delete every partition (owner and replica copies alike; absent copies
// 404 and are ignored) and the coordinator's result cache drops the
// model's namespace — without the purge, a model re-created under the same
// name could be answered from its predecessor's merged results.
func (c *Coordinator) deleteModel(ctx context.Context, name string) (*server.DeleteModelResponse, error) {
	shards, _ := c.members()
	var calls []shardCall
	for _, s := range shards {
		for p := 0; p < c.cfg.Partitions; p++ {
			calls = append(calls, shardCall{s, http.MethodDelete, "/models/" + PartitionModel(name, p)})
		}
	}
	var deleted atomic.Bool
	errs := c.callShards(ctx, adminTimeout, calls, func(i int, res *http.Response) error {
		switch res.StatusCode {
		case http.StatusOK:
			deleted.Store(true)
		case http.StatusNotFound:
			// This shard never held the partition; fine.
		default:
			return fmt.Errorf("delete %s: status %d", strings.TrimPrefix(calls[i].path, "/models/"), res.StatusCode)
		}
		return nil
	})
	// The purge happens regardless of shard outcomes: serving stale merged
	// results is worse than purging for a delete that partially failed.
	if c.cache != nil {
		c.cache.PurgePrefix(name + nsSep)
	}
	for _, err := range errs {
		if err != nil {
			return nil, server.HTTPError(http.StatusBadGateway, err)
		}
	}
	if !deleted.Load() {
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
	calls := make([]shardCall, len(shards))
	for i, s := range shards {
		calls[i] = shardCall{s, http.MethodGet, "/models"}
	}
	lists := make([]*server.ModelsResponse, len(shards))
	errs := c.callShards(ctx, adminTimeout, calls, func(i int, res *http.Response) error {
		var out server.ModelsResponse
		if err := json.NewDecoder(res.Body).Decode(&out); err != nil {
			return fmt.Errorf("decoding models: %w", err)
		}
		lists[i] = &out
		return nil
	})
	if slices.Index(errs, nil) < 0 {
		return nil, server.HTTPError(http.StatusBadGateway, fmt.Errorf("no shard answered /models: %v", errs[0]))
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
