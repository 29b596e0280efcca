package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strconv"
	"time"

	"probpref/internal/ppd"
	"probpref/internal/registry"
)

// SessionProbJSON is the wire form of one per-session probability.
type SessionProbJSON struct {
	// Session is the session key (the values of the session attributes).
	Session []string `json:"session"`
	// Prob is the probability the session satisfies the query.
	Prob float64 `json:"prob"`
}

// PlanJSON is the wire form of the adaptive planner's routing report.
type PlanJSON struct {
	// ExactGroups counts the inference groups routed to exact solvers.
	ExactGroups int `json:"exact_groups"`
	// SampledGroups counts the groups routed to sampling.
	SampledGroups int `json:"sampled_groups"`
	// Samples is the total number of samples drawn across sampled groups.
	Samples int `json:"samples"`
	// MaxHalfWidth is the widest 95% confidence half-width of any sampled
	// group.
	MaxHalfWidth float64 `json:"max_half_width"`
	// ProbHalfWidth is the half-width propagated to the probability.
	ProbHalfWidth float64 `json:"prob_half_width"`
	// CountHalfWidth is the half-width propagated to the expected count.
	CountHalfWidth float64 `json:"count_half_width"`
	// Methods counts the groups routed to each named method.
	Methods map[string]int `json:"methods,omitempty"`
}

// EvalResultJSON is the wire form of one evaluation.
type EvalResultJSON struct {
	// Prob is the marginal probability Pr(Q|D).
	Prob float64 `json:"prob"`
	// Count is the expected number of sessions satisfying the query.
	Count float64 `json:"count"`
	// LiveSessions counts sessions with a non-empty grounded union.
	LiveSessions int `json:"live_sessions"`
	// Solves counts the query's freshly solved groups (batch accounting
	// attributes each group to the first query that referenced it).
	Solves int `json:"solves"`
	// CacheHits counts the query's groups answered from the shared cache.
	CacheHits int `json:"cache_hits"`
	// PerSession lists per-session probabilities (with sessions=1 /
	// per_session).
	PerSession []SessionProbJSON `json:"per_session,omitempty"`
	// Plan reports the adaptive planner's routing and confidence
	// half-widths; present only when the service method is "adaptive".
	Plan *PlanJSON `json:"plan,omitempty"`
}

// BatchJSON is the wire form of EvalBatch's dedup accounting.
type BatchJSON struct {
	// Groups counts distinct (model, union) inference groups of the batch.
	Groups int `json:"groups"`
	// Instances counts group references before cross-query dedup.
	Instances int `json:"instances"`
	// Solved counts groups sent to a solver.
	Solved int `json:"solved"`
	// CacheHits counts groups answered from the shared cache.
	CacheHits int `json:"cache_hits"`
}

// EvalResponse is the wire form of POST /eval and GET /eval.
type EvalResponse struct {
	// Results holds one evaluation per query, in request order.
	Results []EvalResultJSON `json:"results"`
	// Batch reports the batch-level dedup accounting.
	Batch BatchJSON `json:"batch"`
}

// EvalRequest is the body of POST /eval.
type EvalRequest struct {
	// Queries are the conjunctive queries (or unions of CQs) to evaluate
	// as one deduplicated batch.
	Queries []string `json:"queries"`
	// Model names the registry model the batch runs against; "" selects
	// DefaultModel. (GET /eval accepts the same value as the model query
	// parameter.)
	Model string `json:"model,omitempty"`
	// PerSession includes per-session probabilities in every result.
	PerSession bool `json:"per_session,omitempty"`
	// TimeoutMS arms a deadline on the batch: with the adaptive method the
	// planner budgets each group from it (degrading to sampling with error
	// bars); with every other method the evaluation aborts when it expires.
	// 0 means no deadline. (GET /eval accepts the same value as the
	// timeout_ms query parameter.)
	TimeoutMS int `json:"timeout_ms,omitempty"`
}

// TopKDiagJSON is the wire form of a top-k diagnostic.
type TopKDiagJSON struct {
	// BoundSolves counts upper-bound relaxation solves.
	BoundSolves int `json:"bound_solves"`
	// BoundCacheHits counts upper bounds answered from the shared cache; a
	// repeated bound-1 top-k reports every bound here and bound_solves 0.
	BoundCacheHits int `json:"bound_cache_hits"`
	// ExactSolves counts exact per-session solves the bounds could not prune.
	ExactSolves int `json:"exact_solves"`
	// SessionsEvaluated counts sessions examined before early termination.
	SessionsEvaluated int `json:"sessions_evaluated"`
	// CacheHits counts solves answered from the shared cache.
	CacheHits int `json:"cache_hits"`
}

// TopKResultJSON is the wire form of one top-k answer.
type TopKResultJSON struct {
	// Top lists the k most probable sessions, best first.
	Top []SessionProbJSON `json:"top"`
	// Diag reports the work the top-k evaluation performed.
	Diag TopKDiagJSON `json:"diag"`
}

// TopKResponse is the wire form of /topk.
type TopKResponse struct {
	// Results holds one answer per query, in request order.
	Results []TopKResultJSON `json:"results"`
}

// TopKRequestJSON is one query of a POST /topk batch.
type TopKRequestJSON struct {
	// Query is the conjunctive query (or union of CQs).
	Query string `json:"query"`
	// K is how many sessions to return (default 3).
	K int `json:"k"`
	// Bound is the number of upper-bound edges (0 = naive).
	Bound int `json:"bound"`
}

// TopKBatchRequest is the body of POST /topk.
type TopKBatchRequest struct {
	// Queries are the top-k requests of the batch.
	Queries []TopKRequestJSON `json:"queries"`
	// Model names the registry model the batch runs against; "" selects
	// DefaultModel. (GET /topk accepts the same value as the model query
	// parameter.)
	Model string `json:"model,omitempty"`
}

// StatsResponse is the wire form of GET /stats. Items and Sessions sum
// over the currently loaded models of the catalog (lazy models not yet
// opened contribute nothing).
type StatsResponse struct {
	// Items sums item-domain sizes over the loaded models.
	Items int `json:"items"`
	// Sessions sums session counts over the loaded models.
	Sessions int `json:"sessions"`
	// Models is the catalog listing, sorted by name.
	Models []registry.Info `json:"models"`
	// Service snapshots the request and cache counters.
	Service Stats `json:"service"`
	// SnapshotErrors counts the registry's failed snapshot writes since
	// startup; a non-zero value means restart recovery depends entirely on
	// the write-ahead log (or, without one, that ingest durability is
	// degraded).
	SnapshotErrors uint64 `json:"snapshot_errors"`
}

// ModelsResponse is the wire form of GET /models: the catalog listing,
// sorted by name.
type ModelsResponse struct {
	// Models is the catalog listing, sorted by name.
	Models []registry.Info `json:"models"`
}

// ModelResponse is the wire form of POST /models and GET /models/{name}:
// one catalog row.
type ModelResponse struct {
	// Model is the requested catalog row.
	Model registry.Info `json:"model"`
}

// DeleteModelResponse is the wire form of DELETE /models/{name}.
type DeleteModelResponse struct {
	// Deleted is the evicted model's name.
	Deleted string `json:"deleted"`
}

type httpError struct {
	status int
	err    error
}

func (e *httpError) Error() string { return e.err.Error() }

// HTTPError wraps err so ServeJSON reports it with the given HTTP status
// instead of the default classification. The cluster coordinator uses it to
// surface upstream shard failures as gateway errors.
func HTTPError(status int, err error) error { return &httpError{status, err} }

// ErrorStatus reports the HTTP status a HTTPError-wrapped error carries
// (ok=false for any other error). The cluster coordinator uses it to tell a
// shard's deterministic rejection, which must propagate, from a transient
// failure, which triggers the replica.
func ErrorStatus(err error) (status int, ok bool) {
	var he *httpError
	if errors.As(err, &he) {
		return he.status, true
	}
	return 0, false
}

// Handler returns the HTTP/JSON front end of the service:
//
//	POST   /v1/query               unified query endpoint: one typed request
//	                               (kind: bool | count | topk | aggregate |
//	                               countdist) or a {"requests": [...]} batch,
//	                               with NDJSON streaming of topk rows via
//	                               "stream"
//	POST   /v1/rows                the same body answered as one packed binary
//	                               frame: the cluster coordinator's hop, not a
//	                               client API (see rows.go)
//	POST   /v1/sessions            append sessions to a model's p-relation
//	                               ({"model","pref","sessions":[...]}); purges
//	                               the model's cache namespaces and, with a
//	                               snapshot directory, persists the growth
//	GET    /eval?q=Q[&sessions=1][&model=M]   evaluate one query (legacy)
//	POST   /eval                   {"queries": [...], "model": M} batch with dedup (legacy)
//	GET    /topk?q=Q&k=K&bound=B[&model=M]    one Most-Probable-Session query (legacy)
//	POST   /topk                   {"queries": [{"query","k","bound"}, ...], "model": M} (legacy)
//	GET    /models                 list the model catalog
//	POST   /models                 register a dataset-backed model (registry.Spec body)
//	GET    /models/{name}          one catalog row
//	DELETE /models/{name}          evict a model (in-flight queries finish first)
//	GET    /stats                  service, catalog and cache statistics
//	GET    /healthz                liveness probe
//
// The legacy /eval and /topk endpoints are thin adapters that build
// ppd.Requests and serve through the same Do path as /v1/query. See
// docs/API.md for the request/response schemas with curl examples.
func (s *Service) Handler() http.Handler {
	mux := http.NewServeMux()
	// The work-bearing endpoints run behind the admission gate (see
	// admission.go); probe and management routes below stay ungated.
	mux.HandleFunc("POST /v1/query", s.gated(s.handleV1Query))
	mux.HandleFunc("POST /v1/rows", s.gated(s.handleV1Rows))
	mux.HandleFunc("POST /v1/sessions", s.gated(func(w http.ResponseWriter, r *http.Request) {
		serveJSON(w, func() (any, error) { return s.handleIngest(r) })
	}))
	mux.HandleFunc("/eval", s.gated(func(w http.ResponseWriter, r *http.Request) {
		serveJSON(w, func() (any, error) { return s.handleEval(r) })
	}))
	mux.HandleFunc("/topk", s.gated(func(w http.ResponseWriter, r *http.Request) {
		serveJSON(w, func() (any, error) { return s.handleTopK(r) })
	}))
	mux.HandleFunc("GET /models", func(w http.ResponseWriter, r *http.Request) {
		serveJSON(w, func() (any, error) {
			return &ModelsResponse{Models: s.reg.List()}, nil
		})
	})
	mux.HandleFunc("POST /models", func(w http.ResponseWriter, r *http.Request) {
		serveJSON(w, func() (any, error) { return s.handleRegisterModel(r) })
	})
	mux.HandleFunc("GET /models/{name}", func(w http.ResponseWriter, r *http.Request) {
		serveJSON(w, func() (any, error) {
			info, err := s.reg.Lookup(r.PathValue("name"))
			if err != nil {
				return nil, err
			}
			return &ModelResponse{Model: info}, nil
		})
	})
	mux.HandleFunc("DELETE /models/{name}", func(w http.ResponseWriter, r *http.Request) {
		serveJSON(w, func() (any, error) {
			name := r.PathValue("name")
			if err := s.DeleteModel(name); err != nil {
				return nil, err
			}
			return &DeleteModelResponse{Deleted: name}, nil
		})
	})
	mux.HandleFunc("/stats", func(w http.ResponseWriter, r *http.Request) {
		serveJSON(w, func() (any, error) {
			models := s.reg.List()
			items, sessions := 0, 0
			for _, m := range models {
				items += m.Items
				sessions += m.Sessions
			}
			return &StatsResponse{
				Items: items, Sessions: sessions, Models: models,
				Service: s.Stats(), SnapshotErrors: s.reg.SnapshotErrors(),
			}, nil
		})
	})
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		fmt.Fprintln(w, "ok")
	})
	return mux
}

// handleRegisterModel serves POST /models: the body is one registry.Spec;
// with preload set the model is built before the response is written, so a
// 200 means the model is ready to serve.
func (s *Service) handleRegisterModel(r *http.Request) (*ModelResponse, error) {
	dec := json.NewDecoder(r.Body)
	dec.DisallowUnknownFields()
	var spec registry.Spec
	if err := dec.Decode(&spec); err != nil {
		return nil, fmt.Errorf("decoding body: %w", err)
	}
	if err := s.reg.Register(spec); err != nil {
		return nil, err
	}
	info, err := s.reg.Lookup(spec.Name)
	if err != nil {
		return nil, err
	}
	return &ModelResponse{Model: info}, nil
}

// handleIngest serves POST /v1/sessions: the body is one IngestRequest; a
// 200 means the sessions are durably part of the model (and of its snapshot
// when a snapshot directory is configured).
func (s *Service) handleIngest(r *http.Request) (*IngestResponse, error) {
	dec := json.NewDecoder(r.Body)
	dec.DisallowUnknownFields()
	var req IngestRequest
	if err := dec.Decode(&req); err != nil {
		return nil, fmt.Errorf("decoding body: %w", err)
	}
	return s.IngestSessions(&req)
}

// ServeJSON runs fn and writes its result as indented JSON, mapping errors
// to statuses: parse/validation failures are the client's fault (400),
// failures while evaluating an accepted request are ours (500), catalog
// misses and collisions get their idiomatic REST statuses, and HTTPError
// overrides win. Every JSON endpoint of the service — and of the cluster
// coordinator, which must stay byte-identical to it — responds through this
// one function.
func ServeJSON(w http.ResponseWriter, fn func() (any, error)) {
	serveJSON(w, fn)
}

func serveJSON(w http.ResponseWriter, fn func() (any, error)) {
	v, err := fn()
	if err != nil {
		// Parse/validation failures are the client's fault (400); failures
		// while evaluating an accepted request are ours (500); catalog
		// misses and collisions get their idiomatic REST statuses.
		status := http.StatusBadRequest
		var he *httpError
		var ee *evalError
		switch {
		case errors.As(err, &he):
			status = he.status
		case errors.Is(err, registry.ErrNotFound):
			status = http.StatusNotFound
		case errors.Is(err, registry.ErrExists):
			status = http.StatusConflict
		case errors.As(err, &ee):
			status = http.StatusInternalServerError
		}
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(status)
		json.NewEncoder(w).Encode(map[string]string{"error": err.Error()})
		return
	}
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v)
}

func (s *Service) handleEval(r *http.Request) (*EvalResponse, error) {
	var req EvalRequest
	switch r.Method {
	case http.MethodGet:
		q := r.URL.Query().Get("q")
		if q == "" {
			return nil, fmt.Errorf("missing q parameter")
		}
		req.Queries = []string{q}
		req.Model = r.URL.Query().Get("model")
		req.PerSession = r.URL.Query().Get("sessions") != ""
		if v := r.URL.Query().Get("timeout_ms"); v != "" {
			ms, err := strconv.Atoi(v)
			if err != nil {
				return nil, fmt.Errorf("bad timeout_ms: %w", err)
			}
			req.TimeoutMS = ms
		}
	case http.MethodPost:
		if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
			return nil, fmt.Errorf("decoding body: %w", err)
		}
		if len(req.Queries) == 0 {
			return nil, fmt.Errorf("empty queries")
		}
	default:
		return nil, &httpError{http.StatusMethodNotAllowed, fmt.Errorf("method %s not allowed", r.Method)}
	}
	if req.TimeoutMS < 0 {
		return nil, fmt.Errorf("timeout_ms must be non-negative")
	}
	// The request context cancels the batch when the client disconnects;
	// timeout_ms additionally arms a deadline the adaptive planner budgets
	// against.
	ctx := r.Context()
	if req.TimeoutMS > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, time.Duration(req.TimeoutMS)*time.Millisecond)
		defer cancel()
	}
	// Legacy adapter: the endpoint re-expresses its queries as unified
	// requests and serves through the same DoBatch path as /v1/query.
	reqs := make([]*ppd.Request, len(req.Queries))
	for i, q := range req.Queries {
		reqs[i] = &ppd.Request{Kind: ppd.KindBool, Query: q, Model: req.Model}
	}
	br, err := s.DoBatch(ctx, reqs)
	if err != nil {
		return nil, err
	}
	resp := &EvalResponse{Batch: BatchJSON{
		Groups:    br.Groups,
		Instances: br.Instances,
		Solved:    br.Solved,
		CacheHits: br.CacheHits,
	}}
	for _, res := range br.Responses {
		resp.Results = append(resp.Results, evalResultJSON(res.EvalResult(), req.PerSession))
	}
	return resp, nil
}

func evalResultJSON(res *ppd.EvalResult, perSession bool) EvalResultJSON {
	out := EvalResultJSON{
		Prob:         res.Prob,
		Count:        res.Count,
		LiveSessions: len(res.PerSession),
		Solves:       res.Solves,
		CacheHits:    res.CacheHits,
	}
	if res.Plan != nil {
		out.Plan = &PlanJSON{
			ExactGroups:    res.Plan.ExactGroups,
			SampledGroups:  res.Plan.SampledGroups,
			Samples:        res.Plan.Samples,
			MaxHalfWidth:   res.Plan.MaxHalfWidth,
			ProbHalfWidth:  res.Plan.ProbHalfWidth,
			CountHalfWidth: res.Plan.CountHalfWidth,
			Methods:        res.Plan.Methods,
		}
	}
	if perSession {
		for _, sp := range res.PerSession {
			out.PerSession = append(out.PerSession, SessionProbJSON{Session: sp.Session.Key, Prob: sp.Prob})
		}
	}
	return out
}

func (s *Service) handleTopK(r *http.Request) (*TopKResponse, error) {
	var reqs []TopKRequest
	var model string
	switch r.Method {
	case http.MethodGet:
		q := r.URL.Query().Get("q")
		if q == "" {
			return nil, fmt.Errorf("missing q parameter")
		}
		model = r.URL.Query().Get("model")
		req := TopKRequest{Query: q, K: 3, Bound: 1}
		var err error
		if v := r.URL.Query().Get("k"); v != "" {
			if req.K, err = strconv.Atoi(v); err != nil {
				return nil, fmt.Errorf("bad k: %w", err)
			}
		}
		if v := r.URL.Query().Get("bound"); v != "" {
			if req.Bound, err = strconv.Atoi(v); err != nil {
				return nil, fmt.Errorf("bad bound: %w", err)
			}
		}
		reqs = []TopKRequest{req}
	case http.MethodPost:
		var body TopKBatchRequest
		if err := json.NewDecoder(r.Body).Decode(&body); err != nil {
			return nil, fmt.Errorf("decoding body: %w", err)
		}
		if len(body.Queries) == 0 {
			return nil, fmt.Errorf("empty queries")
		}
		model = body.Model
		for _, q := range body.Queries {
			reqs = append(reqs, TopKRequest{Query: q.Query, K: q.K, Bound: q.Bound})
		}
	default:
		return nil, &httpError{http.StatusMethodNotAllowed, fmt.Errorf("method %s not allowed", r.Method)}
	}
	for i := range reqs {
		if reqs[i].K == 0 {
			reqs[i].K = 3 // GET and POST share the same default
		}
		if reqs[i].K < 0 || reqs[i].Bound < 0 {
			return nil, fmt.Errorf("query %d: k and bound must be non-negative", i+1)
		}
	}
	// Legacy adapter: the endpoint re-expresses its queries as unified
	// requests and serves through the same DoBatch path as /v1/query.
	dreqs := make([]*ppd.Request, len(reqs))
	for i, tr := range reqs {
		dreqs[i] = &ppd.Request{Kind: ppd.KindTopK, Query: tr.Query, Model: model, K: tr.K, BoundEdges: tr.Bound}
	}
	br, err := s.DoBatch(r.Context(), dreqs)
	if err != nil {
		return nil, err
	}
	resp := &TopKResponse{}
	for _, res := range br.Responses {
		rj := TopKResultJSON{Diag: TopKDiagJSON{
			BoundSolves:       res.Diag.BoundSolves,
			BoundCacheHits:    res.Diag.BoundCacheHits,
			ExactSolves:       res.Diag.ExactSolves,
			SessionsEvaluated: res.Diag.SessionsEvaluated,
			CacheHits:         res.Diag.CacheHits,
		}}
		for _, sp := range res.Top {
			rj.Top = append(rj.Top, SessionProbJSON{Session: sp.Session.Key, Prob: sp.Prob})
		}
		resp.Results = append(resp.Results, rj)
	}
	return resp, nil
}
