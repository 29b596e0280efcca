package server

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strconv"
	"sync"

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

// BatchJSON is the wire form of DoBatch's dedup accounting (see
// DoBatchResult).
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
	// WAL is the write-ahead log's account — how far it has got, how much
	// of it no durable snapshot covers yet (what a restart would replay),
	// the checkpoints retiring it, and its sticky failure. Omitted when the
	// registry has no log attached.
	WAL *registry.WALStats `json:"wal,omitempty"`
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
//	                               countdist | consensus) or a {"requests":
//	                               [...]} batch, with NDJSON streaming of
//	                               session rows via "stream"
//	POST   /v1/rows                the same body answered as one packed binary
//	                               frame: the cluster coordinator's hop, not a
//	                               client API (see rows.go)
//	POST   /v1/sessions            append sessions to a model's p-relation
//	                               ({"model","pref","sessions":[...]}); both
//	                               caches stay warm; the growth is logged
//	                               before the ack when the registry has a
//	                               WAL (its snapshot then follows by
//	                               checkpoint), else snapshotted before it
//	GET    /models                 list the model catalog
//	POST   /models                 register a dataset-backed model (registry.Spec body)
//	GET    /models/{name}          one catalog row
//	DELETE /models/{name}          evict a model (in-flight queries finish first)
//	GET    /stats                  service, catalog and cache statistics
//	GET    /healthz                liveness probe; 503 once the WAL failed closed
//
// See docs/API.md for the request/response schemas with curl examples.
func (s *Service) Handler() http.Handler {
	mux := http.NewServeMux()
	// The work-bearing endpoints run behind the admission gate (see
	// admission.go); probe and management routes below stay ungated.
	mux.HandleFunc("POST /v1/query", s.gated(s.handleV1Query))
	mux.HandleFunc("POST /v1/rows", s.gated(s.handleV1Rows))
	mux.HandleFunc("POST /v1/sessions", s.gated(func(w http.ResponseWriter, r *http.Request) {
		serveJSON(w, func() (any, error) { return s.handleIngest(r) })
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
				WAL: s.reg.WALStats(),
			}, nil
		})
	})
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		// A log that failed closed refuses every later ingest: the process
		// is up, but a coordinator must stop counting it as a healthy shard.
		if err := s.reg.WALErr(); err != nil {
			w.WriteHeader(http.StatusServiceUnavailable)
			fmt.Fprintln(w, err)
			return
		}
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
// 200 means the sessions are durably part of the model — in the fsynced
// write-ahead log when one is attached, else in the snapshot when a snapshot
// directory is configured.
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
// overrides win. A result that cannot be encoded (a NaN or infinite float)
// is a 500 too. Every JSON endpoint of the service — and of the cluster
// coordinator, which must stay byte-identical to it — responds through this
// one function.
func ServeJSON(w http.ResponseWriter, fn func() (any, error)) {
	serveJSON(w, fn)
}

// jsonAppender is a result that writes its own indented JSON: the /v1/query
// envelopes of shard and coordinator (see encode.go). Anything else goes
// through encoding/json.
type jsonAppender interface {
	AppendJSON(dst []byte) ([]byte, error)
}

// jsonBufs pools the response buffers of JSON answers and /v1/rows frames;
// one grown past maxPooledJSON is dropped rather than kept for the next
// answer.
var jsonBufs = sync.Pool{New: func() any { return new([]byte) }}

const maxPooledJSON = 1 << 20

func serveJSON(w http.ResponseWriter, fn func() (any, error)) {
	v, err := fn()
	bp := jsonBufs.Get().(*[]byte)
	body := (*bp)[:0]
	if err == nil {
		if a, ok := v.(jsonAppender); ok {
			body, err = a.AppendJSON(body)
		} else {
			buf := bytes.NewBuffer(body)
			enc := json.NewEncoder(buf)
			enc.SetIndent("", "  ")
			err = enc.Encode(v)
			body = buf.Bytes()
		}
		if err != nil {
			err = &evalError{fmt.Errorf("encoding answer: %w", err)}
		}
	}
	w.Header().Set("Content-Type", "application/json")
	if err != nil {
		// Parse/validation failures are the client's fault (400); failures
		// while evaluating an accepted request (or encoding its answer) are
		// ours (500); catalog misses and collisions get their idiomatic REST
		// statuses.
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
		w.WriteHeader(status)
		json.NewEncoder(w).Encode(map[string]string{"error": err.Error()})
	} else {
		w.Header().Set("Content-Length", strconv.Itoa(len(body)))
		w.Write(body)
	}
	if cap(body) <= maxPooledJSON {
		*bp = body[:0]
		jsonBufs.Put(bp)
	}
}
