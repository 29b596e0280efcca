package server

import (
	"context"
	"sync/atomic"

	"probpref/internal/ppd"
	"probpref/internal/registry"
	"probpref/internal/solver"
)

// DefaultModel is the model name the single-database constructor (New)
// registers its database under, and the name requests that leave the model
// unspecified resolve to.
const DefaultModel = "default"

// Config tunes a Service.
type Config struct {
	// Method selects the per-session inference solver (default MethodAuto).
	Method ppd.Method
	// Workers bounds the worker pool used for batch fan-out and for the
	// per-engine group parallelism of single queries (default 4).
	Workers int
	// CacheSize is the solve-cache capacity in entries; 0 means the default
	// (4096) and a negative value disables the cache.
	CacheSize int
	// PlanCacheSize is the compiled-union-plan cache capacity in entries; 0
	// means the default (512) and a negative value disables the cache.
	// Plans are per union shape, not per session, so a modest capacity
	// covers a large working set of queries.
	PlanCacheSize int
	// Seed seeds the sampling methods (default 1) of every request without
	// its own seed, as ppd.Engine.Rng = ppd.NewRand(Seed): identical
	// requests get identical answers, alone or in a batch, whatever Workers.
	Seed int64
	// MaxInFlight bounds the concurrently admitted query and ingest
	// requests of the HTTP handler; 0 means DefaultMaxInFlight, a negative
	// value disables admission control entirely.
	MaxInFlight int
	// MaxQueue bounds the requests waiting for an admission slot; one more
	// is shed with 503 + Retry-After. 0 means DefaultMaxQueue, a negative
	// value sheds as soon as every slot is busy (no queue).
	MaxQueue int
}

// DefaultCacheSize is the solve-cache capacity used when Config.CacheSize
// is 0.
const DefaultCacheSize = 4096

// DefaultPlanCacheSize is the compiled-plan cache capacity used when
// Config.PlanCacheSize is 0.
const DefaultPlanCacheSize = 512

func (c Config) withDefaults() Config {
	if c.Workers <= 0 {
		c.Workers = 4
	}
	if c.CacheSize == 0 {
		c.CacheSize = DefaultCacheSize
	}
	if c.PlanCacheSize == 0 {
		c.PlanCacheSize = DefaultPlanCacheSize
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	if c.MaxInFlight == 0 {
		c.MaxInFlight = DefaultMaxInFlight
	}
	if c.MaxQueue == 0 {
		c.MaxQueue = DefaultMaxQueue
	}
	if c.MaxQueue < 0 {
		c.MaxQueue = 0
	}
	return c
}

// evalError marks a failure that happened while evaluating an already
// parsed request, as opposed to a parse/validation failure; the HTTP layer
// maps it to a 500 instead of a 400. (Grounding errors inside the engine —
// e.g. a query naming an unknown relation — are conservatively classified
// as evaluation failures too.)
type evalError struct{ err error }

func (e *evalError) Error() string { return e.err.Error() }
func (e *evalError) Unwrap() error { return e.err }

// Stats is a point-in-time snapshot of a Service's activity.
type Stats struct {
	// Evals counts the answered requests of every kind but topk, through Do
	// and DoBatch alike.
	Evals uint64 `json:"evals"`
	// TopKs likewise counts the answered topk requests.
	TopKs uint64 `json:"topks"`
	// Batches counts DoBatch calls.
	Batches uint64 `json:"batches"`
	// Solves counts solver invocations performed on behalf of the service
	// (exact and bound solves, after grouping, dedup and cache hits).
	Solves uint64 `json:"solves"`
	// Cache reports solve-cache probes (zero when disabled). A warm query
	// reads its groups off its memoised grounding and probes nothing, so
	// its hits show in the responses' CacheHits only.
	Cache CacheStats `json:"cache"`
	// PlanCache reports compiled-plan cache effectiveness (zero when
	// disabled). A hit skips recompiling a union shape; the solved
	// probabilities themselves live in Cache.
	PlanCache CacheStats `json:"plan_cache"`
	// Sheds counts requests rejected with 503 by the admission gate.
	Sheds uint64 `json:"sheds"`
	// InFlight is the currently admitted request count (a gauge).
	InFlight int `json:"in_flight"`
	// Queued is the current admission-queue depth (a gauge).
	Queued int `json:"queued"`
}

// Service is a concurrent query front end over a catalog of RIM-PPD
// models: it owns a model registry and a process-wide solve cache shared by
// every request (with keys namespaced per model, so tenants never observe
// each other's entries), and its batch APIs deduplicate inference groups
// across queries before fanning out to a bounded worker pool. All methods
// are safe for concurrent use.
//
// The single-database constructor New serves one model named DefaultModel;
// NewMulti serves every model of a registry and routes each request by its
// model name ("" selects DefaultModel).
type Service struct {
	reg   *registry.Registry
	cache *Cache
	plans *PlanCache
	cfg   Config
	gate  *gate

	evals   atomic.Uint64
	topks   atomic.Uint64
	batches atomic.Uint64
	solves  atomic.Uint64

	// streamRowHook, when non-nil, runs after every NDJSON row the /v1/query
	// streaming path emits, with the request context. Test-only: the
	// cancellation tests use it to hold the stream open until a cancel has
	// provably reached the handler, making mid-stream cut-off deterministic.
	streamRowHook func(ctx context.Context)

	// ingestSwappedHook, when non-nil, runs after IngestSessions has swapped
	// the model's database, with the resolved model name. Test-only: the
	// concurrent-ingest tests use it to order queries around the swap
	// deterministically.
	ingestSwappedHook func(model string)
}

// New builds a Service over the single database db, registered under
// DefaultModel. The db must not be mutated while the service is in use.
func New(db *ppd.DB, cfg Config) *Service {
	reg := registry.New()
	if err := reg.RegisterDB(DefaultModel, db, ""); err != nil {
		// DefaultModel is a valid name and the registry is empty; only a nil
		// db can fail, which is a programming error at the call site.
		panic(err)
	}
	return NewMulti(reg, cfg)
}

// NewMulti builds a Service over a model registry. The registry may keep
// changing while the service runs (manifest preloads, POST /models,
// DELETE /models/{name}); each request opens its model for the duration of
// the evaluation, so deletions never interrupt in-flight queries.
func NewMulti(reg *registry.Registry, cfg Config) *Service {
	cfg = cfg.withDefaults()
	s := &Service{reg: reg, cfg: cfg}
	if cfg.CacheSize > 0 {
		s.cache = NewCache(cfg.CacheSize)
	}
	if cfg.PlanCacheSize > 0 {
		s.plans = NewPlanCache(cfg.PlanCacheSize)
	}
	if cfg.MaxInFlight > 0 {
		s.gate = newGate(cfg.MaxInFlight, cfg.MaxQueue)
	}
	return s
}

// Registry returns the served model catalog.
func (s *Service) Registry() *registry.Registry { return s.reg }

// DB returns the DefaultModel database (nil when no model of that name is
// registered, as in manifest-driven multi-model deployments).
func (s *Service) DB() *ppd.DB {
	h, err := s.reg.Open(DefaultModel)
	if err != nil {
		return nil
	}
	defer h.Close()
	return h.DB()
}

// open resolves a request's model name to a reference-counted handle; the
// caller must Close it when the evaluation finishes.
func (s *Service) open(model string) (*registry.Handle, error) {
	return s.reg.Open(ModelName(model))
}

// ModelName resolves a request's model name: "" means DefaultModel.
func ModelName(model string) string {
	if model == "" {
		return DefaultModel
	}
	return model
}

// Cache returns the shared solve cache (nil when disabled).
func (s *Service) Cache() *Cache { return s.cache }

// PlanCache returns the shared compiled-plan cache (nil when disabled).
func (s *Service) PlanCache() *PlanCache { return s.plans }

// DeleteModel evicts a model from the catalog and purges the model's
// namespace from both caches. The plan purge is for correctness: plan keys
// do not encode the model's labeling (the namespace does), so a model later
// registered under the same name must never inherit the old model's plans.
// The solve purge only reclaims capacity: ppd.GroupKey embeds the session
// model content, so a re-registered model could not collide with stale
// entries, but nothing else would ever drop them short of LRU pressure.
// In-flight queries that already opened the model finish normally — a
// *Plan they hold keeps working after the purge, plans are immutable.
// Deletion is the only purge left: session ingest keeps both namespaces
// (see IngestSessions).
func (s *Service) DeleteModel(name string) error {
	if err := s.reg.Delete(name); err != nil {
		return err
	}
	if s.cache != nil {
		s.cache.PurgePrefix(name + nsSep)
	}
	if s.plans != nil {
		s.plans.PurgePrefix(name + nsSep)
	}
	return nil
}

// Stats snapshots the service counters.
func (s *Service) Stats() Stats {
	st := Stats{
		Evals:   s.evals.Load(),
		TopKs:   s.topks.Load(),
		Batches: s.batches.Load(),
		Solves:  s.solves.Load(),
	}
	if s.cache != nil {
		st.Cache = s.cache.Stats()
	}
	if s.plans != nil {
		st.PlanCache = s.plans.Stats()
	}
	if s.gate != nil {
		st.Sheds = s.gate.sheds.Load()
		st.InFlight = s.gate.inFlight()
		st.Queued = int(s.gate.queued.Load())
	}
	return st
}

// engine builds a request-scoped engine over one opened model, whose base
// seed comes from seed, sharing the service cache under the model's namespace.
func (s *Service) engine(seed int64, h *registry.Handle) *ppd.Engine {
	e := &ppd.Engine{
		DB:      h.DB(),
		Method:  s.cfg.Method,
		Rng:     ppd.NewRand(seed),
		Workers: s.cfg.Workers,
	}
	if s.cache != nil {
		e.Cache = nsLRU[float64]{prefix: h.Name() + nsSep, c: s.cache}
	}
	if s.plans != nil {
		e.Plans = nsLRU[*solver.Plan]{prefix: h.Name() + nsSep, c: s.plans}
	}
	return e
}
