// Package probpref supports hard queries over probabilistic preferences: it
// is a from-scratch Go implementation of the RIM-PPD framework of Ping,
// Stoyanovich and Kimelfeld, "Supporting Hard Queries over Probabilistic
// Preferences" (PVLDB 13(7), 2020).
//
// A probabilistic preference database (PPD) combines ordinary relations
// with preference relations whose sessions carry statistical ranking models
// — Mallows models, and more generally Repeated Insertion Models (RIM).
// Query evaluation under possible-world semantics reduces to an inference
// problem: computing the marginal probability that a random ranking matches
// a union of label patterns. This package exposes:
//
//   - the ranking substrate: rankings, partial orders, Kendall tau
//     (Ranking, PartialOrder, KendallTau);
//   - the generative models: RIM, Mallows, and the AMP posterior sampler
//     (RIMModel, Mallows, AMP);
//   - label patterns and pattern unions (Pattern, Union);
//   - the exact solvers of the paper — two-label (Algorithm 3), bipartite
//     (Algorithm 4), general inclusion-exclusion, and a relative-order
//     solver for arbitrary patterns (SolveTwoLabel, SolveBipartite,
//     SolveGeneral, SolveRelOrder, SolveAuto);
//   - the approximate solvers — rejection sampling, IS-AMP, MIS-AMP, and
//     the MIS-AMP-lite/-adaptive estimators with sub-ranking and modal
//     compensation (Rejection, NewEstimator);
//   - the database layer: schema, the datalog-style conjunctive query
//     parser, the grounding procedure for hard (non-itemwise) queries, and
//     the evaluator for Boolean, Count-Session and Most-Probable-Session
//     queries (DB, ParseQuery, Engine);
//   - deterministic generators for the paper's experimental workloads
//     (package internal/dataset, surfaced through the examples and the
//     cmd/experiments tool);
//   - exact marginal analytics — position distributions, pairwise
//     preference matrices, Condorcet/Copeland/Borda summaries
//     (PairwiseMatrix, RankMarginals, CondorcetWinner);
//   - Count-Session distributions (KindCountDist) and union queries — a
//     "|"-separated Request.Query, or ParseUnionQuery's disjuncts as
//     Request.Queries;
//   - preference models beyond plain Mallows — GeneralizedMallows (a RIM;
//     exact solvers apply) and PlackettLuce (queried through sampling);
//   - learning: FitMallows and FitMixture recover Mallows models and
//     mixtures from observed rankings by Kemeny search and EM;
//   - the concurrent query service layer: a process-wide sharded LRU solve
//     cache shared across queries (NewSolveCache, Engine.Cache), and a
//     Service with batch APIs that deduplicate inference groups across the
//     queries of a batch and serve an HTTP/JSON front end (NewService,
//     Service.Handler, cmd/hardqd);
//   - deadline-aware adaptive planning: the context of every Do call
//     threads cancellation down to solver DP layers and sampling rounds, and
//     MethodAdaptive prices each inference group's exact solve off its
//     compiled plan and buys it when the price fits the budget — what is
//     left of the deadline, priced once as work when the evaluation starts
//     and spent by the groups in a fixed order, or without one the price of
//     the sampled answer — and otherwise samples with reported confidence
//     half-widths (EstimateCost, PlanStats, Response.Plan);
//   - the model registry: a concurrent named catalog of dataset-backed
//     models with lazy builds, startup manifests and reference-counted
//     eviction, served simultaneously by a multi-model Service whose
//     shared solve cache namespaces keys per model (NewRegistry,
//     OpenDataset, NewMultiService, cmd/hardqd -manifest);
//   - the query API: one typed Request (Kind: bool | count | topk |
//     aggregate | countdist | consensus) validated by Request.Compile and
//     answered through the one entry point of each layer — Engine.Do,
//     Service.Do and Service.DoBatch, and the daemon's versioned
//     POST /v1/query endpoint with NDJSON streaming of session rows
//     (Request, Response, Kind, ParseKind).
//
// # Quick start
//
//	db, _ := probpref.Figure1()
//	eng := &probpref.Engine{DB: db, Method: probpref.MethodAuto}
//	resp, _ := eng.Do(context.Background(), &probpref.Request{
//		Kind:  probpref.KindBool,
//		Query: `P(_, _; c1; c2), C(c1, _, F, _, _, _), C(c2, _, M, _, _, _)`,
//	})
//	fmt.Println(resp.Prob) // probability a female candidate is preferred to a male one
//
// See the examples directory for end-to-end programs, docs/ARCHITECTURE.md
// for the layer-by-layer walkthrough of the serving stack, docs/API.md for
// the daemon's HTTP endpoint reference, and internal/experiment for the
// reproduction of the figures of the paper's evaluation.
package probpref

import (
	"probpref/internal/consensus"
	"probpref/internal/dataset"
	"probpref/internal/label"
	"probpref/internal/pattern"
	"probpref/internal/ppd"
	"probpref/internal/rank"
	"probpref/internal/registry"
	"probpref/internal/rim"
	"probpref/internal/sampling"
	"probpref/internal/server"
	"probpref/internal/solver"
)

// Ranking substrate.
type (
	// Item identifies a ranked item.
	Item = rank.Item
	// Ranking is a linear order of items (position 0 most preferred).
	Ranking = rank.Ranking
	// PartialOrder is a strict partial order over items.
	PartialOrder = rank.PartialOrder
)

// Identity returns the ranking <0, 1, ..., m-1>.
func Identity(m int) Ranking { return rank.Identity(m) }

// KendallTau returns the Kendall tau distance between two rankings.
func KendallTau(a, b Ranking) int { return rank.KendallTau(a, b) }

// NewPartialOrder returns an empty partial order.
func NewPartialOrder() *PartialOrder { return rank.NewPartialOrder() }

// Models.
type (
	// RIMModel is a Repeated Insertion Model RIM(sigma, Pi).
	RIMModel = rim.Model
	// Mallows is the Mallows model MAL(sigma, phi).
	Mallows = rim.Mallows
	// AMP samples from a Mallows posterior conditioned on a partial order.
	AMP = rim.AMP
)

// NewRIM validates and constructs a RIM model.
func NewRIM(sigma Ranking, pi [][]float64) (*RIMModel, error) { return rim.New(sigma, pi) }

// NewMallows validates and constructs a Mallows model.
func NewMallows(sigma Ranking, phi float64) (*Mallows, error) { return rim.NewMallows(sigma, phi) }

// Mixture is a finite mixture of Mallows models.
type Mixture = rim.Mixture

// NewMixture validates and constructs a Mallows mixture.
func NewMixture(components []*Mallows, weights []float64) (*Mixture, error) {
	return rim.NewMixture(components, weights)
}

// NewAMP builds an AMP sampler conditioned on cons.
func NewAMP(center Ranking, phi float64, cons *PartialOrder) (*AMP, error) {
	return rim.NewAMP(center, phi, cons)
}

// Labels and patterns.
type (
	// Label is an interned label id.
	Label = label.Label
	// LabelSet is a sorted set of labels.
	LabelSet = label.Set
	// Labeling maps items to label sets.
	Labeling = label.Labeling
	// Pattern is a label pattern: a DAG over label-set nodes.
	Pattern = pattern.Pattern
	// PatternNode is one pattern node.
	PatternNode = pattern.Node
	// Union is a union of patterns.
	Union = pattern.Union
)

// NewLabeling returns an empty labeling function.
func NewLabeling() *Labeling { return label.NewLabeling() }

// NewPattern constructs a pattern and validates acyclicity.
func NewPattern(nodes []PatternNode, edges [][2]int) (*Pattern, error) {
	return pattern.New(nodes, edges)
}

// TwoLabelPattern builds the two-label pattern {l > r}.
func TwoLabelPattern(l, r LabelSet) *Pattern { return pattern.TwoLabel(l, r) }

// Exact solvers.
type (
	// SolverOptions tunes exact solver invocations.
	SolverOptions = solver.Options
	// SolverStats reports solver effort.
	SolverStats = solver.Stats
)

// SolveAuto dispatches to the most specific exact solver for the union.
func SolveAuto(m *RIMModel, lab *Labeling, u Union, opts SolverOptions) (float64, error) {
	return solver.Auto(m, lab, u, opts)
}

// SolveTwoLabel runs Algorithm 3 on a union of two-label patterns.
func SolveTwoLabel(m *RIMModel, lab *Labeling, u Union, opts SolverOptions) (float64, error) {
	return solver.TwoLabel(m, lab, u, opts)
}

// SolveBipartite runs Algorithm 4 on a union of bipartite patterns.
func SolveBipartite(m *RIMModel, lab *Labeling, u Union, opts SolverOptions) (float64, error) {
	return solver.Bipartite(m, lab, u, opts)
}

// SolveGeneral runs the inclusion-exclusion general solver.
func SolveGeneral(m *RIMModel, lab *Labeling, u Union, opts SolverOptions) (float64, error) {
	return solver.General(m, lab, u, opts)
}

// SolveRelOrder runs the relative-order solver for arbitrary patterns.
func SolveRelOrder(m *RIMModel, lab *Labeling, u Union, opts SolverOptions) (float64, error) {
	return solver.RelOrder(m, lab, u, opts)
}

// Approximate solvers.
type (
	// Estimator runs MIS-AMP-lite and MIS-AMP-adaptive.
	Estimator = sampling.Estimator
	// EstimatorConfig tunes estimator construction.
	EstimatorConfig = sampling.Config
	// AdaptiveConfig tunes MIS-AMP-adaptive.
	AdaptiveConfig = sampling.AdaptiveConfig
)

// NewEstimator prepares MIS-AMP proposals for one model and union.
func NewEstimator(ml *Mallows, lab *Labeling, u Union, cfg EstimatorConfig) (*Estimator, error) {
	return sampling.NewEstimator(ml, lab, u, cfg)
}

// Database layer.
type (
	// DB is a RIM-PPD instance.
	DB = ppd.DB
	// Relation is an ordinary relation.
	Relation = ppd.Relation
	// PrefRelation is a preference relation.
	PrefRelation = ppd.PrefRelation
	// Session is one preference session.
	Session = ppd.Session
	// Query is a parsed conjunctive query.
	Query = ppd.Query
	// Engine evaluates queries.
	Engine = ppd.Engine
	// SessionProb pairs a session with its probability.
	SessionProb = ppd.SessionProb
	// Method selects the per-session solver.
	Method = ppd.Method
	// Explanation reports a query plan (classification, grounding,
	// grouping, recommended method).
	Explanation = ppd.Explanation
	// PlanStats reports MethodAdaptive's routing decisions and confidence
	// half-widths (Response.Plan).
	PlanStats = ppd.PlanStats
	// SolveReport describes how one inference group was answered.
	SolveReport = ppd.SolveReport
	// CostEstimate predicts the exact-inference work of one group, in DP
	// state-transitions.
	CostEstimate = ppd.CostEstimate
	// AggregateResult reports an aggregation over satisfying sessions.
	AggregateResult = ppd.AggregateResult
	// TopKDiag reports the work of a Most-Probable-Session evaluation.
	TopKDiag = ppd.TopKDiag
	// SessionStore is the session-source seam between the engine and
	// storage: RAM slices, mmap-backed snapshots and ingest tails all
	// serve sessions through it.
	SessionStore = ppd.SessionStore
	// SessionSlice is the RAM-backed SessionStore.
	SessionSlice = ppd.SessionSlice
)

// ConcatSessions returns a store listing base's sessions followed by
// tail's; it is how streaming ingest layers appended sessions over an
// immutable snapshot.
func ConcatSessions(base, tail SessionStore) SessionStore {
	return ppd.ConcatSessions(base, tail)
}

// Solver methods.
const (
	MethodAuto        = ppd.MethodAuto
	MethodTwoLabel    = ppd.MethodTwoLabel
	MethodBipartite   = ppd.MethodBipartite
	MethodGeneral     = ppd.MethodGeneral
	MethodRelOrder    = ppd.MethodRelOrder
	MethodMISAdaptive = ppd.MethodMISAdaptive
	MethodMISLite     = ppd.MethodMISLite
	MethodRejection   = ppd.MethodRejection
	MethodAdaptive    = ppd.MethodAdaptive
)

// ParseMethod resolves a method name to its Method; the error of an unknown
// name enumerates the valid names.
func ParseMethod(s string) (Method, error) { return ppd.ParseMethod(s) }

// Unified query API.
type (
	// Request is the single typed request shape of the query API: one value
	// describes any query class, validated by Request.Compile and answered
	// by Engine.Do, Service.Do/DoBatch or the daemon's POST /v1/query.
	Request = ppd.Request
	// Response is the unified answer of the query API; the sections a Kind
	// does not produce stay zero, and Response.Sessions streams the
	// per-session rows as an iterator.
	Response = ppd.Response
	// CompiledRequest is the validated, executable form of a Request.
	CompiledRequest = ppd.CompiledRequest
	// Kind selects the query class of a Request.
	Kind = ppd.Kind
)

// Query kinds of the unified API.
const (
	// KindBool asks for the Boolean confidence Pr(Q | D).
	KindBool = ppd.KindBool
	// KindCount asks for the Count-Session expectation count(Q).
	KindCount = ppd.KindCount
	// KindTopK asks for the Most-Probable-Session answer top(Q, k).
	KindTopK = ppd.KindTopK
	// KindAggregate asks for sum/avg of an attribute over satisfying
	// sessions.
	KindAggregate = ppd.KindAggregate
	// KindCountDist asks for the exact distribution of count(Q).
	KindCountDist = ppd.KindCountDist
	// KindConsensus asks for a consensus answer over the conditioned
	// session population (select which with Request.ConsensusTarget).
	KindConsensus = ppd.KindConsensus
)

// ParseKind resolves a kind name to its Kind; the error of an unknown name
// enumerates the valid names.
func ParseKind(s string) (Kind, error) { return ppd.ParseKind(s) }

// KindNames lists the canonical kind names ParseKind accepts.
func KindNames() []string { return ppd.KindNames() }

// Consensus & rank aggregation (kind consensus).
type (
	// ConsensusTarget selects which consensus answer a consensus request
	// asks for.
	ConsensusTarget = consensus.Target
	// ConsensusResult is the consensus section of a Response: the folded
	// answer, the item-key domain and the mergeable per-session rows.
	ConsensusResult = ppd.ConsensusResult
	// ConsensusRow is one session's sufficient statistic of a consensus
	// answer; a coordinator concatenates partition rows and re-solves.
	ConsensusRow = consensus.Row
)

// Consensus targets of the consensus query kind.
const (
	// ConsensusMAP asks for the most-probable ranking of the conditioned
	// posterior, with its probability.
	ConsensusMAP = consensus.TargetMAP
	// ConsensusMedian asks for the ranking minimizing the expected Kendall
	// tau distance to the population.
	ConsensusMedian = consensus.TargetMedian
	// ConsensusTopK asks for per-item top-k membership probabilities with
	// certainty bands.
	ConsensusTopK = consensus.TargetTopK
)

// ParseConsensusTarget resolves a consensus target name ("map", "median",
// "topk") to its ConsensusTarget; the error of an unknown name enumerates
// the valid names.
func ParseConsensusTarget(s string) (ConsensusTarget, error) { return consensus.ParseTarget(s) }

// ConsensusTargetNames lists the canonical consensus target names
// ParseConsensusTarget accepts.
func ConsensusTargetNames() []string { return consensus.TargetNames() }

// EstimateCost predicts the cheapest exact solver for one (session model,
// pattern union) inference group and its work in DP state-transitions, read
// off that solver's compiled plan; MethodAdaptive's planner routes on it.
func EstimateCost(sm SessionModel, lab *Labeling, u Union, maxInvolved int) CostEstimate {
	return ppd.EstimateCost(sm, lab, u, maxInvolved)
}

// Service layer.
type (
	// SolveCache memoizes (model, union) inference results across queries;
	// set Engine.Cache to share solves between evaluations.
	SolveCache = ppd.SolveCache
	// Cache is the sharded LRU SolveCache of the service layer.
	Cache = server.Cache
	// CacheStats snapshots cache effectiveness.
	CacheStats = server.CacheStats
	// Service is the concurrent query front end: shared solve cache, batch
	// dedup, bounded worker pool, HTTP handler.
	Service = server.Service
	// ServiceConfig tunes a Service.
	ServiceConfig = server.Config
	// ServiceStats snapshots a Service's counters.
	ServiceStats = server.Stats
	// DoBatchResult reports a Service.DoBatch: unified responses plus the
	// dedup accounting of its grouped clusters (Engine.DoGrouped calls).
	DoBatchResult = server.DoBatchResult
)

// NewSolveCache builds the sharded LRU solve cache holding up to capacity
// inference results; assign it to Engine.Cache or share it across engines.
func NewSolveCache(capacity int) *Cache { return server.NewCache(capacity) }

// NewService builds the concurrent query service over the single database
// db, registered in the service's catalog under DefaultModel.
func NewService(db *DB, cfg ServiceConfig) *Service { return server.New(db, cfg) }

// Registry layer.
type (
	// Registry is the concurrent named model catalog served by a
	// multi-model Service: dataset-backed models register as ModelSpecs and
	// build lazily, pre-built databases register with Registry.RegisterDB,
	// and deletion is reference-counted so in-flight queries finish before
	// a model unloads.
	Registry = registry.Registry
	// ModelSpec describes one named dataset-backed model (the unit of a
	// Manifest and of the daemon's POST /models body).
	ModelSpec = registry.Spec
	// ModelInfo is one row of a catalog listing.
	ModelInfo = registry.Info
	// ModelHandle is an open, reference-counted view of one cataloged
	// model; Close it when the query using it finishes.
	ModelHandle = registry.Handle
	// Manifest is the startup catalog file format of cmd/hardqd.
	Manifest = registry.Manifest
)

// DefaultModel is the catalog name NewService registers its database under
// and the model unqualified requests resolve to.
const DefaultModel = server.DefaultModel

// NewRegistry returns an empty model catalog.
func NewRegistry() *Registry { return registry.New() }

// NewMultiService builds the concurrent query service over a model
// catalog: requests carry a model name ("" selects DefaultModel) and the
// shared solve cache namespaces its keys per model.
func NewMultiService(reg *Registry, cfg ServiceConfig) *Service { return server.NewMulti(reg, cfg) }

// LoadManifest reads, parses and validates a model manifest file.
func LoadManifest(path string) (*Manifest, error) { return registry.LoadManifest(path) }

// OpenDataset builds the dataset-backed database described by spec — the
// one-shot, catalog-free form of a registry load. The spec is validated
// like any catalog spec, so it needs a well-formed Name and a known
// Dataset.
func OpenDataset(spec ModelSpec) (*DB, error) {
	db, _, err := registry.Build(spec)
	return db, err
}

// NewDB builds a database around an item relation.
func NewDB(items *Relation) (*DB, error) { return ppd.NewDB(items) }

// NewRelation validates and constructs an ordinary relation.
func NewRelation(name string, attrs []string, tuples [][]string) (*Relation, error) {
	return ppd.NewRelation(name, attrs, tuples)
}

// ParseQuery parses a conjunctive query in the paper's datalog notation.
func ParseQuery(src string) (*Query, error) { return ppd.Parse(src) }

// Datasets.

// Figure1 builds the running example of the paper (Figure 1).
func Figure1() (*DB, error) { return dataset.Figure1() }

// Polls generates the synthetic polling database of Section 6.1.
func Polls(candidates, voters int, seed int64) (*DB, error) {
	return dataset.Polls(dataset.PollsConfig{Candidates: candidates, Voters: voters, Seed: seed})
}

// MovieLens generates the MovieLens-like catalog and mixture sessions.
func MovieLens(movies int, seed int64) (*DB, error) {
	return dataset.MovieLens(dataset.MovieLensConfig{Movies: movies, Seed: seed})
}

// CrowdRank generates the CrowdRank-like HIT, workers and sessions with
// the paper's HIT size (20 movies).
func CrowdRank(workers int, seed int64) (*DB, error) {
	return dataset.CrowdRank(dataset.CrowdRankConfig{Workers: workers, Seed: seed})
}

// CrowdRankHIT is CrowdRank with an explicit HIT size (number of movies,
// minimum 6). Smaller HITs keep the per-session exact inference cheap.
func CrowdRankHIT(workers, movies int, seed int64) (*DB, error) {
	return dataset.CrowdRank(dataset.CrowdRankConfig{Workers: workers, Movies: movies, Seed: seed})
}
