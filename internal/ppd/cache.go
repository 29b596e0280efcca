package ppd

import (
	"probpref/internal/pattern"
	"probpref/internal/rim"
)

// SolveCache memoizes inference results across evaluations. The engine
// consults it with GroupKey-formed keys before solving a distinct
// (model, union) group and stores the result afterwards, so a process-wide
// cache turns the per-call identical-request grouping of Section 6.4 into
// cross-query memoization. The upper bounds of a top-k evaluation go
// through it too. A relaxation's bound is stored under
// GroupKey(MethodBipartite, model, relaxed union): it is Pr(relaxed union)
// under the bipartite solver, so its key is the key an exact bipartite
// solve of that union would use. A two-label group that is its own bound
// is looked up and stored under its exact key like any other group. So a
// warm bound-1 top-k solves nothing.
//
// A key is built once per grounding, not per lookup: a Grounded memoises
// its groups' keys per method (Grounded.cacheKeys) and its top-k
// relaxations' bipartite keys (boundSet), and a grounding extended by an
// append inherits them, so a warm query hands Get strings it already holds.
//
// Keys are content-addressed — method, model parameters, union — so an
// entry can never be wrong for a database it was not computed on, and
// nothing ever needs to invalidate one: appending sessions to a model
// leaves every entry valid, and most of the appended sessions' groups
// already present.
//
// Implementations must be safe for concurrent use: with Engine.Workers > 1
// the engine calls Get and Put from multiple goroutines, and a single cache
// is typically shared by many engines (see internal/server).
//
// Correctness caveats: entries are keyed by the solver method, the model
// parameters and the grounded pattern union — engines with different
// Methods can therefore safely share one cache — but sampler and solver
// tuning (SamplerCfg, LiteD/LiteN, RejectionN, SolverOpts) is NOT part of
// the key, so engines sharing a cache should agree on those. For the exact
// solvers a hit is always exact; for the sampling methods (MIS-AMP,
// rejection) a hit replays an earlier estimate instead of re-sampling, so
// estimates become sticky for the cache lifetime. That is usually desirable
// (stable answers, no re-inference) but means repeated queries no longer
// average over fresh samples. MethodAdaptive keys its entries under
// "adaptive|...": the budget (and hence whether an entry is an exact answer
// or an estimate) is not part of the key, so engines sharing a cache across
// different deadlines replay whichever answer landed first — fix
// Engine.AdaptiveBudget (or skip the cache) when that matters.
type SolveCache interface {
	// Get returns the cached probability for key, if present.
	Get(key string) (float64, bool)
	// Put stores the probability for key, evicting as needed.
	Put(key string, p float64)
}

// GroupKey returns the memoization key of one inference request: the solver
// method joined with the model's parameter hash and the canonical key of
// the grounded union. It is the key of SolveCache lookups across
// evaluations; the engine looks grounded groups up under the same strings,
// built once per grounding (see SolveCache).
func GroupKey(m Method, sm rim.SessionModel, u pattern.Union) string {
	return groupID{model: sm.Rehash(), union: u.Key()}.key(m)
}
