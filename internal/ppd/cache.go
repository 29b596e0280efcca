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
// append inherits them.
//
// A warm query does not call Get at all. A memoised Grounded keeps, per
// method and per cache value (compared with ==; a cache whose value cannot
// be compared gets none), a column of its groups' exact probabilities,
// filled wherever the cache is filled or hit (Grounded.column). A repeated
// request reads its groups off that column, counting each as a cache hit,
// so Get and Put see the groups of cold groundings, of queries sharing a
// group with an earlier one, and of groundings the memo does not keep.
// Top-k relaxation bounds always go through Get. The column does not
// follow the cache's evictions: it dies with its grounding.
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
// The cache holds exact answers only (a sampled group is never stored, and
// under a method that only samples no group is looked up either), so a hit
// is exact whatever seed, deadline or budget the evaluation runs under, and
// engines sharing a cache may differ in Method.
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
