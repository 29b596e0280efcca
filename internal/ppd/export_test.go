package ppd

import (
	"cmp"
	"context"

	"probpref/internal/pattern"
	"probpref/internal/rim"
	"probpref/internal/solver"
)

// Instantiations reports how many times g has run the per-signature half
// of a grounding: once per distinct session signature it has grounded,
// since every run is memoised.
func Instantiations(g *Grounder) int { return len(g.bySig) }

// Memoised returns the grounding of uq that db's memo holds, or nil,
// without grounding anything.
func Memoised(db *DB, uq *UnionQuery) *Grounded { return db.memo.get(uq.String()) }

// Tuning is what a test may set of an engine's knobs, for tests that need
// other sampler sizes, an explicit adaptive budget or solver options than
// production's; a zero field keeps production's value.
type Tuning struct {
	// Draws is every rejection draw count: a MethodRejection group's, a
	// sampled adaptive group's cap and a sampled consensus row's.
	Draws int
	// Proposals and Samples are MIS-AMP-lite's proposals and samples a
	// proposal (Samples: MIS-RIM's samples too).
	Proposals, Samples int
	// Budget is MethodAdaptive's budget for each group, in place of a
	// deadline's or the sampled answer's price.
	Budget float64
	// Opts are the exact solves' options.
	Opts solver.Options
}

// Tune sets e's knobs from t and returns e.
func Tune(e *Engine, t Tuning) *Engine {
	k := defaultKnobs
	if t.Draws > 0 {
		k.rejectionN, k.sampleCeil, k.consensusN = t.Draws, t.Draws, t.Draws
	}
	k.liteD, k.liteN = cmp.Or(t.Proposals, k.liteD), cmp.Or(t.Samples, k.liteN)
	k.budget, k.opts = t.Budget, t.Opts
	e.tune = &k
	return e
}

// SolveGroup answers one (model, union) group alone under e's method, as an
// evaluation without a deadline solves a group it misses: no grounding,
// grouping or cache, and a sampler draws from the stream rand.NewSource(1)
// seeds.
func SolveGroup(e *Engine, sm rim.SessionModel, u pattern.Union) (float64, SolveReport, error) {
	return e.solve(context.Background(), e.Method, 1, sm, u)
}
