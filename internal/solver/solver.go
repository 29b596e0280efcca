// Package solver implements the exact solvers of the paper for the labeled
// RIM pattern-union inference problem (Equation 2): given RIM_L(sigma, Pi,
// lambda) and a pattern union G = g1 ∪ ... ∪ gz, compute Pr(G | sigma, Pi,
// lambda), the probability that a random ranking matches at least one
// pattern.
//
// Solvers:
//
//   - Brute: enumerates all m! rankings; ground truth for tests (m <= 8).
//   - TwoLabel: Algorithm 3, for unions of two-label patterns; O(m^(2z+1)),
//     where the 2z counts live trackers only (a tracker is retired once no
//     item of the other side of its patterns remains to be inserted).
//   - Bipartite: Algorithm 4, for unions of bipartite patterns (and, under
//     constraint semantics, for the upper-bound patterns of the top-k
//     optimization); O(m^(qz)), the qz likewise counting live trackers.
//   - General: inclusion-exclusion over pattern conjunctions (Equation 3);
//     the paper's baseline.
//   - RelOrder: exact inference for arbitrary DAG patterns by dynamic
//     programming over the relative order of the items involved in the
//     union; substitutes for the LTM engine of Cohen et al. (substitution
//     S1 of docs/ARCHITECTURE.md, "Deviations from the paper").
package solver

import (
	"context"
	"errors"
	"fmt"

	"probpref/internal/label"
	"probpref/internal/pattern"
	"probpref/internal/rim"
)

// ErrShape is returned when a solver is given a union outside the pattern
// family it supports.
var ErrShape = errors.New("solver: pattern union has unsupported shape")

// ErrTooLarge is returned when a state-space bound would be exceeded.
var ErrTooLarge = errors.New("solver: state space exceeds configured limit")

// Options tunes a solver invocation. The zero value is ready to use.
type Options struct {
	// Ctx cancels long-running solves; nil means context.Background().
	Ctx context.Context
	// MaxStates aborts with ErrTooLarge when a DP layer would exceed this
	// many states. 0 means no bound.
	MaxStates int
	// MaxInvolved bounds the number of involved items RelOrder will track
	// (default 12).
	MaxInvolved int
	// NoTrackerDrop keeps every min/max position tracker in the DP state to
	// the last insertion step: it disables tracker retirement in TwoLabel
	// and Bipartite (a tracker is dropped once no item of the other side of
	// its patterns remains to be inserted) and Bipartite's
	// only-track-uncertain-labels pruning. Ablation switch and the
	// reference walk of the solver tests: results agree to the last ulps,
	// state spaces grow.
	NoTrackerDrop bool
	// Stats, when non-nil, receives execution statistics.
	Stats *Stats
}

// Stats reports solver effort. Under parallel layer expansion the counters
// are accumulated per worker chunk and reduced on the solving goroutine at
// merge time, so a Stats attached to a single solve is never written
// concurrently; one Stats must still not be shared across concurrent
// solves.
type Stats struct {
	// PeakStates is the largest DP layer encountered.
	PeakStates int
	// TotalStates is the sum of DP layer sizes across steps.
	TotalStates int
	// Transitions counts generated successor states (emitted or absorbed)
	// across all expansion steps — the work unit the planner's cost model
	// predicts.
	Transitions int
	// Subproblems counts single-pattern solves (General solver).
	Subproblems int
}

func (o Options) ctx() context.Context {
	if o.Ctx == nil {
		return context.Background()
	}
	return o.Ctx
}

func (o Options) maxInvolved() int {
	if o.MaxInvolved == 0 {
		return 12
	}
	return o.MaxInvolved
}

// MaxInvolvedLimit returns the effective involved-items bound RelOrder will
// enforce (MaxInvolved, or its default); cost-based planners use it to
// predict whether RelOrder would accept an instance.
func (o Options) MaxInvolvedLimit() int { return o.maxInvolved() }

// layer closes an insertion step: a layer beyond MaxStates is refused, any
// other is recorded — so Stats never reports a layer the limit refused.
func (o Options) layer(n int) error {
	if o.MaxStates > 0 && n > o.MaxStates {
		return fmt.Errorf("%w: %d states (limit %d)", ErrTooLarge, n, o.MaxStates)
	}
	if o.Stats != nil {
		o.Stats.TotalStates += n
		if n > o.Stats.PeakStates {
			o.Stats.PeakStates = n
		}
	}
	return nil
}

// Auto dispatches to the most specific exact solver that supports the union:
// TwoLabel for two-label unions, Bipartite for bipartite unions, RelOrder
// otherwise.
func Auto(model *rim.Model, lab *label.Labeling, u pattern.Union, opts Options) (float64, error) {
	switch {
	case len(u) == 0:
		return 0, nil
	case u.AllTwoLabel():
		return TwoLabel(model, lab, u, opts)
	case u.AllBipartite():
		return Bipartite(model, lab, u, opts)
	default:
		return RelOrder(model, lab, u, opts)
	}
}

// The DP layer representation shared by the solvers lives in state.go
// (packed integer state keys over an insertion-ordered open-addressing
// table) and layer.go (pooled arenas plus the sequential/parallel
// expansion driver). Each solver has one executor, which walks the layers
// for a list of session lanes (plan.go); a single-session solve is its
// one-lane case. Insertion order is deterministic by induction (the
// initial layer has one state, and each expansion step visits states and
// insertion slots in a fixed order), so every solver's answer is
// bit-for-bit reproducible — the property the unified query API's
// equivalence suite and the cross-layer caches rely on — and the parallel
// driver's ordered chunk merge preserves exactly the sequential fold (see
// runStep).
