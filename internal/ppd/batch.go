package ppd

import (
	"context"
	"fmt"

	"probpref/internal/pattern"
	"probpref/internal/rim"
	"probpref/internal/solver"
)

// This file wires the solver's compile-once / solve-many layer (see
// internal/solver/plan.go) into query evaluation. Grounded (model, union)
// groups that share a canonical union shape — the same solver algorithm,
// reference ranking and union — differ only in their sessions' insertion
// probabilities, so one compiled Plan serves all of them and one layer walk
// solves them together, a lane per group. Compiled plans optionally persist
// in a PlanCache across evaluations; the service layer namespaces cache keys
// per registry model so deleting a model invalidates its plans.

// PlanCache caches compiled union plans across evaluations. Implementations
// must be safe for concurrent use; the service layer's sharded LRU is the
// canonical one. Plans are immutable, so a cache may hand the same *Plan to
// any number of concurrent solves. A PlanCache must not be shared between
// engines whose databases differ: plan keys do not encode the labeling, the
// per-database (service-layer: per-model-namespace) cache identity does.
type PlanCache interface {
	// Get returns the plan compiled under key, if cached.
	Get(key string) (*solver.Plan, bool)
	// Put stores a compiled plan under key.
	Put(key string, p *solver.Plan)
}

// PlanAlgo maps an evaluation method to the DP algorithm its exact solves
// compile to, or reports that the method does not solve u through compiled
// plans: the inclusion-exclusion baseline, the samplers, the adaptive
// planner (whose routing is budget- and deadline-dependent), and a forced
// method that would not answer u exactly (see shapeErr).
func PlanAlgo(m Method, u pattern.Union) (solver.Algo, bool) {
	plan := m.row().plan
	if plan == nil || shapeErr(m, u) != nil {
		return 0, false
	}
	return plan(u), true
}

// shapeErr refuses, with solver.ErrShape, a union the forced method m would
// not answer exactly. The bipartite solver evaluates any DAG pattern under
// constraint semantics, which for a pattern that is not bipartite gives the
// top-k upper bound (Section 4.3.2), not the match probability; the other
// solvers refuse a union outside their family themselves. Engine.solve,
// PlanAlgo and the batched path all ask here.
func shapeErr(m Method, u pattern.Union) error {
	if m == MethodBipartite && !u.AllBipartite() {
		return fmt.Errorf("%w: Bipartite requires bipartite patterns", solver.ErrShape)
	}
	return nil
}

// PlanKey is the canonical cache key of a compiled union shape: algorithm,
// reference ranking and union. Everything else a Plan depends on — the
// labeling — is pinned by the cache's own identity (see PlanCache).
func PlanKey(algo solver.Algo, sigma interface{ Key() string }, u pattern.Union) string {
	return planKey(algo, sigma, u.Key())
}

// planKey is PlanKey for a union whose key is already built.
func planKey(algo solver.Algo, sigma interface{ Key() string }, unionKey string) string {
	return algo.String() + "|" + sigma.Key() + "|" + unionKey
}

// plan returns the compiled plan for the union shape whose PlanKey is key,
// consulting the engine's PlanCache when configured.
func (e *Engine) plan(algo solver.Algo, key string, sm rim.SessionModel, u pattern.Union) (*solver.Plan, error) {
	if e.Plans != nil {
		if p, ok := e.Plans.Get(key); ok {
			return p, nil
		}
	}
	p, err := solver.CompilePlan(algo, sm.Reference(), e.DB.Labeling(), u, e.knobs().opts)
	if err != nil {
		return nil, err
	}
	if e.Plans != nil {
		e.Plans.Put(key, p)
	}
	return p, nil
}

// BatchGroup is one deduplicated (session model, grounded union) group of a
// batched solve.
type BatchGroup struct {
	// SM is the group's session model (its Pi rows drive one lane of the
	// batched walk).
	SM rim.SessionModel
	// U is the grounded union the group evaluates.
	U pattern.Union
}

// batchSolveGroups solves many groups with method m, which must plan
// through PlanAlgo: groups sharing a union shape (same
// algorithm, reference ranking and union, differing only in insertion
// probabilities) are one plan class, and a class solves through one
// SolveSessions walk with a lane per group. unionKeys[i] is
// groups[i].U.Key(), which the grounding has already built (groupID.union).
// Results are positionally aligned with groups and bit-identical to solving
// each group alone (Engine.solve).
func (e *Engine) batchSolveGroups(ctx context.Context, m Method, groups []BatchGroup, unionKeys []string) ([]float64, error) {
	probs := make([]float64, len(groups))
	opts := e.solverOpts(ctx)

	// Partition into plan classes: one compiled plan (and one layer walk)
	// per canonical union shape.
	type class struct {
		plan    *solver.Plan
		members []int // indices into groups
	}
	var classes []class
	classOf := make(map[string]int)
	for gi, g := range groups {
		algo, ok := PlanAlgo(m, g.U) // a planning method plans every union it solves exactly
		if !ok {
			return nil, shapeErr(m, g.U)
		}
		key := planKey(algo, g.SM.Reference(), unionKeys[gi])
		ci, seen := classOf[key]
		if !seen {
			pl, err := e.plan(algo, key, g.SM, g.U)
			if err != nil {
				return nil, err
			}
			ci = len(classes)
			classOf[key] = ci
			classes = append(classes, class{plan: pl})
		}
		classes[ci].members = append(classes[ci].members, gi)
	}

	var models []*rim.Model // the class's lanes; SolveSessions does not keep it
	for _, cl := range classes {
		models = models[:0]
		for _, gi := range cl.members {
			models = append(models, groups[gi].SM.Model())
		}
		out, err := solver.SolveSessions(cl.plan, models, opts)
		if err != nil {
			return nil, err
		}
		for mi, gi := range cl.members {
			probs[gi] = out[mi]
		}
	}
	return probs, nil
}
