package solver

import (
	"fmt"

	"probpref/internal/label"
	"probpref/internal/pattern"
	"probpref/internal/rank"
	"probpref/internal/rim"
)

// This file implements the compile-once / solve-many layer: a Plan is the
// session-independent compilation of a pattern union against a reference
// ranking and labeling — the tracker/constraint tables, item bitmasks, the
// per-step feed and gap schedule, the state width, everything the DP layer
// walk needs except the sessions' insertion probabilities. A Plan compiled
// once serves any number of sessions sharing the reference ranking:
// SolveSessions drives their Pi rows through one layer walk, one lane per
// session and a per-lane mass vector per state, and Solve is its one-lane
// case.
//
// Each of the three DP solvers is split into a compile half (compileTwoLabel,
// compileBipartite, compileRelOrder) and one executor
// (runTwoLabel, ...) that walks the layers for a list of lanes; the public
// single-shot entry points (TwoLabel, Bipartite, ...) compile into the
// pooled arena and run one lane immediately, staying allocation-free in
// steady state, while CompilePlan compiles onto the heap so the plan can
// outlive the solve in a cache.

// planAlloc selects where compiled-plan setup memory comes from: the pooled
// solve arena for the compile-and-run-once path, or the heap (nil arena) for
// plans that outlive the solve in a cache.
type planAlloc struct{ ar *arena }

func (a planAlloc) ints(n int) []int {
	if a.ar != nil {
		return a.ar.ints.take(n)
	}
	return make([]int, n)
}

func (a planAlloc) bools(n int) []bool {
	if a.ar != nil {
		return a.ar.bools.take(n)
	}
	return make([]bool, n)
}

func (a planAlloc) sets(n int) []label.Set {
	if a.ar != nil {
		return a.ar.sets.take(n)
	}
	return make([]label.Set, n)
}

func (a planAlloc) u64s(n int) []uint64 {
	if a.ar != nil {
		return a.ar.u64s.take(n)
	}
	return make([]uint64, n)
}

func (a planAlloc) intSlices(n int) [][]int {
	if a.ar != nil {
		return a.ar.intSlices.take(n)
	}
	return make([][]int, n)
}

// Algo identifies one of the exact DP solvers a Plan can compile to.
type Algo int

const (
	AlgoTwoLabel Algo = iota
	AlgoBipartite
	AlgoRelOrder
)

func (a Algo) String() string {
	switch a {
	case AlgoTwoLabel:
		return "twolabel"
	case AlgoBipartite:
		return "bipartite"
	case AlgoRelOrder:
		return "relorder"
	}
	return fmt.Sprintf("algo(%d)", int(a))
}

// AlgoFor returns the algorithm Auto dispatches to for the union: the most
// specific exact solver supporting its shape.
func AlgoFor(u pattern.Union) Algo {
	switch {
	case u.AllTwoLabel():
		return AlgoTwoLabel
	case u.AllBipartite():
		return AlgoBipartite
	default:
		return AlgoRelOrder
	}
}

// Plan is a compiled union: everything session-independent about solving
// one pattern union with one exact solver against sessions sharing a
// reference ranking. Plans are immutable after CompilePlan and safe for
// concurrent use by any number of solves.
type Plan struct {
	algo     Algo
	m        int
	sigma    rank.Ranking
	isConst  bool
	constVal float64

	two twoLabelPlan // AlgoTwoLabel's tables, held inline
	bip *bipPlan
	rel *relPlan
}

// Algo returns the solver the plan compiles to.
func (p *Plan) Algo() Algo { return p.algo }

// M returns the number of items of the plan's reference ranking.
func (p *Plan) M() int { return p.m }

// Sigma returns the reference ranking the plan was compiled against.
// Callers must not mutate it.
func (p *Plan) Sigma() rank.Ranking { return p.sigma }

// CompilePlan compiles the union once for the given algorithm, reference
// ranking and labeling. The result is heap-allocated (independent of the
// pooled solve arenas) so it can live in a cache; opts only contributes
// compile-time bounds (MaxInvolved).
func CompilePlan(algo Algo, sigma rank.Ranking, lab *label.Labeling, u pattern.Union, opts Options) (*Plan, error) {
	p := &Plan{algo: algo, m: len(sigma), sigma: sigma}
	if len(u) == 0 {
		p.isConst, p.constVal = true, 0
		return p, nil
	}
	heap := planAlloc{}
	switch algo {
	case AlgoTwoLabel:
		if err := compileTwoLabel(&p.two, heap, sigma, lab, u); err != nil {
			return nil, err
		}
	case AlgoBipartite:
		p.bip = new(bipPlan)
		if err := compileBipartite(p.bip, heap, sigma, lab, u); err != nil {
			return nil, err
		}
		if p.bip.constOne {
			p.isConst, p.constVal = true, 1
		}
	case AlgoRelOrder:
		p.rel = new(relPlan)
		if err := compileRelOrder(p.rel, heap, sigma, lab, u, opts.maxInvolved()); err != nil {
			return nil, err
		}
		if p.rel.constOne {
			p.isConst, p.constVal = true, 1
		}
	default:
		return nil, fmt.Errorf("solver: unknown algorithm %v", algo)
	}
	return p, nil
}

// check verifies the model is compatible with the plan: same item count and
// the same reference ranking (the plan's insertion-step schedule is a
// function of sigma).
func (p *Plan) check(mdl *rim.Model) error {
	if mdl.M() != p.m {
		return fmt.Errorf("solver: plan compiled for m=%d, model has m=%d", p.m, mdl.M())
	}
	sg := mdl.Sigma()
	for i, it := range p.sigma {
		if sg[i] != it {
			return fmt.Errorf("solver: model reference ranking differs from the plan's at rank %d", i)
		}
	}
	return nil
}

// run walks the plan's layers for the sessions of models: out[l] is session
// l's answer.
func (p *Plan) run(ar *arena, models []*rim.Model, opts Options, out []float64) error {
	switch p.algo {
	case AlgoTwoLabel:
		return runTwoLabel(ar, &p.two, models, opts, out)
	case AlgoBipartite:
		return runBipartite(ar, p.bip, models, opts, out)
	default:
		return runRelOrder(ar, p.rel, models, opts, out)
	}
}

// Solve evaluates the plan against one session's insertion probabilities:
// the one-lane case of SolveSessions' walk. The result is bit-identical to
// the corresponding single-shot solver on the same inputs.
func (p *Plan) Solve(mdl *rim.Model, opts Options) (float64, error) {
	if err := p.check(mdl); err != nil {
		return 0, err
	}
	if p.isConst {
		return p.constVal, nil
	}
	ar := getArena()
	defer putArena(ar)
	models, out := [1]*rim.Model{mdl}, [1]float64{}
	if err := p.run(ar, models[:], opts, out[:]); err != nil {
		return 0, err
	}
	return out[0], nil
}

// SolveSessions evaluates the plan against many sessions in one layer walk.
// All models must share the plan's reference ranking; they differ only in
// their insertion probabilities (Pi). The walk's layer structure is a
// function of the plan alone — every emission happens for every session, a
// zero insertion probability merely contributes zero mass — so one walk
// serves all sessions, folding a per-lane mass vector at each emission.
// out[l] is bit-identical to p.Solve(models[l], opts): per lane the float
// operations, their order, and the deterministic chunked parallel schedule
// do not depend on how many lanes the walk carries.
func SolveSessions(p *Plan, models []*rim.Model, opts Options) ([]float64, error) {
	out := make([]float64, len(models))
	if len(models) == 0 {
		return out, nil
	}
	for _, mdl := range models {
		if err := p.check(mdl); err != nil {
			return nil, err
		}
	}
	if p.isConst {
		for l := range out {
			out[l] = p.constVal
		}
		return out, nil
	}
	ar := getArena()
	defer putArena(ar)
	if err := p.run(ar, models, opts, out); err != nil {
		return nil, err
	}
	return out, nil
}
