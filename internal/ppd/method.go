package ppd

import (
	"context"
	"fmt"
	"slices"
	"strings"

	"probpref/internal/label"
	"probpref/internal/pattern"
	"probpref/internal/rim"
	"probpref/internal/solver"
)

// Method selects the inference solver used per session.
type Method int

const (
	// MethodAuto dispatches to the most specific exact solver.
	MethodAuto Method = iota
	// MethodTwoLabel forces Algorithm 3 (two-label unions only).
	MethodTwoLabel
	// MethodBipartite forces Algorithm 4.
	MethodBipartite
	// MethodGeneral forces the inclusion-exclusion baseline.
	MethodGeneral
	// MethodRelOrder forces the relative-order solver.
	MethodRelOrder
	// MethodMISAdaptive uses MIS-AMP-adaptive.
	MethodMISAdaptive
	// MethodMISLite uses MIS-AMP-lite with 5 proposals of 500 samples.
	MethodMISLite
	// MethodRejection uses rejection sampling with 10 000 samples.
	MethodRejection
	// MethodAdaptive is the deadline-aware cost-based planner: per group it
	// solves the cheapest exact solver's compiled plan when the plan's
	// predicted work fits the budget (the priced deadline, or else the price
	// of the sampled answer), and samples with a reported confidence
	// half-width otherwise (see planner.go).
	MethodAdaptive
)

// methodRow describes one Method: every question the engine and the service
// layers ask of a method reads its row, so adding a method is adding a row.
type methodRow struct {
	name  string   // canonical name (String): solve-cache key prefix, PlanStats.Methods key
	names []string // other ParseMethod spellings; MethodNames lists names[0]
	// exact solves a group exactly; it is nil for a method that may sample,
	// whose groups sampled solves, drawing from the stream its seed
	// argument seeds.
	exact   func(*rim.Model, *label.Labeling, pattern.Union, solver.Options) (float64, error)
	sampled func(*Engine, context.Context, int64, rim.SessionModel, pattern.Union) (float64, SolveReport, error)
	// plan maps a union to the DP algorithm the method's exact solves
	// compile to (see PlanAlgo). Only a method with a plan batches its
	// groups as the lanes of one walk (groupProbs.resolve): a sampler draws
	// an RNG stream per group and the adaptive planner budgets per group.
	plan func(pattern.Union) solver.Algo
	// ownTopKBound: a group whose union is all two-label is its own top-k
	// bound, as the method's exact solve of it is TwoLabel's (one batched
	// lane) or the bipartite solve a relaxation would run anyway (see
	// topKUnion).
	ownTopKBound bool
	// routesExact: the sampled solve answers a group exactly when it can
	// afford to (the adaptive planner), so it caches those answers as an
	// exact method does (see cached).
	routesExact bool
}

// methods is the method table, indexed by Method.
var methods = [...]methodRow{
	MethodAuto:        {name: "auto", names: []string{"auto"}, exact: solver.Auto, plan: solver.AlgoFor, ownTopKBound: true},
	MethodTwoLabel:    {name: "two-label", names: []string{"twolabel"}, exact: solver.TwoLabel, plan: fixedAlgo(solver.AlgoTwoLabel), ownTopKBound: true},
	MethodBipartite:   {name: "bipartite", names: []string{"bipartite"}, exact: solver.Bipartite, plan: fixedAlgo(solver.AlgoBipartite), ownTopKBound: true},
	MethodGeneral:     {name: "general", names: []string{"general"}, exact: solver.General},
	MethodRelOrder:    {name: "relorder", names: []string{"relorder"}, exact: solver.RelOrder, plan: fixedAlgo(solver.AlgoRelOrder)},
	MethodMISAdaptive: {name: "mis-amp-adaptive", names: []string{"mis-adaptive"}, sampled: (*Engine).solveMISAdaptive},
	MethodMISLite:     {name: "mis-amp-lite", names: []string{"mis-lite", "lite"}, sampled: (*Engine).solveMISLite},
	MethodRejection:   {name: "rejection", names: []string{"rejection", "rs"}, sampled: (*Engine).solveRejection},
	MethodAdaptive:    {name: "adaptive", names: []string{"adaptive", "planner"}, sampled: (*Engine).solveAdaptive, routesExact: true},
}

// fixedAlgo is the plan of a method forced to one solver.
func fixedAlgo(a solver.Algo) func(pattern.Union) solver.Algo {
	return func(pattern.Union) solver.Algo { return a }
}

// row returns m's row of the method table; a value outside the table gets
// the zero row, which names, solves and plans nothing.
func (m Method) row() methodRow {
	if m < 0 || int(m) >= len(methods) {
		return methodRow{}
	}
	return methods[m]
}

// errUnknown is the error of evaluating under a Method outside the table.
func (m Method) errUnknown() error { return fmt.Errorf("ppd: unknown method %v", m) }

// String returns the canonical method name (the form ParseMethod accepts
// and the CLIs print).
func (m Method) String() string {
	if r := m.row(); r.name != "" {
		return r.name
	}
	return fmt.Sprintf("method(%d)", int(m))
}

// Exact reports whether m answers every group exactly: its answers are a
// function of the query and the database alone, whatever the sampler seed,
// deadline or budget, so identical requests may share one answer.
func (m Method) Exact() bool { return m.row().exact != nil }

// cached reports whether m's groups resolve through Engine.Cache: only an
// exact answer is stored, so a method that only samples neither stores nor
// looks up.
func (m Method) cached() bool { r := m.row(); return r.exact != nil || r.routesExact }

// MethodNames lists the canonical method names ParseMethod accepts, in the
// order the CLIs document them: the exact methods in table order, then the
// others by name. (ParseMethod also accepts a few aliases and the exact
// Method.String forms.)
func MethodNames() []string {
	var names, others []string
	for _, r := range methods {
		if r.exact != nil {
			names = append(names, r.names[0])
		} else {
			others = append(others, r.names[0])
		}
	}
	slices.Sort(others)
	return append(names, others...)
}

// ParseMethod resolves a method name (as printed by Method.String, plus the
// CLI short forms) to its Method; it is the shared flag parser of the cmd
// binaries.
func ParseMethod(s string) (Method, error) {
	name := strings.ToLower(s)
	for i, r := range methods {
		if r.name == name || slices.Contains(r.names, name) {
			return Method(i), nil
		}
	}
	return 0, fmt.Errorf("unknown method %q (valid: %s)", s, strings.Join(MethodNames(), " | "))
}
