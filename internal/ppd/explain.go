package ppd

import (
	"cmp"
	"context"
	"fmt"
	"slices"
	"strings"
)

// Explanation reports how a query will be evaluated, read off the grounding
// its evaluation uses (DB.Ground) and the route MethodAdaptive takes for
// each of its groups, without solving any inference problem.
type Explanation struct {
	// Query is the parsed query text.
	Query string
	// PrefRelation is the queried p-relation.
	PrefRelation string
	// Sessions is the total number of sessions.
	Sessions int
	// LiveSessions counts the sessions whose grounded union is non-empty.
	LiveSessions int
	// Itemwise reports the tractable class: GroundVars is empty and every
	// group's union is a single pattern.
	Itemwise bool
	// GroundVars lists the variables instantiated by Algorithm 2 (V+): the
	// item-attribute variables that no session term or context atom binds
	// and that occur twice or carry a comparison.
	GroundVars []string
	// MinUnion and MaxUnion are the smallest and largest per-session
	// pattern-union sizes.
	MinUnion, MaxUnion int
	// DistinctGroups counts the distinct (model, union) requests.
	DistinctGroups int
	// AllTwoLabel and AllBipartite classify the grounded unions.
	AllTwoLabel, AllBipartite bool
	// Recommended is where MethodAdaptive routes with no deadline: the exact
	// solver of every group when all route to one, MethodAdaptive when they
	// differ or some group is sampled, MethodAuto when no session is live.
	Recommended Method
}

// UnionExplanation reports how a union query will be evaluated: one
// explanation per disjunct, plus the statistics of the merged per-session
// unions the evaluator actually solves.
type UnionExplanation struct {
	// Disjuncts holds the per-disjunct explanations.
	Disjuncts []*Explanation
	// Sessions is the total number of sessions of the shared p-relation.
	Sessions int
	// LiveSessions counts sessions whose merged union is non-empty.
	LiveSessions int
	// MinUnion and MaxUnion are the smallest and largest merged
	// per-session union sizes.
	MinUnion, MaxUnion int
	// DistinctGroups counts the distinct (model, merged union) requests.
	DistinctGroups int
	// AllTwoLabel and AllBipartite classify the merged unions.
	AllTwoLabel, AllBipartite bool
	// Recommended is Explanation.Recommended for the merged unions.
	Recommended Method
}

// Explain analyzes the query against the database without solving any
// inference problem.
func (e *Engine) Explain(q *Query) (*Explanation, error) {
	return e.explain(&UnionQuery{Disjuncts: []*Query{q}})
}

// ExplainUnion analyzes a union query, and each of its disjuncts alone,
// without solving any inference problem.
func (e *Engine) ExplainUnion(uq *UnionQuery) (*UnionExplanation, error) {
	m, err := e.explain(uq)
	if err != nil {
		return nil, err
	}
	ex := &UnionExplanation{
		Sessions: m.Sessions, LiveSessions: m.LiveSessions,
		MinUnion: m.MinUnion, MaxUnion: m.MaxUnion, DistinctGroups: m.DistinctGroups,
		AllTwoLabel: m.AllTwoLabel, AllBipartite: m.AllBipartite, Recommended: m.Recommended,
	}
	for i, q := range uq.Disjuncts {
		sub, err := e.Explain(q)
		if err != nil {
			return nil, fmt.Errorf("ppd: disjunct %d: %w", i+1, err)
		}
		ex.Disjuncts = append(ex.Disjuncts, sub)
	}
	return ex, nil
}

// explain is Explain over a union: the engine's grounding of uq, its
// grounders' static analysis, and the adaptive route of every group.
func (e *Engine) explain(uq *UnionQuery) (*Explanation, error) {
	grounders, err := UnionGrounders(e.DB, uq)
	if err != nil {
		return nil, err
	}
	gr, err := e.DB.Ground(context.TODO(), uq)
	if err != nil {
		return nil, err
	}
	ex := &Explanation{Query: uq.String(), PrefRelation: gr.pref, Sessions: gr.Sessions,
		LiveSessions: len(gr.Live), DistinctGroups: len(gr.Groups), AllTwoLabel: true, AllBipartite: true}
	for _, g := range grounders {
		ex.GroundVars = append(ex.GroundVars, g.vplus...)
	}
	slices.Sort(ex.GroundVars)
	ex.GroundVars = slices.Compact(ex.GroundVars)
	ex.Itemwise = len(ex.GroundVars) == 0
	for gi, g := range gr.Groups {
		n := len(g.Union)
		ex.Itemwise = ex.Itemwise && n == 1
		ex.MinUnion, ex.MaxUnion = min(cmp.Or(ex.MinUnion, n), n), max(ex.MaxUnion, n)
		ex.AllTwoLabel = ex.AllTwoLabel && g.Union.AllTwoLabel()
		ex.AllBipartite = ex.AllBipartite && g.Union.AllBipartite()
		budget := e.adaptiveBudget(drawPrice(e.knobs().sampleCeil, g.Model.M()))
		switch r := e.route(g.Model, g.Union, budget); {
		case r.plan == nil || gi > 0 && r.est.Solver != ex.Recommended:
			ex.Recommended = MethodAdaptive
		case gi == 0:
			ex.Recommended = r.est.Solver
		}
	}
	return ex, nil
}

// String renders the explanation.
func (ex *Explanation) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "query        : %s\n", ex.Query)
	fmt.Fprintf(&b, "p-relation   : %s (%d sessions, %d live)\n", ex.PrefRelation, ex.Sessions, ex.LiveSessions)
	class := "hard (non-itemwise)"
	if ex.Itemwise {
		class = "itemwise (tractable)"
	}
	fmt.Fprintf(&b, "class        : %s\n", class)
	if len(ex.GroundVars) > 0 {
		fmt.Fprintf(&b, "grounded vars: %s\n", strings.Join(ex.GroundVars, ", "))
	}
	writeRoute(&b, ex.MinUnion, ex.MaxUnion, ex.AllTwoLabel, ex.AllBipartite, ex.DistinctGroups, ex.Recommended)
	return b.String()
}

// String renders the union explanation.
func (ex *UnionExplanation) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "union of %d disjuncts over %d sessions (%d live after merging)\n",
		len(ex.Disjuncts), ex.Sessions, ex.LiveSessions)
	for i, sub := range ex.Disjuncts {
		fmt.Fprintf(&b, "-- disjunct %d --\n%s", i+1, sub)
	}
	fmt.Fprintf(&b, "-- merged --\n")
	writeRoute(&b, ex.MinUnion, ex.MaxUnion, ex.AllTwoLabel, ex.AllBipartite, ex.DistinctGroups, ex.Recommended)
	return b.String()
}

// writeRoute renders the lines both explanations share: union sizes,
// shape, groups and the recommended method.
func writeRoute(b *strings.Builder, minU, maxU int, allTwoLabel, allBipartite bool, groups int, rec Method) {
	shape := "general"
	if allTwoLabel {
		shape = "two-label"
	} else if allBipartite {
		shape = "bipartite"
	}
	fmt.Fprintf(b, "union sizes  : %d..%d patterns/session\n", minU, maxU)
	fmt.Fprintf(b, "shape        : %s\n", shape)
	fmt.Fprintf(b, "groups       : %d distinct (model, union) requests\n", groups)
	fmt.Fprintf(b, "recommended  : %s\n", rec)
}
