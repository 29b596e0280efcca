package ppd

import (
	"fmt"
	"sort"
	"strings"

	"probpref/internal/pattern"
)

// Explanation reports how a query will be evaluated: its classification
// (itemwise vs. hard), the variables that force grounding, per-session
// pattern-union sizes, and the distinct request groups the solvers will
// actually process.
type Explanation struct {
	// Query is the parsed query text.
	Query string
	// PrefRelation is the queried p-relation.
	PrefRelation string
	// Sessions is the total number of sessions.
	Sessions int
	// LiveSessions is the number of sessions passing session filters.
	LiveSessions int
	// Itemwise reports whether every live session reduced to a single
	// pattern without grounding (the tractable class).
	Itemwise bool
	// GroundVars lists the variables instantiated by Algorithm 2 (V+),
	// unioned over sessions.
	GroundVars []string
	// MinUnion and MaxUnion are the smallest and largest per-session
	// pattern-union sizes.
	MinUnion, MaxUnion int
	// DistinctGroups is the number of distinct (model, union) requests
	// after grouping.
	DistinctGroups int
	// AllTwoLabel and AllBipartite classify the grounded unions.
	AllTwoLabel, AllBipartite bool
	// Recommended is the suggested evaluation method.
	Recommended Method
}

// Explain analyzes the query against the database without solving any
// inference problem.
func (e *Engine) Explain(q *Query) (*Explanation, error) {
	g, err := NewGrounder(e.DB, q)
	if err != nil {
		return nil, err
	}
	ex := &Explanation{
		Query:        q.String(),
		PrefRelation: g.Pref().Name,
		Sessions:     g.Pref().Sessions.Len(),
		Itemwise:     true,
		AllTwoLabel:  true,
		AllBipartite: true,
	}
	groundVars := map[string]bool{}
	groups := map[string]bool{}
	wide := false
	for _, s := range g.Pref().Sessions.All() {
		gq, err := g.GroundSession(s)
		if err != nil {
			return nil, err
		}
		if len(gq.Union) == 0 {
			continue
		}
		ex.LiveSessions++
		ex.Itemwise = ex.Itemwise && gq.Itemwise
		if ex.MinUnion == 0 || len(gq.Union) < ex.MinUnion {
			ex.MinUnion = len(gq.Union)
		}
		ex.MaxUnion = max(ex.MaxUnion, len(gq.Union))
		ex.AllTwoLabel = ex.AllTwoLabel && gq.Union.AllTwoLabel()
		ex.AllBipartite = ex.AllBipartite && gq.Union.AllBipartite()
		wide = wide || e.wide(gq.Union)
		groups[s.Model.Rehash()+"||"+gq.Union.Key()] = true
		for v := range g.varComps {
			groundVars[v] = true
		}
		env := map[string]string{}
		vplus, _, err := g.domains(env)
		if err == nil {
			for _, v := range vplus {
				groundVars[v] = true
			}
		}
	}
	ex.DistinctGroups = len(groups)
	for v := range groundVars {
		ex.GroundVars = append(ex.GroundVars, v)
	}
	sort.Strings(ex.GroundVars)
	ex.Recommended = recommend(ex.AllTwoLabel, ex.AllBipartite, wide)
	return ex, nil
}

// wide reports whether exact relative-order inference over u is infeasible:
// u involves more than 10 items.
func (e *Engine) wide(u pattern.Union) bool {
	return len(pattern.InvolvedItems(u, e.DB.Labeling(), e.DB.M())) > 10
}

// recommend maps the shape of a query's grounded unions to the method
// Explain and ExplainUnion suggest: the exact solver specialised to the
// shape, or for a general shape relative-order inference, unless some live
// session's union is wide and only sampling is feasible.
func recommend(allTwoLabel, allBipartite, wide bool) Method {
	switch {
	case allTwoLabel:
		return MethodTwoLabel
	case allBipartite:
		return MethodBipartite
	case wide:
		return MethodMISAdaptive
	}
	return MethodRelOrder
}

// shapeName names the shape of a query's grounded unions.
func shapeName(allTwoLabel, allBipartite bool) string {
	switch {
	case allTwoLabel:
		return "two-label"
	case allBipartite:
		return "bipartite"
	}
	return "general"
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
	fmt.Fprintf(&b, "union sizes  : %d..%d patterns/session\n", ex.MinUnion, ex.MaxUnion)
	fmt.Fprintf(&b, "shape        : %s\n", shapeName(ex.AllTwoLabel, ex.AllBipartite))
	fmt.Fprintf(&b, "groups       : %d distinct (model, union) requests\n", ex.DistinctGroups)
	fmt.Fprintf(&b, "recommended  : %s\n", ex.Recommended)
	return b.String()
}
