package ppd

import (
	"fmt"
	"strings"

	"probpref/internal/pattern"
)

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
	// DistinctGroups is the number of distinct (model, merged union)
	// requests after grouping.
	DistinctGroups int
	// AllTwoLabel and AllBipartite classify the merged unions.
	AllTwoLabel, AllBipartite bool
	// Recommended is the suggested evaluation method for the merged
	// unions.
	Recommended Method
}

// ExplainUnion analyzes a union query without solving any inference
// problem.
func (e *Engine) ExplainUnion(uq *UnionQuery) (*UnionExplanation, error) {
	if err := uq.Validate(); err != nil {
		return nil, err
	}
	ex := &UnionExplanation{AllTwoLabel: true, AllBipartite: true}
	grounders := make([]*Grounder, len(uq.Disjuncts))
	for i, q := range uq.Disjuncts {
		sub, err := e.Explain(q)
		if err != nil {
			return nil, fmt.Errorf("ppd: disjunct %d: %w", i+1, err)
		}
		ex.Disjuncts = append(ex.Disjuncts, sub)
		g, err := NewGrounder(e.DB, q)
		if err != nil {
			return nil, fmt.Errorf("ppd: disjunct %d: %w", i+1, err)
		}
		grounders[i] = g
		if g.Pref() != grounders[0].Pref() {
			return nil, fmt.Errorf("ppd: disjuncts ground over different p-relations")
		}
	}
	sessions := grounders[0].Pref().Sessions
	ex.Sessions = sessions.Len()
	groups := map[string]bool{}
	wide := false
	for _, s := range sessions.All() {
		unions := make([]pattern.Union, 0, len(grounders))
		for _, g := range grounders {
			gq, err := g.GroundSession(s)
			if err != nil {
				return nil, err
			}
			unions = append(unions, gq.Union)
		}
		merged := pattern.Merge(unions...)
		if len(merged) == 0 {
			continue
		}
		ex.LiveSessions++
		if ex.MinUnion == 0 || len(merged) < ex.MinUnion {
			ex.MinUnion = len(merged)
		}
		ex.MaxUnion = max(ex.MaxUnion, len(merged))
		ex.AllTwoLabel = ex.AllTwoLabel && merged.AllTwoLabel()
		ex.AllBipartite = ex.AllBipartite && merged.AllBipartite()
		wide = wide || e.wide(merged)
		groups[s.Model.Rehash()+"||"+merged.Key()] = true
	}
	ex.DistinctGroups = len(groups)
	ex.Recommended = recommend(ex.AllTwoLabel, ex.AllBipartite, wide)
	return ex, nil
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
	fmt.Fprintf(&b, "union sizes  : %d..%d patterns/session\n", ex.MinUnion, ex.MaxUnion)
	fmt.Fprintf(&b, "shape        : %s\n", shapeName(ex.AllTwoLabel, ex.AllBipartite))
	fmt.Fprintf(&b, "groups       : %d distinct (model, union) requests\n", ex.DistinctGroups)
	fmt.Fprintf(&b, "recommended  : %s\n", ex.Recommended)
	return b.String()
}
