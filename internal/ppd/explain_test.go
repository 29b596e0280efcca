package ppd

import (
	"context"
	"fmt"
	"strings"
	"testing"

	"probpref/internal/rank"
	"probpref/internal/rim"
	"probpref/internal/solver"
)

func TestExplainUnion(t *testing.T) {
	db := figure1DB(t)
	eng := &Engine{DB: db}
	uq := MustParseUnion(
		`P(_, _; c1; c2), C(c1, _, "F", _, _, _), C(c2, _, "M", _, _, _)` +
			` | P(_, _; c1; c2), C(c1, "D", _, _, e, _), C(c2, "R", _, _, e, _)`)
	ex, err := eng.ExplainUnion(uq)
	if err != nil {
		t.Fatal(err)
	}
	if len(ex.Disjuncts) != 2 {
		t.Fatalf("disjuncts = %d, want 2", len(ex.Disjuncts))
	}
	if ex.Sessions != 3 || ex.LiveSessions != 3 {
		t.Fatalf("sessions = %d live = %d, want 3/3", ex.Sessions, ex.LiveSessions)
	}
	// First disjunct is itemwise, second is hard with grounded variable e.
	if !ex.Disjuncts[0].Itemwise {
		t.Error("first disjunct should be itemwise")
	}
	if ex.Disjuncts[1].Itemwise {
		t.Error("second disjunct should be hard")
	}
	if len(ex.Disjuncts[1].GroundVars) != 1 || ex.Disjuncts[1].GroundVars[0] != "e" {
		t.Errorf("ground vars = %v, want [e]", ex.Disjuncts[1].GroundVars)
	}
	// Both disjuncts produce two-label patterns, so the merged union is
	// two-label and the merged size is 1 (F>M) + 2 (e in {BS, JD}) = 3.
	if !ex.AllTwoLabel {
		t.Error("merged union should be two-label")
	}
	if ex.MaxUnion != 3 {
		t.Errorf("max merged union = %d, want 3", ex.MaxUnion)
	}
	if ex.Recommended != MethodTwoLabel {
		t.Errorf("recommended = %v, want two-label", ex.Recommended)
	}
	s := ex.String()
	for _, want := range []string{"union of 2 disjuncts", "-- merged --", "two-label"} {
		if !strings.Contains(s, want) {
			t.Errorf("String() missing %q:\n%s", want, s)
		}
	}
}

func TestExplainUnionConsistentWithEval(t *testing.T) {
	db := figure1DB(t)
	eng := &Engine{DB: db, Method: MethodAuto}
	uq := MustParseUnion(
		`P(_, _; c1; c2), C(c1, _, "F", _, _, _), C(c2, _, M, _, _, _)` +
			` | P(_, _; c1; c2), C(c1, "D", _, _, "JD", _), C(c2, "R", _, _, _, _)`)
	ex, err := eng.ExplainUnion(uq)
	if err != nil {
		t.Fatal(err)
	}
	res, err := evalBool(eng, uq.Disjuncts...)
	if err != nil {
		t.Fatal(err)
	}
	if ex.DistinctGroups != res.Solves {
		t.Fatalf("explain groups %d != eval solves %d", ex.DistinctGroups, res.Solves)
	}
	if ex.LiveSessions != len(res.PerSession) {
		t.Fatalf("explain live %d != eval sessions %d", ex.LiveSessions, len(res.PerSession))
	}
}

func TestExplainUnionErrors(t *testing.T) {
	db := figure1DB(t)
	eng := &Engine{DB: db}
	if _, err := eng.ExplainUnion(&UnionQuery{}); err == nil {
		t.Error("empty union accepted")
	}
	uq := &UnionQuery{Disjuncts: []*Query{
		MustParse(`P(_, _; c1; c2), C(c1, _, "F", _, _, _)`),
		MustParse(`Nope(_, _; c1; c2), C(c1, _, "F", _, _, _)`),
	}}
	if _, err := eng.ExplainUnion(uq); err == nil {
		t.Error("unknown p-relation accepted")
	}
}

// Explain and ExplainUnion recommend one method for one query, read off the
// adaptive route of every group, not only the first one's. Of 14 items, 3
// are in group A and 11 in group B; ann (group A, narrow) precedes bob
// (group B, wide), whose group no exact plan prices within the default
// budget, so the route samples it and both recommend adaptive.
func TestExplainRecommendsLikeExplainUnion(t *testing.T) {
	items := make([][]string, 14)
	for i := range items {
		g := "B"
		if i < 3 {
			g = "A"
		}
		items[i] = []string{fmt.Sprintf("i%d", i), g}
	}
	cat, err := NewRelation("C", []string{"item", "g"}, items)
	if err != nil {
		t.Fatal(err)
	}
	db, err := NewDB(cat)
	if err != nil {
		t.Fatal(err)
	}
	voters, err := NewRelation("V", []string{"voter", "g"}, [][]string{{"ann", "A"}, {"bob", "B"}})
	if err != nil {
		t.Fatal(err)
	}
	if err := db.AddRelation(voters); err != nil {
		t.Fatal(err)
	}
	if err := db.AddPrefRelation(&PrefRelation{
		Name:         "P",
		SessionAttrs: []string{"voter"},
		Sessions: SessionSlice{
			{Key: []string{"ann"}, Model: rim.MustMallows(rank.Identity(14), 0.5)},
			{Key: []string{"bob"}, Model: rim.MustMallows(rank.Identity(14), 0.5)},
		},
	}); err != nil {
		t.Fatal(err)
	}
	eng := &Engine{DB: db}
	q := MustParse(`P(v; x; y), P(v; y; z), V(v, g), C(x, g), C(y, g), C(z, g)`)
	gr, err := db.Ground(context.Background(), &UnionQuery{Disjuncts: []*Query{q}})
	if err != nil {
		t.Fatal(err)
	}
	bob := gr.Groups[gr.Live[1].Group]
	budget := drawPrice(adaptiveSampleCeil, db.M())
	if est := EstimateCost(bob.Model, db.Labeling(), bob.Union, solver.Options{}.MaxInvolvedLimit()); est.States <= budget {
		t.Fatalf("fixture: bob's group is priced %g by %v, within the default budget %g", est.States, est.Solver, budget)
	}
	ex, err := eng.Explain(q)
	if err != nil {
		t.Fatal(err)
	}
	uex, err := eng.ExplainUnion(&UnionQuery{Disjuncts: []*Query{q}})
	if err != nil {
		t.Fatal(err)
	}
	if ex.LiveSessions != 2 || ex.AllBipartite {
		t.Fatalf("fixture: %d live sessions, bipartite %v; want 2 general", ex.LiveSessions, ex.AllBipartite)
	}
	if ex.Recommended != MethodAdaptive || uex.Recommended != MethodAdaptive {
		t.Fatalf("Explain recommends %v, ExplainUnion %v; want %v from both", ex.Recommended, uex.Recommended, MethodAdaptive)
	}
}

// GroundVars lists V+ only: a variable that a context atom binds is never
// grounded, whether it carries a comparison (a) or occurs twice among the
// item atoms (s), and neither makes the query hard.
func TestExplainGroundVarsExcludeBoundVariables(t *testing.T) {
	eng := &Engine{DB: figure1DB(t)}
	for _, text := range []string{
		`P(v, _; c1; c2), V(v, _, a, _), a > 25, C(c1, _, F, _, _, _), C(c2, _, M, _, _, _)`,
		`P(v, _; c1; c2), V(v, s, _, _), C(c1, _, s, _, _, _), C(c2, D, s, _, _, _)`,
	} {
		ex, err := eng.Explain(MustParse(text))
		if err != nil {
			t.Fatal(err)
		}
		if len(ex.GroundVars) != 0 || !ex.Itemwise || ex.LiveSessions == 0 {
			t.Errorf("%s: grounded vars %v, itemwise %v, %d live; want none, itemwise, some live",
				text, ex.GroundVars, ex.Itemwise, ex.LiveSessions)
		}
		if s := ex.String(); strings.Contains(s, "grounded vars") {
			t.Errorf("%s: String() lists grounded vars:\n%s", text, s)
		}
	}
}
