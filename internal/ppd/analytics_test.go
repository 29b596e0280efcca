package ppd

import (
	"math"
	"testing"

	"probpref/internal/analytics"
	"probpref/internal/rank"
)

func TestPopulationPairwise(t *testing.T) {
	db := figure1DB(t)
	pm, err := db.PopulationPairwise("P")
	if err != nil {
		t.Fatal(err)
	}
	m := db.M()
	// Antisymmetry and range.
	for a := 0; a < m; a++ {
		if pm[a][a] != 0 {
			t.Errorf("diagonal pm[%d][%d] = %v", a, a, pm[a][a])
		}
		for b := 0; b < m; b++ {
			if a == b {
				continue
			}
			if pm[a][b] < 0 || pm[a][b] > 1 {
				t.Errorf("pm[%d][%d] = %v out of range", a, b, pm[a][b])
			}
			if math.Abs(pm[a][b]+pm[b][a]-1) > 1e-9 {
				t.Errorf("pm[%d][%d]+pm[%d][%d] = %v, want 1", a, b, b, a, pm[a][b]+pm[b][a])
			}
		}
	}
	// Hand-average the three session matrices.
	pref := db.Prefs["P"]
	want := 0.0
	for _, s := range pref.Sessions.All() {
		spm := analytics.PairwiseMatrix(s.Model.Model())
		want += spm[1][0] / 3
	}
	if math.Abs(pm[1][0]-want) > 1e-12 {
		t.Errorf("pm[1][0] = %v, hand average %v", pm[1][0], want)
	}
	// Two of three centers put Clinton(1) over Trump(0) with phi < 1, so the
	// population must favor Clinton.
	if pm[1][0] <= 0.5 {
		t.Errorf("population Pr(Clinton > Trump) = %v, want > 0.5", pm[1][0])
	}
}

func TestPopulationPairwiseErrors(t *testing.T) {
	db := figure1DB(t)
	if _, err := db.PopulationPairwise("missing"); err == nil {
		t.Error("want error for unknown p-relation")
	}
	empty := &PrefRelation{Name: "E", SessionAttrs: []string{"k"}}
	if err := db.AddPrefRelation(empty); err != nil {
		t.Fatal(err)
	}
	if _, err := db.PopulationPairwise("E"); err == nil {
		t.Error("want error for empty p-relation")
	}
	if _, err := db.PopulationRankMarginals("missing"); err == nil {
		t.Error("want error for unknown p-relation (marginals)")
	}
	if _, err := db.PopulationRankMarginals("E"); err == nil {
		t.Error("want error for empty p-relation (marginals)")
	}
}

func TestPopulationRankMarginals(t *testing.T) {
	db := figure1DB(t)
	rm, err := db.PopulationRankMarginals("P")
	if err != nil {
		t.Fatal(err)
	}
	m := db.M()
	for x := 0; x < m; x++ {
		row := 0.0
		for p := 0; p < m; p++ {
			row += rm[x][p]
		}
		if math.Abs(row-1) > 1e-9 {
			t.Errorf("row %d sums to %v", x, row)
		}
	}
	// The population expected rank of Clinton must beat Trump's (two of
	// three centers rank Clinton first).
	er := func(x int) float64 {
		e := 0.0
		for p := 0; p < m; p++ {
			e += float64(p) * rm[x][p]
		}
		return e
	}
	if er(1) >= er(0) {
		t.Errorf("expected rank Clinton %v >= Trump %v", er(1), er(0))
	}
}

// Top-k over a union query ranks by the probabilities the full evaluation
// computes. A union of two-label patterns is its own bound, so a bounded
// top-k solves each group exactly once and relaxes nothing; a union with a
// chain disjunct is bounded by relaxation solves.
func TestTopKUnionMatchesEvalUnion(t *testing.T) {
	db := figure1DB(t)
	eng := &Engine{DB: db, Method: MethodAuto}
	for _, tc := range []struct {
		name, q  string
		twoLabel bool
	}{
		{"two-label", `P(_, _; c1; c2), C(c1, _, "F", _, _, _), C(c2, _, "M", _, _, _)` +
			` | P(_, _; c1; c2), C(c1, "D", _, _, "JD", _), C(c2, "R", _, _, _, _)`, true},
		{"chain", figure1Chain + ` | P(_, _; c1; c2), C(c1, "D", _, _, "JD", _), C(c2, "R", _, _, _, _)`, false},
	} {
		uq := MustParseUnion(tc.q)
		res, err := evalBool(eng, uq.Disjuncts...)
		if err != nil {
			t.Fatal(err)
		}
		for _, bound := range []int{0, 1, 2} {
			top, diag, err := topK(eng, 2, bound, uq.Disjuncts...)
			if err != nil {
				t.Fatalf("%s bound %d: %v", tc.name, bound, err)
			}
			if len(top) != 2 {
				t.Fatalf("%s bound %d: got %d sessions, want 2", tc.name, bound, len(top))
			}
			if top[0].Prob < top[1].Prob {
				t.Fatalf("%s bound %d: results not sorted", tc.name, bound)
			}
			// The winner's probability must match the full evaluation.
			best := 0.0
			for _, sp := range res.PerSession {
				if sp.Prob > best {
					best = sp.Prob
				}
			}
			if math.Abs(top[0].Prob-best) > 1e-9 {
				t.Fatalf("%s bound %d: top prob %v, eval best %v", tc.name, bound, top[0].Prob, best)
			}
			switch {
			case bound == 0:
			case tc.twoLabel:
				if diag.BoundSolves != 0 || diag.ExactSolves != res.Solves {
					t.Fatalf("%s bound %d: diag %+v, want no bound solves and the %d groups solved exactly", tc.name, bound, diag, res.Solves)
				}
			case diag.BoundSolves == 0:
				t.Fatalf("%s bound %d: no bound solves recorded", tc.name, bound)
			}
		}
	}
}

func TestTopKUnionRejectsMismatchedPrefRelations(t *testing.T) {
	db := figure1DB(t)
	second := &PrefRelation{
		Name:         "R",
		SessionAttrs: []string{"voter", "date"},
		Sessions:     SessionSlice{db.Prefs["P"].Sessions.At(0)},
	}
	if err := db.AddPrefRelation(second); err != nil {
		t.Fatal(err)
	}
	eng := &Engine{DB: db, Method: MethodAuto}
	uq := &UnionQuery{Disjuncts: []*Query{
		MustParse(`P(_, _; c1; c2), C(c1, _, "F", _, _, _)`),
		MustParse(`R(_, _; c1; c2), C(c1, _, "F", _, _, _)`),
	}}
	if _, _, err := topK(eng, 1, 1, uq.Disjuncts...); err == nil {
		t.Fatal("want error for disjuncts over different p-relations")
	}
}

func TestPopulationPairwiseCondorcet(t *testing.T) {
	db := figure1DB(t)
	pm, err := db.PopulationPairwise("P")
	if err != nil {
		t.Fatal(err)
	}
	w, ok := analytics.CondorcetWinner(pm)
	if !ok {
		t.Fatal("expected a Condorcet winner in the Figure 1 population")
	}
	if db.ItemKey(rank.Item(w)) != "Clinton" {
		t.Fatalf("Condorcet winner = %s, want Clinton", db.ItemKey(rank.Item(w)))
	}
}
