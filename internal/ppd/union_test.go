package ppd

import (
	"math"
	"strings"
	"testing"

	"probpref/internal/rank"
	"probpref/internal/rim"
)

func TestParseUnionSplitting(t *testing.T) {
	uq, err := ParseUnion(`P(_, _; c1; c2), C(c1, _, "F", _, _, _) | P(_, _; c1; c2), C(c1, "D", _, _, _, _)`)
	if err != nil {
		t.Fatal(err)
	}
	if len(uq.Disjuncts) != 2 {
		t.Fatalf("got %d disjuncts, want 2", len(uq.Disjuncts))
	}
	if got := uq.String(); !strings.Contains(got, " | ") {
		t.Errorf("String() = %q lacks disjunct separator", got)
	}
}

func TestParseUnionSingleDisjunct(t *testing.T) {
	uq, err := ParseUnion(`P(_, _; c1; c2), C(c1, _, "F", _, _, _)`)
	if err != nil {
		t.Fatal(err)
	}
	if len(uq.Disjuncts) != 1 {
		t.Fatalf("got %d disjuncts, want 1", len(uq.Disjuncts))
	}
}

func TestParseUnionQuotedPipe(t *testing.T) {
	// A "|" inside a quoted constant must not split the query.
	uq, err := ParseUnion(`P(_, _; c1; c2), C(c1, _, "F|M", _, _, _)`)
	if err != nil {
		t.Fatal(err)
	}
	if len(uq.Disjuncts) != 1 {
		t.Fatalf("got %d disjuncts, want 1", len(uq.Disjuncts))
	}
	if v := uq.Disjuncts[0].Rels[0].Args[2].Value; v != "F|M" {
		t.Errorf("constant = %q, want F|M", v)
	}
}

func TestParseUnionErrors(t *testing.T) {
	cases := []string{
		``,                                    // empty
		`P(_, _; a; b) |`,                     // trailing empty disjunct
		`| P(_, _; a; b)`,                     // leading empty disjunct
		`P(_, _; a; b) | C(x, y)`,             // disjunct without preference atom
		`P(_, _; a; b) | R(_, _; a; b)`,       // different p-relations
		`P(_, _; c1; c2), C(c1, _, "F, _, _,`, // unterminated string
	}
	for _, src := range cases {
		if _, err := ParseUnion(src); err == nil {
			t.Errorf("ParseUnion(%q): want error", src)
		}
	}
}

func TestEvalUnionSingleDisjunctMatchesEval(t *testing.T) {
	db := figure1DB(t)
	eng := &Engine{DB: db, Method: MethodAuto}
	src := `P(_, _; c1; c2), C(c1, _, "F", _, _, _), C(c2, _, "M", _, _, _)`
	want, err := evalBool(eng, MustParse(src))
	if err != nil {
		t.Fatal(err)
	}
	got, err := evalBool(eng, MustParseUnion(src).Disjuncts...)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(got.Prob-want.Prob) > 1e-12 || math.Abs(got.Count-want.Count) > 1e-12 {
		t.Fatalf("union eval (%v, %v) != plain eval (%v, %v)", got.Prob, got.Count, want.Prob, want.Count)
	}
}

func TestEvalUnionIdenticalDisjunctsDeduplicate(t *testing.T) {
	db := figure1DB(t)
	eng := &Engine{DB: db, Method: MethodAuto}
	src := `P(_, _; c1; c2), C(c1, _, "F", _, _, _), C(c2, _, "M", _, _, _)`
	single, err := evalBool(eng, MustParseUnion(src).Disjuncts...)
	if err != nil {
		t.Fatal(err)
	}
	doubled, err := evalBool(eng, MustParseUnion(src+" | "+src).Disjuncts...)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(single.Prob-doubled.Prob) > 1e-12 {
		t.Fatalf("duplicated disjunct changed the answer: %v vs %v", single.Prob, doubled.Prob)
	}
}

// bruteUnionSession computes Pr(Q1 or Q2 | s) by enumeration from the
// merged grounded union, the semantic ground truth for EvalUnion.
func bruteUnionSession(t *testing.T, db *DB, uq *UnionQuery, s *Session) float64 {
	t.Helper()
	var unions []*Grounder
	for _, q := range uq.Disjuncts {
		g, err := NewGrounder(db, q)
		if err != nil {
			t.Fatal(err)
		}
		unions = append(unions, g)
	}
	total := 0.0
	lab := db.Labeling()
	rank.ForEachPermutation(db.M(), func(tau rank.Ranking) bool {
		match := false
		for _, g := range unions {
			gq, err := g.GroundSession(s)
			if err != nil {
				t.Fatal(err)
			}
			if gq.Union.Matches(tau, lab) {
				match = true
				break
			}
		}
		if match {
			total += s.Model.Prob(tau)
		}
		return true
	})
	return total
}

func TestEvalUnionMatchesBrute(t *testing.T) {
	db := figure1DB(t)
	eng := &Engine{DB: db, Method: MethodAuto}
	// Disjunction: a female candidate beats a male one, or a Democrat with a
	// BS beats a Republican.
	uq := MustParseUnion(
		`P(_, _; c1; c2), C(c1, _, "F", _, _, _), C(c2, _, "M", _, _, _)` +
			` | P(_, _; c1; c2), C(c1, "D", _, _, "BS", _), C(c2, "R", _, _, _, _)`)
	res, err := evalBool(eng, uq.Disjuncts...)
	if err != nil {
		t.Fatal(err)
	}
	pref := db.Prefs["P"]
	oneMinus := 1.0
	for i, s := range pref.Sessions.All() {
		want := bruteUnionSession(t, db, uq, s)
		got := res.PerSession[i].Prob
		if math.Abs(got-want) > 1e-9 {
			t.Fatalf("session %d: union prob %v, brute %v", i, got, want)
		}
		oneMinus *= 1 - want
	}
	if math.Abs(res.Prob-(1-oneMinus)) > 1e-9 {
		t.Fatalf("aggregate %v, want %v", res.Prob, 1-oneMinus)
	}
}

func TestEvalUnionBounds(t *testing.T) {
	db := figure1DB(t)
	eng := &Engine{DB: db, Method: MethodAuto}
	q1 := `P(_, _; c1; c2), C(c1, _, "F", _, _, _), C(c2, _, "M", _, _, _)`
	q2 := `P(_, _; c1; c2), C(c1, "D", _, _, _, _), C(c2, "R", _, _, _, _)`
	r1, err := evalBool(eng, MustParse(q1))
	if err != nil {
		t.Fatal(err)
	}
	r2, err := evalBool(eng, MustParse(q2))
	if err != nil {
		t.Fatal(err)
	}
	ru, err := evalBool(eng, MustParseUnion(q1+" | "+q2).Disjuncts...)
	if err != nil {
		t.Fatal(err)
	}
	for i := range ru.PerSession {
		pu := ru.PerSession[i].Prob
		p1, p2 := r1.PerSession[i].Prob, r2.PerSession[i].Prob
		lo := math.Max(p1, p2)
		hi := math.Min(1, p1+p2)
		if pu < lo-1e-9 || pu > hi+1e-9 {
			t.Fatalf("session %d: union prob %v outside [max=%v, sum=%v]", i, pu, lo, hi)
		}
	}
}

func TestEvalUnionRejectsMismatchedPrefRelations(t *testing.T) {
	db := figure1DB(t)
	// A second p-relation with a single session.
	second := &PrefRelation{
		Name:         "R",
		SessionAttrs: []string{"voter"},
		Sessions: SessionSlice{
			{Key: []string{"Zoe"}, Model: rim.MustMallows(rank.Identity(4), 0.5)},
		},
	}
	if err := db.AddPrefRelation(second); err != nil {
		t.Fatal(err)
	}
	eng := &Engine{DB: db, Method: MethodAuto}
	uq := &UnionQuery{Disjuncts: []*Query{
		MustParse(`P(_, _; c1; c2), C(c1, _, "F", _, _, _)`),
		MustParse(`R(_; c1; c2), C(c1, _, "F", _, _, _)`),
	}}
	if _, err := evalBool(eng, uq.Disjuncts...); err == nil {
		t.Fatal("want error for disjuncts over different p-relations")
	}
}

func TestCountDistributionUnion(t *testing.T) {
	db := figure1DB(t)
	eng := &Engine{DB: db, Method: MethodAuto}
	uq := MustParseUnion(
		`P(_, _; c1; c2), C(c1, _, "F", _, _, _), C(c2, _, "M", _, _, _)` +
			` | P(_, _; c1; c2), C(c1, "D", _, _, _, _), C(c2, "R", _, _, _, _)`)
	d, err := countDist(eng, uq.Disjuncts...)
	if err != nil {
		t.Fatal(err)
	}
	if d.N() != 3 {
		t.Fatalf("support over %d sessions, want 3", d.N())
	}
	res, err := evalBool(eng, uq.Disjuncts...)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(d.Mean()-res.Count) > 1e-9 {
		t.Fatalf("mean %v != Count %v", d.Mean(), res.Count)
	}
	if math.Abs(d.Tail(1)-res.Prob) > 1e-9 {
		t.Fatalf("Tail(1) %v != Prob %v", d.Tail(1), res.Prob)
	}
}

func TestEvalUnionAgreesAcrossSolvers(t *testing.T) {
	db := figure1DB(t)
	uq := MustParseUnion(
		`P(_, _; c1; c2), C(c1, _, "F", _, _, _), C(c2, _, "M", _, _, _)` +
			` | P(_, _; c1; c2), C(c1, "D", _, _, "JD", _), C(c2, "R", _, _, _, _)`)
	var ref *Response
	for _, m := range []Method{MethodAuto, MethodBipartite, MethodGeneral, MethodRelOrder} {
		eng := &Engine{DB: db, Method: m}
		res, err := evalBool(eng, uq.Disjuncts...)
		if err != nil {
			t.Fatalf("%v: %v", m, err)
		}
		if ref == nil {
			ref = res
			continue
		}
		if math.Abs(res.Prob-ref.Prob) > 1e-9 {
			t.Fatalf("%v: prob %v, reference %v", m, res.Prob, ref.Prob)
		}
	}
}
