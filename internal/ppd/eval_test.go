package ppd

import (
	"context"
	"math"
	"math/rand"
	"reflect"
	"testing"

	"probpref/internal/pattern"
	"probpref/internal/solver"
)

const tol = 1e-9

// evalBySession computes the reference answer with brute force: ground each
// session, enumerate all rankings.
func bruteEval(t *testing.T, db *DB, q *Query) (prob, count float64, perSession []float64) {
	t.Helper()
	g, err := NewGrounder(db, q)
	if err != nil {
		t.Fatal(err)
	}
	oneMinus := 1.0
	for _, s := range g.Pref().Sessions.All() {
		gq, err := g.GroundSession(s)
		if err != nil {
			t.Fatal(err)
		}
		if len(gq.Union) == 0 {
			continue
		}
		p := solver.Brute(s.Model.Model(), db.Labeling(), gq.Union)
		perSession = append(perSession, p)
		count += p
		oneMinus *= 1 - p
	}
	return 1 - oneMinus, count, perSession
}

func TestEvalQ0(t *testing.T) {
	db := figure1DB(t)
	q := MustParse(`P(Ann, "5/5"; Trump; Clinton), P(Ann, "5/5"; Trump; Rubio)`)
	wantProb, wantCount, per := bruteEval(t, db, q)
	if len(per) != 1 {
		t.Fatalf("expected exactly one live session, got %d", len(per))
	}
	eng := &Engine{DB: db, Method: MethodAuto}
	res, err := evalBool(eng, q)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(res.Prob-wantProb) > tol || math.Abs(res.Count-wantCount) > tol {
		t.Fatalf("prob=%v count=%v, want %v %v", res.Prob, res.Count, wantProb, wantCount)
	}
	if len(res.PerSession) != 1 || res.Solves != 1 {
		t.Fatalf("sessions=%d solves=%d", len(res.PerSession), res.Solves)
	}
}

// All solver methods must agree with brute force on the Figure 1 instance.
func TestEvalMethodsAgree(t *testing.T) {
	db := figure1DB(t)
	queries := []string{
		`P(_, _; c1; c2), C(c1, _, F, _, _, _), C(c2, _, M, _, _, _)`,
		`P(_, _; c1; c2), C(c1, D, _, _, e, _), C(c2, R, _, _, e, _)`,
		`P(_, _; Trump; Clinton)`,
	}
	for _, src := range queries {
		q := MustParse(src)
		wantProb, wantCount, _ := bruteEval(t, db, q)
		for _, m := range []Method{MethodAuto, MethodTwoLabel, MethodBipartite, MethodGeneral, MethodRelOrder} {
			if m == MethodTwoLabel && src == queries[0] {
				// Q1 is itemwise two-label, fine; all are two-label here.
				_ = m
			}
			eng := &Engine{DB: db, Method: m}
			res, err := evalBool(eng, q)
			if err != nil {
				t.Fatalf("%s method %v: %v", src, m, err)
			}
			if math.Abs(res.Prob-wantProb) > tol {
				t.Fatalf("%s method %v: prob=%v, want %v", src, m, res.Prob, wantProb)
			}
			if math.Abs(res.Count-wantCount) > tol {
				t.Fatalf("%s method %v: count=%v, want %v", src, m, res.Count, wantCount)
			}
		}
	}
}

// Approximate methods must land close to the exact answer.
func TestEvalApproximateMethods(t *testing.T) {
	db := figure1DB(t)
	q := MustParse(`P(_, _; c1; c2), C(c1, _, F, _, _, _), C(c2, _, M, _, _, _)`)
	wantProb, _, _ := bruteEval(t, db, q)
	for _, m := range []Method{MethodMISAdaptive, MethodMISLite, MethodRejection} {
		eng := Tune(&Engine{DB: db, Method: m, Rng: rand.New(rand.NewSource(9))}, Tuning{Draws: 50000, Proposals: 8, Samples: 2000})
		res, err := evalBool(eng, q)
		if err != nil {
			t.Fatalf("method %v: %v", m, err)
		}
		if math.Abs(res.Prob-wantProb) > 0.05 {
			t.Fatalf("method %v: prob=%v, want ~%v", m, res.Prob, wantProb)
		}
	}
}

// Grouping identical (model, union) pairs must reduce solver invocations
// without changing results.
func TestEvalGrouping(t *testing.T) {
	db := figure1DB(t)
	// Eve shares Ann's Mallows model exactly; the query grounds to the same
	// pattern for every session, so Ann's and Eve's requests are identical.
	// Dave shares Ann's center but not phi, so his request is distinct.
	polls := db.Prefs["P"]
	polls.Sessions = ConcatSessions(polls.Sessions, SessionSlice{{
		Key:   []string{"Eve", "5/5"},
		Model: polls.Sessions.At(0).Model,
	}})
	q := MustParse(`P(_, _; c1; c2), C(c1, _, F, _, _, _), C(c2, _, M, _, _, _)`)
	grouped := &Engine{DB: db, Method: MethodAuto}
	res1, err := evalBool(grouped, q)
	if err != nil {
		t.Fatal(err)
	}
	res2 := ungrouped(t, grouped, q)
	if math.Abs(res1.Prob-res2.Prob) > tol || math.Abs(res1.Count-res2.Count) > tol {
		t.Fatalf("grouping changed results: %v vs %v", res1, res2)
	}
	if res2.Solves != 4 {
		t.Fatalf("ungrouped solves = %d, want 4", res2.Solves)
	}
	if res1.Solves != 3 {
		t.Fatalf("grouped solves = %d, want 3", res1.Solves)
	}
}

// Bounded top-k returns the naive ranking. On a two-label query, whose
// groups are their own bounds, it returns the naive ranking bit for bit and
// solves no relaxation; on a chain it ranks by relaxation bounds.
func TestTopKNaiveMatchesOptimized(t *testing.T) {
	db := figure1DB(t)
	eng := &Engine{DB: db, Method: MethodAuto}
	for _, tc := range []struct {
		q        string
		twoLabel bool
	}{
		{`P(_, _; c1; c2), C(c1, _, F, _, _, _), C(c2, _, M, _, _, _)`, true},
		{figure1Chain, false},
	} {
		q := MustParse(tc.q)
		for _, k := range []int{1, 2, 3, 5} {
			naive, naiveDiag, err := topK(eng, k, 0, q)
			if err != nil {
				t.Fatal(err)
			}
			for _, edges := range []int{1, 2} {
				opt, diag, err := topK(eng, k, edges, q)
				if err != nil {
					t.Fatal(err)
				}
				if len(opt) != len(naive) {
					t.Fatalf("k=%d edges=%d: %d results vs %d", k, edges, len(opt), len(naive))
				}
				for i := range opt {
					if math.Abs(opt[i].Prob-naive[i].Prob) > tol {
						t.Fatalf("k=%d edges=%d pos=%d: prob %v vs %v", k, edges, i, opt[i].Prob, naive[i].Prob)
					}
				}
				if !tc.twoLabel {
					if diag.BoundSolves == 0 {
						t.Fatalf("%s: optimized run did not compute bounds", tc.q)
					}
					continue
				}
				if !reflect.DeepEqual(opt, naive) {
					t.Fatalf("k=%d edges=%d: %v, naive %v", k, edges, opt, naive)
				}
				if diag.BoundSolves != 0 || diag.ExactSolves != naiveDiag.ExactSolves {
					t.Fatalf("k=%d edges=%d: diag %+v, want no bound solves and the naive run's %d exact solves", k, edges, diag, naiveDiag.ExactSolves)
				}
			}
		}
	}
}

// On a larger instance with distinctly ranked sessions, the optimization
// must skip exact evaluation of some sessions.
func TestTopKSkipsSessions(t *testing.T) {
	db := figure1DB(t)
	q := MustParse(`P(_, _; c1; c2), C(c1, _, F, _, _, _), C(c2, R, _, _, _, _)`)
	eng := &Engine{DB: db, Method: MethodAuto}
	opt, diag, err := topK(eng, 1, 1, q)
	if err != nil {
		t.Fatal(err)
	}
	if len(opt) != 1 {
		t.Fatalf("results = %d", len(opt))
	}
	naive, _, err := topK(eng, 1, 0, q)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(opt[0].Prob-naive[0].Prob) > tol {
		t.Fatalf("optimized top-1 %v != naive %v", opt[0].Prob, naive[0].Prob)
	}
	if diag.SessionsEvaluated > 3 {
		t.Fatalf("evaluated %d sessions", diag.SessionsEvaluated)
	}
}

// Upper bounds must dominate exact probabilities on every session.
func TestTopKBoundsDominate(t *testing.T) {
	db := figure1DB(t)
	q := MustParse(`P(_, _; c1; c2), C(c1, _, F, _, _, _), C(c2, _, M, _, _, _)`)
	g, err := NewGrounder(db, q)
	if err != nil {
		t.Fatal(err)
	}
	eng := &Engine{DB: db, Method: MethodAuto}
	for _, s := range g.Pref().Sessions.All() {
		gq, err := g.GroundSession(s)
		if err != nil {
			t.Fatal(err)
		}
		exact, _, err := eng.solve(context.Background(), MethodAuto, 0, s.Model, gq.Union)
		if err != nil {
			t.Fatal(err)
		}
		for _, edges := range []int{1, 2, 3} {
			bu := pattern.BoundUnion(gq.Union, s.Model.Reference(), db.Labeling(), edges)
			bound, err := solver.Bipartite(s.Model.Model(), db.Labeling(), bu, solver.Options{})
			if err != nil {
				t.Fatal(err)
			}
			if bound < exact-tol {
				t.Fatalf("bound %v below exact %v (edges=%d)", bound, exact, edges)
			}
		}
	}
}

func TestEvalUnknownMethod(t *testing.T) {
	db := figure1DB(t)
	eng := &Engine{DB: db, Method: Method(99)}
	if _, err := evalBool(eng, MustParse(`P(_, _; Trump; Clinton)`)); err == nil {
		t.Fatal("expected error for unknown method")
	}
}
