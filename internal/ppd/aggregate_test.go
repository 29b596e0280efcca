package ppd

import (
	"context"
	"math"
	"testing"
)

// Aggregate must equal the hand-computed expectation: sum over sessions of
// Pr(Q|s) * attr(voter).
func TestAggregate(t *testing.T) {
	db := figure1DB(t)
	q := MustParse(`P(_, _; c1; c2), C(c1, R, _, _, _, _), C(c2, D, _, _, _, _)`)
	eng := &Engine{DB: db, Method: MethodAuto}
	res, err := evalBool(eng, q)
	if err != nil {
		t.Fatal(err)
	}
	// Ann is 20, Bob 30, Dave 50.
	ages := map[string]float64{"Ann": 20, "Bob": 30, "Dave": 50}
	wantSum, wantCount := 0.0, 0.0
	for _, sp := range res.PerSession {
		wantSum += sp.Prob * ages[sp.Session.Key[0]]
		wantCount += sp.Prob
	}
	agg, err := aggregate(eng, q, "V", "age")
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(agg.Sum-wantSum) > tol || math.Abs(agg.Count-wantCount) > tol {
		t.Fatalf("sum=%v count=%v, want %v %v", agg.Sum, agg.Count, wantSum, wantCount)
	}
	if math.Abs(agg.Avg-wantSum/wantCount) > tol {
		t.Fatalf("avg=%v, want %v", agg.Avg, wantSum/wantCount)
	}
	if agg.Sessions != 3 {
		t.Fatalf("sessions=%d", agg.Sessions)
	}
}

func TestAggregateErrors(t *testing.T) {
	db := figure1DB(t)
	eng := &Engine{DB: db, Method: MethodAuto}
	q := MustParse(`P(_, _; Trump; Clinton)`)
	if _, err := aggregate(eng, q, "Z", "age"); err == nil {
		t.Fatal("unknown relation accepted")
	}
	if _, err := aggregate(eng, q, "V", "bogus"); err == nil {
		t.Fatal("unknown attribute accepted")
	}
}

// Aggregate over a query no session can match yields a NaN average.
func TestAggregateEmpty(t *testing.T) {
	db := figure1DB(t)
	eng := &Engine{DB: db, Method: MethodAuto}
	// Session constants that match no session: every session is filtered
	// out during grounding.
	q := MustParse(`P(Zed, "9/9"; Trump; Clinton)`)
	agg, err := aggregate(eng, q, "V", "age")
	if err != nil {
		t.Fatal(err)
	}
	if agg.Count != 0 || !math.IsNaN(agg.Avg) {
		t.Fatalf("count=%v avg=%v", agg.Count, agg.Avg)
	}
}

// Parallel evaluation must match sequential exactly for exact solvers.
func TestEvalParallelMatchesSequential(t *testing.T) {
	db := figure1DB(t)
	q := MustParse(`P(_, _; c1; c2), C(c1, D, _, _, e, _), C(c2, R, _, _, e, _)`)
	seq := &Engine{DB: db, Method: MethodAuto}
	sres, err := evalBool(seq, q)
	if err != nil {
		t.Fatal(err)
	}
	par := &Engine{DB: db, Method: MethodAuto, Workers: 4}
	pres, err := evalBool(par, q)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(sres.Prob-pres.Prob) > tol || math.Abs(sres.Count-pres.Count) > tol {
		t.Fatalf("parallel %v/%v vs sequential %v/%v", pres.Prob, pres.Count, sres.Prob, sres.Count)
	}
	if len(pres.PerSession) != len(sres.PerSession) {
		t.Fatalf("session counts differ")
	}
	for i := range pres.PerSession {
		if math.Abs(pres.PerSession[i].Prob-sres.PerSession[i].Prob) > tol {
			t.Fatalf("session %d differs", i)
		}
	}
	if pres.Solves != sres.Solves {
		t.Fatalf("solves differ: %d vs %d", pres.Solves, sres.Solves)
	}
}

// Parallel evaluation with an approximate method must be deterministic for
// a fixed seed and close to the exact answer.
func TestEvalParallelSampler(t *testing.T) {
	db := figure1DB(t)
	q := MustParse(`P(_, _; c1; c2), C(c1, _, F, _, _, _), C(c2, _, M, _, _, _)`)
	exact, err := evalBool(&Engine{DB: db, Method: MethodAuto}, q)
	if err != nil {
		t.Fatal(err)
	}
	run := func() *Response {
		eng := &Engine{DB: db, Method: MethodMISLite, Workers: 3}
		res, err := evalBool(eng, q)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	a, b := run(), run()
	if math.Abs(a.Count-b.Count) > tol {
		t.Fatalf("parallel sampling not deterministic: %v vs %v", a.Count, b.Count)
	}
	if math.Abs(a.Count-exact.Count) > 0.15 {
		t.Fatalf("parallel sampler count %v, exact %v", a.Count, exact.Count)
	}
}

// TestConvenienceWrappers checks the kinds that project one evaluation: a
// count request reports the expectation a bool request computes beside its
// confidence, and a topk request returns its rows best first.
func TestConvenienceWrappers(t *testing.T) {
	db := figure1DB(t)
	eng := &Engine{DB: db, Method: MethodAuto}
	q := MustParse(`P(_, _; c1; c2), C(c1, _, F, _, _, _), C(c2, _, M, _, _, _)`)
	res, err := evalBool(eng, q)
	if err != nil {
		t.Fatal(err)
	}
	count, err := eng.Do(context.Background(), &Request{Kind: KindCount, Queries: []*Query{q}})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(count.Count-res.Count) > tol {
		t.Fatalf("count kind = %v, bool kind's Count = %v", count.Count, res.Count)
	}
	top, _, err := topK(eng, 2, 1, q)
	if err != nil {
		t.Fatal(err)
	}
	if len(top) != 2 || top[0].Prob < top[1].Prob {
		t.Fatalf("topk = %v", top)
	}
}
