package probpref_test

import (
	"context"
	"fmt"
	"log"

	"probpref"
)

// Evaluate the paper's hard query Q2 — a Democrat preferred to a Republican
// with the same education — over the Figure 1 polling database.
func Example() {
	db, err := probpref.Figure1()
	if err != nil {
		log.Fatal(err)
	}
	eng := &probpref.Engine{DB: db, Method: probpref.MethodAuto}
	res, err := eng.Do(context.Background(), &probpref.Request{
		Kind:  probpref.KindBool,
		Query: `P(_, _; c1; c2), C(c1, D, _, _, e, _), C(c2, R, _, _, e, _)`,
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("Pr(Q|D) = %.4f\n", res.Prob)
	fmt.Printf("count(Q) = %.4f\n", res.Count)
	// Output:
	// Pr(Q|D) = 0.9992
	// count(Q) = 2.1351
}

// Solve a pattern-union inference problem directly: the probability that a
// random ranking from MAL(<0..4>, 0.4) places the last reference item above
// the first.
func ExampleSolveTwoLabel() {
	ml, err := probpref.NewMallows(probpref.Identity(5), 0.4)
	if err != nil {
		log.Fatal(err)
	}
	lab := probpref.NewLabeling()
	lab.Add(probpref.Item(4), probpref.Label(0))
	lab.Add(probpref.Item(0), probpref.Label(1))
	u := probpref.Union{probpref.TwoLabelPattern(probpref.LabelSet{0}, probpref.LabelSet{1})}
	p, err := probpref.SolveTwoLabel(ml.Model(), lab, u, probpref.SolverOptions{})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("%.6f\n", p)
	// Output:
	// 0.053361
}

// Ask for the sessions most likely to satisfy a query, using the
// upper-bound top-k optimization.
func ExampleEngine_Do_topK() {
	db, err := probpref.Figure1()
	if err != nil {
		log.Fatal(err)
	}
	eng := &probpref.Engine{DB: db, Method: probpref.MethodAuto}
	resp, err := eng.Do(context.Background(), &probpref.Request{
		Kind:  probpref.KindTopK,
		Query: `P(_, _; c1; c2), C(c1, _, F, _, _, _), C(c2, _, M, _, _, _)`,
		K:     1, BoundEdges: 1,
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("%s: %.4f\n", resp.Top[0].Session.Key[0], resp.Top[0].Prob)
	// Output:
	// Ann: 0.9809
}

// Explain a query without evaluating it.
func ExampleEngine_Explain() {
	db, err := probpref.Figure1()
	if err != nil {
		log.Fatal(err)
	}
	eng := &probpref.Engine{DB: db}
	q, err := probpref.ParseQuery(
		`P(_, _; c1; c2), C(c1, D, _, _, e, _), C(c2, R, _, _, e, _)`)
	if err != nil {
		log.Fatal(err)
	}
	ex, err := eng.Explain(q)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println(ex.Itemwise, ex.GroundVars, ex.Recommended)
	// Output:
	// false [e] two-label
}

// Aggregate a session attribute over satisfying sessions: the expected
// average age of voters who prefer a Republican to a Democrat.
func ExampleEngine_Do_aggregate() {
	db, err := probpref.Figure1()
	if err != nil {
		log.Fatal(err)
	}
	eng := &probpref.Engine{DB: db, Method: probpref.MethodAuto}
	resp, err := eng.Do(context.Background(), &probpref.Request{
		Kind:   probpref.KindAggregate,
		Query:  `P(_, _; c1; c2), C(c1, R, _, _, _, _), C(c2, D, _, _, _, _)`,
		AggRel: "V", AggAttr: "age",
	})
	if err != nil {
		log.Fatal(err)
	}
	agg := resp.Agg
	fmt.Printf("expected satisfying sessions: %.3f, average age: %.1f\n", agg.Count, agg.Avg)
	// Output:
	// expected satisfying sessions: 1.877, average age: 34.0
}
