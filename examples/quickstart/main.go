// Quickstart: build the paper's Figure 1 polling database, ask the three
// introductory queries (Q0, Q1, Q2), and show direct solver access.
//
// Run with: go run ./examples/quickstart
package main

import (
	"context"
	"fmt"
	"log"

	"probpref"
)

func main() {
	db, err := probpref.Figure1()
	if err != nil {
		log.Fatal(err)
	}
	eng := &probpref.Engine{DB: db, Method: probpref.MethodAuto}
	// Every query class is one Request answered by Do; KindBool carries the
	// Boolean confidence, the expected count and the per-session rows.
	ask := func(query string) (*probpref.Response, error) {
		return eng.Do(context.Background(), &probpref.Request{Kind: probpref.KindBool, Query: query})
	}

	// Q0: does Ann (on 5/5) prefer Trump to both Clinton and Rubio?
	res, err := ask(`P(Ann, "5/5"; Trump; Clinton), P(Ann, "5/5"; Trump; Rubio)`)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("Q0  Pr(Ann prefers Trump to Clinton and Rubio) = %.4f\n", res.Prob)

	// Q1: is a female candidate preferred to a male candidate in any
	// session? (itemwise: tractable)
	res, err = ask(`P(_, _; c1; c2), C(c1, _, F, _, _, _), C(c2, _, M, _, _, _)`)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("Q1  Pr(some session prefers F to M)            = %.4f\n", res.Prob)
	fmt.Printf("Q1  expected #sessions satisfying the query    = %.4f\n", res.Count)
	for _, sp := range res.PerSession {
		fmt.Printf("      session %v: %.4f\n", sp.Session.Key, sp.Prob)
	}

	// Q2: a Democrat preferred to a Republican with the same education —
	// the paper's running example of a provably hard (non-itemwise) query.
	// The shared variable e is grounded over {BS, JD}, rewriting Q2 into a
	// union of itemwise queries.
	res, err = ask(`P(_, _; c1; c2), C(c1, D, _, _, e, _), C(c2, R, _, _, e, _)`)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("Q2  Pr(D preferred to R with same edu)         = %.4f\n", res.Prob)

	// Direct solver access: build a labeled Mallows model and a two-label
	// pattern by hand and solve it exactly.
	ml, err := probpref.NewMallows(probpref.Identity(5), 0.4)
	if err != nil {
		log.Fatal(err)
	}
	lab := probpref.NewLabeling()
	lab.Add(probpref.Item(4), probpref.Label(0)) // label 0 on the last item
	lab.Add(probpref.Item(0), probpref.Label(1)) // label 1 on the first item
	u := probpref.Union{probpref.TwoLabelPattern(
		probpref.LabelSet{0}, probpref.LabelSet{1})}
	p, err := probpref.SolveTwoLabel(ml.Model(), lab, u, probpref.SolverOptions{})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\ndirect: Pr(item4 ranked above item0 | MAL(id, 0.4)) = %.6f\n", p)
}
