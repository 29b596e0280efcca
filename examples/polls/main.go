// Polls: election-style preference analysis over the synthetic polling
// database of Section 6.1 — Boolean and Count-Session evaluation with every
// solver, and the Most-Probable-Session query with the upper-bound top-k
// optimization.
//
// Run with: go run ./examples/polls
package main

import (
	"context"
	"fmt"
	"log"
	"math/rand"
	"time"

	"probpref"
)

func main() {
	db, err := probpref.Polls(16, 80, 7)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("polls database: %d candidates, %d poll sessions\n\n",
		db.M(), db.Prefs["P"].Sessions.Len())

	// A hard (non-itemwise) query in the style of Figure 4: is a female
	// candidate with a JD preferred to a male candidate with a BS of the
	// same party? The party join variable p prevents label-pattern
	// reduction; grounding rewrites the query into a union of two-label
	// patterns per session (one per party).
	const query = `P(_, _; l; r), C(l, p, F, _, JD, _), C(r, p, M, _, BS, _)`
	ctx := context.Background()

	for _, m := range []struct {
		name   string
		method probpref.Method
	}{
		{"two-label (Alg 3)", probpref.MethodTwoLabel},
		{"bipartite (Alg 4)", probpref.MethodBipartite},
		{"general (I-E)", probpref.MethodGeneral},
		{"MIS-AMP-adaptive", probpref.MethodMISAdaptive},
	} {
		eng := &probpref.Engine{DB: db, Method: m.method, Rng: rand.New(rand.NewSource(1))}
		start := time.Now()
		res, err := eng.Do(ctx, &probpref.Request{Kind: probpref.KindBool, Query: query})
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%-18s Pr = %.4f  count = %8.4f  solves = %3d  (%v)\n",
			m.name, res.Prob, res.Count, res.Solves, time.Since(start).Round(time.Millisecond))
	}

	// Aggregation (the paper's future-work extension): the expected
	// average age of voters whose poll satisfies the query.
	eng := &probpref.Engine{DB: db, Method: probpref.MethodAuto}
	resp, err := eng.Do(ctx, &probpref.Request{
		Kind: probpref.KindAggregate, Query: query, AggRel: "V", AggAttr: "age",
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nexpected satisfying sessions: %.2f, average voter age among them: %.1f\n",
		resp.Agg.Count, resp.Agg.Avg)

	// Most-Probable-Session: which voters most strongly prefer a
	// same-party male to a same-party female? Compare the naive strategy
	// against the 1-edge and 2-edge upper-bound optimizations.
	fmt.Println("\ntop-3 most supportive sessions:")
	for _, mode := range []struct {
		name  string
		edges int
	}{{"naive", 0}, {"1-edge bounds", 1}, {"2-edge bounds", 2}} {
		start := time.Now()
		resp, err := eng.Do(ctx, &probpref.Request{
			Kind: probpref.KindTopK, Query: query, K: 3, BoundEdges: mode.edges,
		})
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("  %-14s evaluated %3d sessions exactly in %v\n",
			mode.name, resp.Diag.SessionsEvaluated, time.Since(start).Round(time.Millisecond))
		for i, sp := range resp.Top {
			fmt.Printf("      %d. voter %s (poll %s)  Pr = %.4f\n",
				i+1, sp.Session.Key[0], sp.Session.Key[1], sp.Prob)
		}
	}
}
