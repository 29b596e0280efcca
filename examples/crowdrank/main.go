// CrowdRank: the Figure 15 workload — a chain-shaped hard query joined with
// worker demographics, evaluated over many sessions with identical-request
// grouping.
//
// Run with: go run ./examples/crowdrank
package main

import (
	"context"
	"fmt"
	"log"
	"time"

	"probpref"
)

func main() {
	// The query (Section 6.4): does the worker prefer a short movie whose
	// lead actor matches their sex to a short movie whose lead actor is
	// around their age, which is in turn preferred to some thriller? The
	// chain m1 > m2 > m3 is not bipartite: this exercises the
	// relative-order solver.
	src := `P(v; m1; m2), P(v; m2; m3), V(v, sex, age), ` +
		`M(m1, _, sex, _, "short"), M(m2, _, _, age, "short"), M(m3, "Thriller", _, _, _)`
	q, err := probpref.ParseQuery(src)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("query:", q)
	fmt.Println()

	// A 10-movie HIT keeps each exact relative-order solve cheap so the
	// grouping effect, not the solver, dominates the timings. The naive
	// (ungrouped) strategy, which solves one inference problem per session
	// and grows linearly, is measured against grouping by
	// `go run ./cmd/experiments -fig 15` (the paper's Figure 15).
	for _, workers := range []int{50, 200, 800} {
		db, err := probpref.CrowdRankHIT(workers, 10, 15)
		if err != nil {
			log.Fatal(err)
		}

		grouped := &probpref.Engine{DB: db, Method: probpref.MethodRelOrder}
		start := time.Now()
		req := &probpref.Request{Kind: probpref.KindCount, Queries: []*probpref.Query{q}}
		res, err := grouped.Do(context.Background(), req)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("workers=%4d: count(Q) = %8.4f  distinct requests = %2d  %v\n",
			workers, res.Count, res.Solves, time.Since(start).Round(time.Millisecond))
	}
	fmt.Println("\ngrouping converges to the number of distinct (ranking model, demographic)")
	fmt.Println("requests as sessions grow — the paper's Figure 15.")
}
