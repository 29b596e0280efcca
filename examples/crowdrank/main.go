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
	// grouping effect, not the solver, dominates the timings. Naive
	// (ungrouped) evaluation solves one inference problem per session and
	// grows linearly; it is measured only at the smallest size, as in the
	// paper's Figure 15, where the naive series is capped.
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
		groupedTime := time.Since(start)

		naiveNote := "(not measured)"
		if workers <= 50 {
			naive := &probpref.Engine{DB: db, Method: probpref.MethodRelOrder, DisableGrouping: true}
			start = time.Now()
			if _, err := naive.Do(context.Background(), req); err != nil {
				log.Fatal(err)
			}
			naiveTime := time.Since(start)
			naiveNote = fmt.Sprintf("%v (%.1fx slower)",
				naiveTime.Round(time.Millisecond), naiveTime.Seconds()/groupedTime.Seconds())
		}

		fmt.Printf("workers=%4d: count(Q) = %8.4f  distinct requests = %2d  grouped %8v  naive %s\n",
			workers, res.Count, res.Solves,
			groupedTime.Round(time.Millisecond), naiveNote)
	}
	fmt.Println("\nnaive evaluation grows linearly with sessions; grouping converges to the")
	fmt.Println("number of distinct (ranking model, demographic) requests — the paper's Figure 15.")
}
