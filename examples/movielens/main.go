// MovieLens: the Figure 14 workload — a hard conjunctive query over a movie
// catalog whose grounding grows with genre diversity, evaluated with the
// MIS-AMP family of approximate solvers.
//
// Run with: go run ./examples/movielens
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
	// The query (Section 6.3): is Clerks (id 223) preferred to Taxi Driver
	// (id 111), and is some post-1990 movie preferred both to a pre-1990
	// movie of the same genre and to Taxi Driver?
	src := `P(_; 223; 111), P(_; x; 111), P(_; x; y), ` +
		`M(x, _, _, "post", g), M(y, _, _, "pre", g)`
	q, err := probpref.ParseQuery(src)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("query:", q)
	req := &probpref.Request{Kind: probpref.KindBool, Queries: []*probpref.Query{q}}
	fmt.Println()

	// Larger catalogs (up to 200 movies, as in the paper's Figure 14) are
	// exercised by `go run ./cmd/experiments -fig 14`.
	for _, movies := range []int{40, 80} {
		db, err := probpref.MovieLens(movies, 14)
		if err != nil {
			log.Fatal(err)
		}
		eng := &probpref.Engine{DB: db, Method: probpref.MethodMISAdaptive, Rng: rand.New(rand.NewSource(1))}
		start := time.Now()
		res, err := eng.Do(context.Background(), req)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("catalog m=%3d: Pr(Q|D) = %.4f  expected sessions = %.3f  (%d mixture components, %v)\n",
			movies, res.Prob, res.Count, len(res.PerSession), time.Since(start).Round(time.Millisecond))
	}

	fmt.Println("\nper-session detail at m=80 (each session is one Mallows mixture component):")
	db, err := probpref.MovieLens(80, 14)
	if err != nil {
		log.Fatal(err)
	}
	eng := &probpref.Engine{
		DB:     db,
		Method: probpref.MethodMISAdaptive,
		Rng:    rand.New(rand.NewSource(2)),
	}
	res, err := eng.Do(context.Background(), req)
	if err != nil {
		log.Fatal(err)
	}
	for _, sp := range res.PerSession[:5] {
		fmt.Printf("  component %v: Pr = %.4f\n", sp.Session.Key, sp.Prob)
	}
}
