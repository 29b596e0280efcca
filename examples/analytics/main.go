// Election analytics: exact marginal inference over the Figure 1 polling
// database — pairwise preference matrices, Condorcet/Copeland/Borda
// summaries, rank marginals, the full distribution of a Count-Session
// query, a union query, and the "beyond RIM" models (Generalized Mallows,
// Plackett-Luce).
//
// Run with: go run ./examples/analytics
package main

import (
	"context"
	"fmt"
	"log"
	"math/rand"

	"probpref"
)

func main() {
	db, err := probpref.Figure1()
	if err != nil {
		log.Fatal(err)
	}
	polls := db.Prefs["P"]
	m := db.M()

	names := make([]string, m)
	for i := 0; i < m; i++ {
		names[i] = db.ItemKey(probpref.Item(i))
	}

	// Population-level pairwise matrix: the probability that a random voter
	// session prefers candidate a to candidate b, averaged over sessions.
	avg, err := probpref.PopulationPairwise(db, "P")
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("Pairwise preference probabilities (row preferred to column):")
	fmt.Printf("%-10s", "")
	for _, n := range names {
		fmt.Printf("%10s", n)
	}
	fmt.Println()
	for a := 0; a < m; a++ {
		fmt.Printf("%-10s", names[a])
		for b := 0; b < m; b++ {
			if a == b {
				fmt.Printf("%10s", "-")
			} else {
				fmt.Printf("%10.3f", avg[a][b])
			}
		}
		fmt.Println()
	}

	if w, ok := probpref.CondorcetWinner(avg); ok {
		fmt.Printf("\nExpected Condorcet winner: %s\n", names[w])
	} else {
		fmt.Println("\nNo expected Condorcet winner (preference cycle or tie).")
	}
	cop := probpref.CopelandScores(avg)
	borda := probpref.BordaScores(avg)
	fmt.Println("Copeland / Borda scores:")
	for i := 0; i < m; i++ {
		fmt.Printf("  %-10s Copeland %.1f   Borda %.3f\n", names[i], cop[i], borda[i])
	}

	// Rank marginals for Ann's session: where does each candidate land?
	ann := polls.Sessions.At(0)
	fmt.Printf("\nRank marginals for session (%s, %s):\n", ann.Key[0], ann.Key[1])
	rm := probpref.RankMarginals(ann.Model.Model())
	for i := 0; i < m; i++ {
		fmt.Printf("  %-10s", names[i])
		for p := 0; p < m; p++ {
			fmt.Printf(" P(rank %d)=%.3f", p+1, rm[i][p])
		}
		fmt.Println()
	}
	for i := 0; i < m; i++ {
		top, err := probpref.TopKProb(ann.Model.Model(), probpref.Item(i), 1)
		if err != nil {
			log.Fatal(err)
		}
		if top > 0.5 {
			fmt.Printf("  %s tops Ann's ranking with probability %.3f\n", names[i], top)
		}
	}

	// Count-Session distribution: among the three polled sessions, how many
	// prefer a Democrat to a Republican?
	eng := &probpref.Engine{DB: db, Method: probpref.MethodAuto}
	ctx := context.Background()
	resp, err := eng.Do(ctx, &probpref.Request{
		Kind:  probpref.KindCountDist,
		Query: `P(_, _; c1; c2), C(c1, "D", _, _, _, _), C(c2, "R", _, _, _, _)`,
	})
	if err != nil {
		log.Fatal(err)
	}
	dist := resp.Dist
	fmt.Println("\ncount(Q): sessions preferring some Democrat to some Republican")
	fmt.Printf("  mean %.3f  stddev %.3f  mode %d  median %d\n",
		dist.Mean(), dist.StdDev(), dist.Mode(), dist.Quantile(0.5))
	for k, p := range dist.PMF {
		fmt.Printf("  Pr(count = %d) = %.4f\n", k, p)
	}
	fmt.Printf("  Pr(count >= 2) = %.4f\n", dist.Tail(2))

	// Union query: a female candidate beats a male one, OR a JD-educated
	// Democrat beats a Republican.
	ru, err := eng.Do(ctx, &probpref.Request{
		Kind: probpref.KindBool,
		Query: `P(_, _; c1; c2), C(c1, _, "F", _, _, _), C(c2, _, "M", _, _, _)` +
			` | P(_, _; c1; c2), C(c1, "D", _, _, "JD", _), C(c2, "R", _, _, _, _)`,
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nUnion query: Pr = %.4f over %d solves\n", ru.Prob, ru.Solves)

	// Beyond RIM: a Generalized Mallows voter (certain about the top of the
	// ballot, uncertain about the bottom) and a Plackett-Luce voter.
	gm, err := probpref.NewGeneralizedMallows(
		ann.Model.Reference(), []float64{0, 0.1, 0.6, 0.9})
	if err != nil {
		log.Fatal(err)
	}
	gmTop, err := probpref.TopKProb(gm.Model(), ann.Model.Reference()[0], 1)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nGeneralized Mallows voter: Pr(%s stays on top) = %.3f (expected swaps %.2f)\n",
		names[ann.Model.Reference()[0]], gmTop, probpref.ExpectedDistanceToReference(gm.Model()))

	pl, err := probpref.NewPlackettLuce([]float64{1, 6, 3, 2})
	if err != nil {
		log.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1))
	fmt.Printf("Plackett-Luce voter: mode %v, Pr(%s first) = %.3f, a sampled ballot: %v\n",
		pl.Mode(), names[1], pl.TopProb(1), pl.Sample(rng))
}
