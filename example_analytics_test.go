package probpref_test

import (
	"context"
	"fmt"
	"log"

	"probpref"
)

// Compute exact pairwise marginals and the expected Condorcet winner of
// Ann's polling session.
func ExamplePairwiseMatrix() {
	db, err := probpref.Figure1()
	if err != nil {
		log.Fatal(err)
	}
	ann := db.Prefs["P"].Sessions.At(0)
	pm := probpref.PairwiseMatrix(ann.Model.Model())
	fmt.Printf("Pr(Clinton > Trump) = %.4f\n", pm[1][0])
	if w, ok := probpref.CondorcetWinner(pm); ok {
		fmt.Printf("Condorcet winner: %s\n", db.ItemKey(w))
	}
	// Output:
	// Pr(Clinton > Trump) = 0.9494
	// Condorcet winner: Clinton
}

// The exact distribution of the number of sessions preferring some Democrat
// to some Republican.
func ExampleEngine_Do_countDist() {
	db, err := probpref.Figure1()
	if err != nil {
		log.Fatal(err)
	}
	eng := &probpref.Engine{DB: db, Method: probpref.MethodAuto}
	resp, err := eng.Do(context.Background(), &probpref.Request{
		Kind:  probpref.KindCountDist,
		Query: `P(_, _; c1; c2), C(c1, D, _, _, _, _), C(c2, R, _, _, _, _)`,
	})
	if err != nil {
		log.Fatal(err)
	}
	dist := resp.Dist
	fmt.Printf("mean %.4f stddev %.4f mode %d\n", dist.Mean(), dist.StdDev(), dist.Mode())
	fmt.Printf("Pr(count >= 2) = %.4f\n", dist.Tail(2))
	// Output:
	// mean 2.3061 stddev 0.5074 mode 2
	// Pr(count >= 2) = 0.9777
}

// Evaluate a union of conjunctive queries: either a female candidate beats
// a male one, or a JD-educated Democrat beats a Republican.
func ExampleEngine_Do_union() {
	db, err := probpref.Figure1()
	if err != nil {
		log.Fatal(err)
	}
	eng := &probpref.Engine{DB: db, Method: probpref.MethodAuto}
	res, err := eng.Do(context.Background(), &probpref.Request{
		Kind: probpref.KindBool,
		Query: `P(_, _; c1; c2), C(c1, _, F, _, _, _), C(c2, _, M, _, _, _)` +
			` | P(_, _; c1; c2), C(c1, D, _, _, JD, _), C(c2, R, _, _, _, _)`,
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("Pr = %.4f\n", res.Prob)
	// Output:
	// Pr = 0.9991
}

// Sessions carrying different model families coexist in one preference
// relation: a Generalized Mallows voter joins the Mallows voters of
// Figure 1, and every exact solver still applies.
func ExampleSessionModel() {
	db, err := probpref.Figure1()
	if err != nil {
		log.Fatal(err)
	}
	gm, err := probpref.NewGeneralizedMallows(
		probpref.Ranking{1, 2, 3, 0}, []float64{1, 0.1, 0.9, 0.4})
	if err != nil {
		log.Fatal(err)
	}
	polls := db.Prefs["P"]
	polls.Sessions = probpref.ConcatSessions(polls.Sessions, probpref.SessionSlice{
		{Key: []string{"Eve", "6/5"}, Model: gm},
	})
	eng := &probpref.Engine{DB: db, Method: probpref.MethodAuto}
	res, err := eng.Do(context.Background(), &probpref.Request{
		Kind:  probpref.KindBool,
		Query: `P(_, _; c1; c2), C(c1, _, F, _, _, _), C(c2, _, M, _, _, _)`,
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("sessions evaluated: %d\n", len(res.PerSession))
	fmt.Printf("Eve (Generalized Mallows): %.4f\n", res.PerSession[3].Prob)
	// Output:
	// sessions evaluated: 4
	// Eve (Generalized Mallows): 0.9780
}

// A Generalized Mallows voter is certain about the top of the ballot but
// uncertain about the bottom.
func ExampleNewGeneralizedMallows() {
	gm, err := probpref.NewGeneralizedMallows(
		probpref.Identity(4), []float64{0, 0.1, 0.5, 0.9})
	if err != nil {
		log.Fatal(err)
	}
	top, err := probpref.TopKProb(gm.Model(), 0, 1)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("Pr(reference head stays first) = %.4f\n", top)
	fmt.Printf("expected swaps = %.4f\n", probpref.ExpectedDistanceToReference(gm.Model()))
	// Output:
	// Pr(reference head stays first) = 0.6140
	// expected swaps = 2.0310
}
