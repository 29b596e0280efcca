// Learning: recover a Mallows mixture from observed rankings — the step
// the paper performs with an external mining tool on the MovieLens and
// CrowdRank data — then query the learned model.
//
// A ground-truth 3-component mixture over 8 movies generates 1,500 worker
// rankings; EM (probpref.FitMixture) recovers centers, dispersions and
// weights; the learned components then serve as session models in a
// RIM-PPD, closing the paper's end-to-end pipeline: ratings -> mixture ->
// probabilistic preference database -> hard queries.
//
// Run with: go run ./examples/learning
package main

import (
	"context"
	"fmt"
	"log"
	"math/rand"

	"probpref"
)

func main() {
	const m = 8 // movies
	truth := []struct {
		sigma probpref.Ranking
		phi   float64
		share float64
	}{
		{probpref.Ranking{0, 1, 2, 3, 4, 5, 6, 7}, 0.20, 0.5},
		{probpref.Ranking{7, 6, 5, 4, 3, 2, 1, 0}, 0.30, 0.3},
		{probpref.Ranking{3, 7, 1, 5, 0, 4, 2, 6}, 0.25, 0.2},
	}

	rng := rand.New(rand.NewSource(42))
	var data []probpref.Ranking
	for _, comp := range truth {
		ml, err := probpref.NewMallows(comp.sigma, comp.phi)
		if err != nil {
			log.Fatal(err)
		}
		n := int(comp.share * 1500)
		for i := 0; i < n; i++ {
			data = append(data, ml.Sample(rng))
		}
	}
	fmt.Printf("generated %d rankings from a 3-component ground-truth mixture\n\n", len(data))

	fit, err := probpref.FitMixture(data, 3, m, probpref.MixtureConfig{Seed: 7})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("EM converged after %d rounds, log-likelihood %.1f\n", fit.Iterations, fit.LogLikelihood)
	for c, comp := range fit.Mixture.Components {
		fmt.Printf("  component %d: weight %.3f  phi %.3f  center %v\n",
			c, fit.Mixture.Weights[c], comp.Phi, comp.Sigma)
	}
	fmt.Println("\nground truth:")
	for _, comp := range truth {
		fmt.Printf("  weight %.3f  phi %.3f  center %v\n", comp.share, comp.phi, comp.sigma)
	}

	// Single-model fit for comparison: one Mallows cannot explain bimodal
	// data, and the likelihood shows it.
	single, err := probpref.FitMallows(data, nil, m)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nsingle-Mallows fit: phi %.3f, log-likelihood %.1f (mixture wins by %.1f)\n",
		single.Model.Phi, single.LogLikelihood, fit.LogLikelihood-single.LogLikelihood)

	// Use the learned components as session models in a PPD and ask a hard
	// query: is the blockbuster (movie 0) preferred to the arthouse pick
	// (movie 7) and to movie 6?
	movies, err := probpref.NewRelation("M",
		[]string{"id", "kind"},
		[][]string{
			{"m0", "blockbuster"}, {"m1", "drama"}, {"m2", "comedy"}, {"m3", "drama"},
			{"m4", "comedy"}, {"m5", "drama"}, {"m6", "arthouse"}, {"m7", "arthouse"},
		})
	if err != nil {
		log.Fatal(err)
	}
	db, err := probpref.NewDB(movies)
	if err != nil {
		log.Fatal(err)
	}
	pref := &probpref.PrefRelation{
		Name:         "P",
		SessionAttrs: []string{"cluster"},
	}
	var clusters probpref.SessionSlice
	for c, comp := range fit.Mixture.Components {
		clusters = append(clusters, &probpref.Session{
			Key:   []string{fmt.Sprintf("cluster%d", c)},
			Model: comp,
		})
	}
	pref.Sessions = clusters
	if err := db.AddPrefRelation(pref); err != nil {
		log.Fatal(err)
	}
	eng := &probpref.Engine{DB: db, Method: probpref.MethodAuto}
	res, err := eng.Do(context.Background(), &probpref.Request{
		Kind:  probpref.KindBool,
		Query: `P(_; b; a), M(b, "blockbuster"), M(a, "arthouse")`,
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nPr(some cluster prefers a blockbuster to an arthouse film) = %.4f\n", res.Prob)
	for i, sp := range res.PerSession {
		fmt.Printf("  cluster %d: %.4f\n", i, sp.Prob)
	}
}
