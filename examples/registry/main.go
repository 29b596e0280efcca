// Registry walkthrough: load a manifest of named dataset-backed models,
// serve them all from one multi-model service, route queries per model,
// and evict a model while keeping the rest online.
//
// The same manifest drives the daemon: hardqd -manifest examples/registry/manifest.json
//
// Run with: go run ./examples/registry
package main

import (
	"context"
	"fmt"
	"log"

	"probpref"
)

func main() {
	// The manifest names three models over three different dataset
	// builders. "figure1" is preloaded at apply time; the others build
	// lazily on their first query.
	man, err := probpref.LoadManifest("examples/registry/manifest.json")
	if err != nil {
		log.Fatal(err)
	}
	reg := probpref.NewRegistry()
	if err := reg.Apply(man); err != nil {
		log.Fatal(err)
	}
	svc := probpref.NewMultiService(reg, probpref.ServiceConfig{
		Method:    probpref.MethodAuto,
		Workers:   4,
		CacheSize: 4096,
	})

	fmt.Println("catalog at startup:")
	for _, in := range reg.List() {
		fmt.Printf("  %-15s %-10s loaded=%v\n", in.Name, in.Dataset, in.Loaded)
	}

	// Route the same kind of question to two different tenants. The solve
	// cache is shared but namespaced per model, so neither tenant can
	// observe the other's entries.
	ctx := context.Background()
	figQ := `P(_, _; c1; c2), C(c1, _, F, _, _, _), C(c2, _, M, _, _, _)`
	pollQ := `P(_, _; l; r), C(l, p, M, _, _, _), C(r, p, F, _, _, _)`

	ask := func(model, query string) (*probpref.Response, error) {
		return svc.Do(ctx, &probpref.Request{Kind: probpref.KindBool, Query: query, Model: model})
	}
	resF, err := ask("figure1", figQ)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("figure1:     Pr(Q|D) = %.6g over %d sessions\n", resF.Prob, len(resF.PerSession))

	resP, err := ask("polls-small", pollQ)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("polls-small: Pr(Q|D) = %.6g over %d sessions\n", resP.Prob, len(resP.PerSession))

	// Evict polls-small: the catalog forgets it immediately, figure1 keeps
	// serving.
	if err := reg.Delete("polls-small"); err != nil {
		log.Fatal(err)
	}
	fmt.Println("after evicting polls-small:")
	for _, in := range reg.List() {
		fmt.Printf("  %-15s %-10s loaded=%v\n", in.Name, in.Dataset, in.Loaded)
	}
	if _, err := ask("polls-small", pollQ); err != nil {
		fmt.Println("polls-small now:", err)
	}
}
