package probpref_test

import (
	"context"
	"fmt"

	"probpref"
)

// ExampleRegistry catalogs two dataset-backed models, opens one lazily,
// and evicts it with reference counting: the handle opened before the
// delete keeps its database until closed.
func ExampleRegistry() {
	reg := probpref.NewRegistry()
	reg.Register(probpref.ModelSpec{Name: "figure1", Dataset: "figure1", Preload: true})
	reg.Register(probpref.ModelSpec{Name: "polls-small", Dataset: "polls", Candidates: 6, Voters: 4, Seed: 7})

	for _, in := range reg.List() {
		fmt.Printf("%s (%s) loaded=%v\n", in.Name, in.Dataset, in.Loaded)
	}

	h, err := reg.Open("polls-small") // first open builds the lazy model
	if err != nil {
		panic(err)
	}
	defer h.Close()
	fmt.Printf("opened %s: m=%d items\n", h.Name(), h.DB().M())

	reg.Delete("polls-small") // hidden from the catalog, handle unaffected
	fmt.Printf("after delete: %d model(s) cataloged, handle still has DB: %v\n",
		reg.Len(), h.DB() != nil)

	// Output:
	// figure1 (figure1) loaded=true
	// polls-small (polls) loaded=false
	// opened polls-small: m=6 items
	// after delete: 1 model(s) cataloged, handle still has DB: true
}

// ExampleOpenDataset builds a dataset-backed database without a catalog
// and queries it directly with an Engine.
func ExampleOpenDataset() {
	db, err := probpref.OpenDataset(probpref.ModelSpec{Name: "demo", Dataset: "figure1"})
	if err != nil {
		panic(err)
	}
	eng := &probpref.Engine{DB: db, Method: probpref.MethodAuto}
	res, err := eng.Do(context.Background(), &probpref.Request{
		Kind:  probpref.KindBool,
		Query: `P(_, _; c1; c2), C(c1, _, F, _, _, _), C(c2, _, M, _, _, _)`,
	})
	if err != nil {
		panic(err)
	}
	fmt.Printf("Pr(Q|D) = %.6f\n", res.Prob)
	// Output:
	// Pr(Q|D) = 0.999104
}

// ExampleService_DoBatch serves two named models from one multi-model
// service: each batch routes to its model, and the shared solve cache
// namespaces entries per model so tenants stay isolated.
func ExampleService_DoBatch() {
	reg := probpref.NewRegistry()
	reg.Register(probpref.ModelSpec{Name: "tenant-a", Dataset: "figure1"})
	reg.Register(probpref.ModelSpec{Name: "tenant-b", Dataset: "figure1"})
	svc := probpref.NewMultiService(reg, probpref.ServiceConfig{Workers: 2})

	ctx := context.Background()
	q := `P(_, _; c1; c2), C(c1, _, F, _, _, _), C(c2, _, M, _, _, _)`
	for _, model := range []string{"tenant-a", "tenant-b"} {
		req := &probpref.Request{Kind: probpref.KindBool, Query: q, Model: model}
		br, err := svc.DoBatch(ctx, []*probpref.Request{req, req})
		if err != nil {
			panic(err)
		}
		// The two identical queries of the batch share their inference
		// groups; the identical *other tenant* shares nothing.
		fmt.Printf("%s: Pr = %.6f, groups=%d solved=%d cache_hits=%d\n",
			model, br.Responses[0].Prob, br.Groups, br.Solved, br.CacheHits)
	}
	// Output:
	// tenant-a: Pr = 0.999104, groups=3 solved=3 cache_hits=0
	// tenant-b: Pr = 0.999104, groups=3 solved=3 cache_hits=0
}
