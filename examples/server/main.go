// Server walkthrough: wrap a PPD in the concurrent query service, evaluate
// a batch with cross-query dedup and a shared solve cache, and serve the
// same service over HTTP.
//
// Run with: go run ./examples/server
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"log"
	"net/http"
	"net/http/httptest"

	"probpref"
)

func main() {
	// A 20-candidate, 100-voter polling database: 100 sessions, many of
	// which share Mallows parameters, so queries overlap heavily.
	db, err := probpref.Polls(20, 100, 1)
	if err != nil {
		log.Fatal(err)
	}
	svc := probpref.NewService(db, probpref.ServiceConfig{
		Method:    probpref.MethodAuto,
		Workers:   4,
		CacheSize: 4096,
	})

	// A batch of three queries, two of them identical. The service grounds
	// every query first, deduplicates the (model, union) inference groups
	// across the whole batch, and solves each distinct group once on a
	// bounded worker pool.
	female := `P(_, _; l; r), C(l, p, F, _, _, _), C(r, p, M, _, _, _)`
	male := `P(_, _; l; r), C(l, p, M, _, _, _), C(r, p, F, _, _, _)`
	ctx := context.Background()
	boolReq := func(query string) *probpref.Request {
		return &probpref.Request{Kind: probpref.KindBool, Query: query}
	}
	br, err := svc.DoBatch(ctx, []*probpref.Request{boolReq(female), boolReq(female), boolReq(male)})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("batch of 3 queries (2 identical):")
	for i, res := range br.Responses {
		fmt.Printf("  query %d: Pr(Q|D) = %.4f  count = %.2f\n", i+1, res.Prob, res.Count)
	}
	fmt.Printf("  groups: %d distinct of %d instances, solved %d, cache hits %d\n",
		br.Groups, br.Instances, br.Solved, br.CacheHits)

	// Re-running the batch touches no solver at all: every group is now in
	// the process-wide cache.
	br2, err := svc.DoBatch(ctx, []*probpref.Request{boolReq(female), boolReq(male)})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("warm batch: solved %d, cache hits %d\n", br2.Solved, br2.CacheHits)

	// Most-Probable-Session through the same cache.
	top, err := svc.Do(ctx, &probpref.Request{Kind: probpref.KindTopK, Query: female, K: 3, BoundEdges: 1})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("top-3 sessions preferring F to M within a party:")
	for i, sp := range top.Top {
		fmt.Printf("  %d. %v  Pr = %.4f\n", i+1, sp.Session.Key, sp.Prob)
	}
	fmt.Printf("  exact solves %d, cache hits %d\n", top.Diag.ExactSolves, top.Diag.CacheHits)

	// The same service serves HTTP; cmd/hardqd runs exactly this handler as
	// a daemon (here an in-process test server keeps the example hermetic).
	ts := httptest.NewServer(svc.Handler())
	defer ts.Close()
	reqBody, _ := json.Marshal(map[string]string{"kind": "bool", "query": female})
	resp, err := http.Post(ts.URL+"/v1/query", "application/json", bytes.NewReader(reqBody))
	if err != nil {
		log.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	fmt.Printf("POST /v1/query over HTTP:\n%s", body)

	// The cache counts its own probes: the warm requests above read their
	// answers off their memoised groundings and probed nothing.
	st := svc.Stats()
	fmt.Printf("service stats: evals=%d topks=%d batches=%d solves=%d cache hits=%d misses=%d\n",
		st.Evals, st.TopKs, st.Batches, st.Solves, st.Cache.Hits, st.Cache.Misses)
}
