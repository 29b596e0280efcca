package server

import (
	"context"
	"encoding/json"
	"testing"

	"probpref/internal/ppd"
)

const doDemoQuery = `P(_, _; c1; c2), C(c1, _, F, _, _, _), C(c2, _, M, _, _, _)`
const doUnionQuery = doDemoQuery + ` | P(_, _; c1; c2), C(c1, D, _, _, JD, _), C(c2, R, _, _, _, _)`

// canonJSON serializes a result for byte comparison.
func canonJSON(t *testing.T, v any) []byte {
	t.Helper()
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestServiceEvalBatchMatchesDo: with the cache disabled and an exact
// method, each result of a batch of bool requests equals the standalone Do
// answer of its query up to the batch-only accounting (probabilities and
// counts are identical; Solves attribution is batch-scoped).
func TestServiceEvalBatchMatchesDo(t *testing.T) {
	ctx := context.Background()
	queries := []string{doDemoQuery, doUnionQuery, doDemoQuery}
	br, err := boolBatch(ctx, figure1Service(t, Config{}), "", queries)
	if err != nil {
		t.Fatal(err)
	}
	for i, q := range queries {
		resp, err := figure1Service(t, Config{CacheSize: -1}).Do(ctx, &ppd.Request{Kind: ppd.KindBool, Query: q})
		if err != nil {
			t.Fatal(err)
		}
		if resp.Prob != br.Responses[i].Prob || resp.Count != br.Responses[i].Count {
			t.Errorf("query %d: standalone Do (%v, %v) != batched (%v, %v)",
				i, resp.Prob, resp.Count, br.Responses[i].Prob, br.Responses[i].Count)
		}
	}
}

// TestDoBatchMixedKinds: a heterogeneous batch (every kind at once)
// answers each request correctly against the same model, and the
// evaluation-backed majority still takes the grouped/dedup path — only the
// topk and aggregate carve-outs fan out.
func TestDoBatchMixedKinds(t *testing.T) {
	svc := figure1Service(t, Config{})
	reqs := []*ppd.Request{
		{Kind: ppd.KindBool, Query: doDemoQuery},
		{Kind: ppd.KindCount, Query: doDemoQuery},
		{Kind: ppd.KindTopK, Query: doDemoQuery, K: 2, BoundEdges: 1},
		{Kind: ppd.KindAggregate, Query: doDemoQuery, AggRel: "V", AggAttr: "age"},
		{Kind: ppd.KindCountDist, Query: doDemoQuery},
	}
	br, err := svc.DoBatch(context.Background(), reqs)
	if err != nil {
		t.Fatal(err)
	}
	if br.Groups == 0 {
		t.Error("the bool/count/countdist cluster of a mixed batch should report grouped accounting")
	}
	if br.Instances < br.Groups {
		t.Errorf("instances %d below groups %d", br.Instances, br.Groups)
	}
	for i, resp := range br.Responses {
		if resp == nil {
			t.Fatalf("request %d: nil response", i)
		}
		if resp.Kind != reqs[i].Kind {
			t.Errorf("request %d: kind %v, want %v", i, resp.Kind, reqs[i].Kind)
		}
	}
	if br.Responses[0].Prob <= 0 || br.Responses[0].Prob > 1 {
		t.Errorf("bool prob out of range: %v", br.Responses[0].Prob)
	}
	if len(br.Responses[2].Top) != 2 || br.Responses[2].Diag == nil {
		t.Errorf("topk response malformed: %+v", br.Responses[2])
	}
	if br.Responses[3].Agg == nil || br.Responses[3].Agg.Sessions == 0 {
		t.Errorf("aggregate response malformed: %+v", br.Responses[3].Agg)
	}
	if br.Responses[4].Dist == nil || br.Responses[4].Dist.N() != 3 {
		t.Errorf("countdist response malformed: %+v", br.Responses[4].Dist)
	}
	// Equal-kind bool answers from the grouped batch must agree with the
	// mixed batch's standalone bool answer.
	if br.Responses[0].Prob != br.Responses[1].Prob {
		t.Errorf("bool vs count prob: %v != %v", br.Responses[0].Prob, br.Responses[1].Prob)
	}
}

// TestDoBatchGroupedCountDist: countdist requests ride the grouped dedup
// path alongside bool requests of the same shape and still carry the full
// padded distribution.
func TestDoBatchGroupedCountDist(t *testing.T) {
	svc := figure1Service(t, Config{})
	br, err := svc.DoBatch(context.Background(), []*ppd.Request{
		{Kind: ppd.KindBool, Query: doDemoQuery},
		{Kind: ppd.KindCountDist, Query: doDemoQuery},
	})
	if err != nil {
		t.Fatal(err)
	}
	if br.Groups == 0 {
		t.Fatal("homogeneous eval batch should use the grouped path")
	}
	if br.Responses[1].Dist == nil {
		t.Fatal("countdist response missing distribution")
	}
	if got, want := br.Responses[1].Dist.Mean(), br.Responses[0].Count; got != want {
		t.Errorf("distribution mean %v != batch count %v", got, want)
	}
	// The second request shares every group with the first: batch
	// accounting attributes all solves to request 0.
	if br.Responses[0].Solves == 0 || br.Responses[1].Solves != 0 {
		t.Errorf("solves attribution: %d/%d", br.Responses[0].Solves, br.Responses[1].Solves)
	}
}

// TestDoRequestOverrides: per-request model, method and seed behave at the
// service layer — method/seed route through the engine clone, model through
// the registry.
func TestDoRequestOverrides(t *testing.T) {
	svc := figure1Service(t, Config{CacheSize: -1})
	ctx := context.Background()
	exact, err := svc.Do(ctx, &ppd.Request{Kind: ppd.KindBool, Query: doDemoQuery})
	if err != nil {
		t.Fatal(err)
	}
	forced, err := svc.Do(ctx, &ppd.Request{Kind: ppd.KindBool, Query: doDemoQuery, Method: ppd.MethodGeneral})
	if err != nil {
		t.Fatal(err)
	}
	if diff := exact.Prob - forced.Prob; diff > 1e-9 || diff < -1e-9 {
		t.Errorf("methods disagree: %v vs %v", exact.Prob, forced.Prob)
	}
	a, err := svc.Do(ctx, &ppd.Request{Kind: ppd.KindBool, Query: doDemoQuery, Method: ppd.MethodRejection, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	b, err := svc.Do(ctx, &ppd.Request{Kind: ppd.KindBool, Query: doDemoQuery, Method: ppd.MethodRejection, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	if a.Prob != b.Prob {
		t.Errorf("seeded sampling request not reproducible: %v vs %v", a.Prob, b.Prob)
	}
	if _, err := svc.Do(ctx, &ppd.Request{Kind: ppd.KindBool, Query: doDemoQuery, Model: "ghost"}); err == nil {
		t.Error("unknown model should fail")
	}
}

// TestDoBatchRequestDedup: identical exact-method requests are answered
// once and share the response (their answers are seed-independent);
// sampling-method requests dedup only on an explicit shared seed, since
// each otherwise samples with its own index-derived seed.
func TestDoBatchRequestDedup(t *testing.T) {
	ctx := context.Background()
	topk := func(seed int64) *ppd.Request {
		return &ppd.Request{Kind: ppd.KindTopK, Query: doDemoQuery, K: 2, BoundEdges: 1, Seed: seed}
	}

	svc := figure1Service(t, Config{CacheSize: -1})
	br, err := svc.DoBatch(ctx, []*ppd.Request{topk(0), topk(0)})
	if err != nil {
		t.Fatal(err)
	}
	if br.Responses[0] != br.Responses[1] {
		t.Error("identical exact-method requests should share one response")
	}
	br, err = svc.DoBatch(ctx, []*ppd.Request{topk(3), topk(3)})
	if err != nil {
		t.Fatal(err)
	}
	if br.Responses[0] != br.Responses[1] {
		t.Error("identical seeded requests should share one response")
	}

	// Sampling method, no explicit seed: each request keeps its own
	// index-derived seed, so no sharing.
	rej := func() *ppd.Request {
		return &ppd.Request{Kind: ppd.KindTopK, Query: doDemoQuery, K: 2, BoundEdges: 1, Method: ppd.MethodRejection}
	}
	br, err = svc.DoBatch(ctx, []*ppd.Request{rej(), rej()})
	if err != nil {
		t.Fatal(err)
	}
	if br.Responses[0] == br.Responses[1] {
		t.Error("unseeded sampling requests must not share a response")
	}
}
