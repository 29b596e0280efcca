package server

import (
	"context"
	"fmt"
	"math"
	"testing"

	"probpref/internal/ppd"
	"probpref/internal/registry"
)

// TestPlanCacheLRUAndPurge unit-tests the sharded plan cache: hits, LRU
// eviction, and prefix purges.
func TestPlanCacheLRUAndPurge(t *testing.T) {
	c := NewPlanCache(8)
	for i := 0; i < 8; i++ {
		c.Put(fmt.Sprintf("a%sk%d", nsSep, i), nil)
		c.Put(fmt.Sprintf("b%sk%d", nsSep, i), nil)
	}
	if c.Len() != 8 {
		t.Fatalf("len %d after overfill, want capacity 8", c.Len())
	}
	st := c.Stats()
	if st.Evictions == 0 || st.Capacity != 8 {
		t.Fatalf("stats after overfill: %+v", st)
	}
	if _, ok := c.Get("a" + nsSep + "k0"); ok {
		// k0 may or may not survive depending on shard layout; just make
		// sure Get keeps counting.
	}
	before := c.Len()
	purged := c.PurgePrefix("a" + nsSep)
	if purged+c.Len() != before {
		t.Fatalf("purge dropped %d but len went %d -> %d", purged, before, c.Len())
	}
	if got := c.PurgePrefix("a" + nsSep); got != 0 {
		t.Fatalf("second purge dropped %d entries, want 0", got)
	}
	for i := 0; i < 8; i++ {
		if _, ok := c.Get(fmt.Sprintf("a%sk%d", nsSep, i)); ok {
			t.Fatalf("purged key a/k%d still present", i)
		}
	}
}

// TestDoBatchSeededCarveOutKeepsGroupedPath is the regression for the
// all-or-nothing grouping bug: one request carrying its own seed must not
// kick the groupable majority off the grouped/dedup path. A seed is no
// carve-out at all now: the seeded request forms its own cluster (the
// cluster key carries the effective seed), every request reports grouped
// accounting and every answer is bit-identical to asking alone.
func TestDoBatchSeededCarveOutKeepsGroupedPath(t *testing.T) {
	ctx := context.Background()
	svc := figure1Service(t, Config{})
	reqs := []*ppd.Request{
		{Kind: ppd.KindBool, Query: q1},
		{Kind: ppd.KindBool, Query: q2},
		{Kind: ppd.KindBool, Query: q1, Seed: 42}, // a cluster of its own
		{Kind: ppd.KindCount, Query: q2},
	}
	br, err := svc.DoBatch(ctx, reqs)
	if err != nil {
		t.Fatal(err)
	}
	if br.Groups == 0 || br.Instances == 0 {
		t.Fatalf("grouped accounting lost to the seeded carve-out: %+v", br)
	}
	// Exact methods ignore the seed, so the seeded request's probability
	// matches the unseeded one bit for bit; its cluster answers every group
	// from the solve cache the first cluster just filled.
	if a, b := br.Responses[0].Prob, br.Responses[2].Prob; math.Float64bits(a) != math.Float64bits(b) {
		t.Fatalf("seeded request's answer %v != unseeded answer %v", b, a)
	}
	if r := br.Responses[2]; r.Solves != 0 || r.CacheHits == 0 {
		t.Fatalf("seeded request: solves %d, cache hits %d; want its cluster answered from the cache", r.Solves, r.CacheHits)
	}
	// Every request is on the grouped path: the clusters' counters add up
	// to the batch's.
	clusterWork := 0
	for _, resp := range br.Responses {
		clusterWork += resp.Solves + resp.CacheHits
	}
	if clusterWork != br.Groups {
		t.Fatalf("cluster requests account %d groups, batch reports %d", clusterWork, br.Groups)
	}
	// Every answer matches a standalone evaluation bitwise (exact method).
	for ri, req := range reqs {
		fresh := figure1Service(t, Config{})
		want, err := fresh.Do(ctx, &ppd.Request{Kind: req.Kind, Query: req.Query})
		if err != nil {
			t.Fatal(err)
		}
		if math.Float64bits(br.Responses[ri].Prob) != math.Float64bits(want.Prob) {
			t.Fatalf("request %d: batch %v != standalone %v", ri, br.Responses[ri].Prob, want.Prob)
		}
	}
}

// TestDoBatchMultiModelClusters: requests spanning two models form one
// grouped cluster per model instead of all falling back to fan-out.
func TestDoBatchMultiModelClusters(t *testing.T) {
	ctx := context.Background()
	svc := multiService(t, Config{})
	br, err := svc.DoBatch(ctx, []*ppd.Request{
		{Kind: ppd.KindBool, Query: q1, Model: "a"},
		{Kind: ppd.KindBool, Query: q2, Model: "a"},
		{Kind: ppd.KindBool, Query: q1, Model: "b"},
		{Kind: ppd.KindCount, Query: q1, Model: "b"},
	})
	if err != nil {
		t.Fatal(err)
	}
	if br.Groups == 0 {
		t.Fatal("multi-model batch lost grouped accounting entirely")
	}
	// Identical models answer identically, each from its own cluster.
	if a, b := br.Responses[0].Prob, br.Responses[2].Prob; math.Float64bits(a) != math.Float64bits(b) {
		t.Fatalf("identical models disagree: %v vs %v", a, b)
	}
	for ri, resp := range br.Responses {
		if resp == nil || resp.Prob <= 0 || resp.Prob > 1 {
			t.Fatalf("request %d: bad response %+v", ri, resp)
		}
	}
}

// TestPlanCacheServesRepeatBatches: the first batch compiles and caches
// plans; a repeat batch (solve cache disabled, so the groups really solve
// again) reuses them without compiling anything new.
func TestPlanCacheServesRepeatBatches(t *testing.T) {
	ctx := context.Background()
	svc := figure1Service(t, Config{CacheSize: -1})
	reqs := []*ppd.Request{
		{Kind: ppd.KindBool, Query: q1},
		{Kind: ppd.KindBool, Query: q2},
	}
	first, err := svc.DoBatch(ctx, reqs)
	if err != nil {
		t.Fatal(err)
	}
	st := svc.Stats().PlanCache
	if st.Entries == 0 {
		t.Fatalf("no plans cached after first batch: %+v", st)
	}
	entries := st.Entries
	second, err := svc.DoBatch(ctx, reqs)
	if err != nil {
		t.Fatal(err)
	}
	st = svc.Stats().PlanCache
	if st.Entries != entries {
		t.Fatalf("repeat batch changed plan entries %d -> %d, want reuse", entries, st.Entries)
	}
	if st.Hits == 0 {
		t.Fatalf("repeat batch never hit the plan cache: %+v", st)
	}
	for ri := range reqs {
		if math.Float64bits(first.Responses[ri].Prob) != math.Float64bits(second.Responses[ri].Prob) {
			t.Fatalf("request %d: cached-plan answer differs: %v vs %v",
				ri, first.Responses[ri].Prob, second.Responses[ri].Prob)
		}
	}
}

// TestDeleteModelPurgesPlanNamespace: deleting a model drops exactly its
// plan-cache namespace — the sibling model's plans survive, it keeps
// answering, and a model re-registered under the deleted name compiles
// fresh plans instead of inheriting stale ones.
func TestDeleteModelPurgesPlanNamespace(t *testing.T) {
	ctx := context.Background()
	svc := multiService(t, Config{CacheSize: -1})
	ask := func(model string) float64 {
		t.Helper()
		resp, err := svc.Do(ctx, &ppd.Request{Kind: ppd.KindBool, Query: q1, Model: model})
		if err != nil {
			t.Fatal(err)
		}
		return resp.Prob
	}
	pa := ask("a")
	la := svc.PlanCache().Len()
	if la == 0 {
		t.Fatal("no plans cached for model a")
	}
	pb := ask("b")
	lab := svc.PlanCache().Len()
	if lab != 2*la {
		t.Fatalf("identical models should cache symmetric namespaces: a=%d, a+b=%d", la, lab)
	}
	if err := svc.DeleteModel("a"); err != nil {
		t.Fatal(err)
	}
	if got := svc.PlanCache().Len(); got != lab-la {
		t.Fatalf("delete purged to %d entries, want %d (b's namespace only)", got, lab-la)
	}
	if err := svc.DeleteModel("a"); err == nil {
		t.Fatal("deleting an unknown model should fail")
	}
	if got := ask("b"); math.Float64bits(got) != math.Float64bits(pb) {
		t.Fatalf("model b answer changed after deleting a: %v vs %v", got, pb)
	}
	// Re-register under the deleted name: plans recompile, answers match.
	if err := svc.Registry().Register(registry.Spec{Name: "a", Dataset: "figure1"}); err != nil {
		t.Fatal(err)
	}
	if got := ask("a"); math.Float64bits(got) != math.Float64bits(pa) {
		t.Fatalf("re-registered model a answers %v, want %v", got, pa)
	}
	if got := svc.PlanCache().Len(); got != lab {
		t.Fatalf("re-registered model cached %d entries total, want %d", got, lab)
	}
}
