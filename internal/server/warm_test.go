package server

import (
	"context"
	"testing"

	"probpref/internal/ppd"
)

// A warm request reads its answers off the query's grounding: it leaves
// the solve cache's probe counters as they were, and reports every group
// as a cache hit, as a cache probe would have.
func TestWarmRequestsProbeNoCache(t *testing.T) {
	ctx := context.Background()
	svc := pollsService(t, Config{})
	q := pollsBatch(1)[0]
	for _, req := range []*ppd.Request{
		{Kind: ppd.KindBool, Query: q},
		{Kind: ppd.KindCount, Query: q},
		{Kind: ppd.KindCountDist, Query: q},
		{Kind: ppd.KindAggregate, Query: q, AggRel: "V", AggAttr: "age"},
		{Kind: ppd.KindTopK, Query: q, K: 3, BoundEdges: 1},
	} {
		cold, err := svc.Do(ctx, req)
		if err != nil {
			t.Fatal(err)
		}
		before := svc.Cache().Stats()
		warm, err := svc.Do(ctx, req)
		if err != nil {
			t.Fatal(err)
		}
		if after := svc.Cache().Stats(); after != before {
			t.Errorf("%v: the warm repeat probed the cache: %+v, then %+v", req.Kind, before, after)
		}
		if warm.Solves != 0 || warm.CacheHits != cold.Solves+cold.CacheHits {
			t.Errorf("%v: warm repeat %d solves, %d hits; cold %d and %d", req.Kind, warm.Solves, warm.CacheHits, cold.Solves, cold.CacheHits)
		}
	}
	queries := pollsBatch(8)
	if _, err := boolBatch(ctx, svc, "", queries); err != nil {
		t.Fatal(err)
	}
	before := svc.Cache().Stats()
	br, err := boolBatch(ctx, svc, "", queries)
	if err != nil {
		t.Fatal(err)
	}
	if after := svc.Cache().Stats(); after != before {
		t.Errorf("the warm batch probed the cache: %+v, then %+v", before, after)
	}
	if br.Solved != 0 || br.CacheHits != br.Groups || br.Groups == 0 {
		t.Errorf("warm batch: %d groups, %d solved, %d hits", br.Groups, br.Solved, br.CacheHits)
	}
}

// Allocation ceilings of the warm path, at this change's counts plus a
// little slack: a warm count and a warm aggregate at 1 000 voters through
// Service.Do (the aggregate's value column is parsed once per database
// version, so it allocates within a few of the count), and a warm grouped
// batch of eight requests. The race detector allocates on its own, so the
// ceilings hold without it only.
func TestWarmAllocCeilings(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's allocations vary")
	}
	ctx := context.Background()
	svc, count := warmPolls(t, 1000)
	agg := &ppd.Request{Kind: ppd.KindAggregate, Query: count.Query, AggRel: "V", AggAttr: "age"}
	if _, err := svc.Do(ctx, agg); err != nil {
		t.Fatal(err)
	}
	batchSvc := pollsService(t, Config{})
	queries := pollsBatch(8)
	if _, err := boolBatch(ctx, batchSvc, "", queries); err != nil {
		t.Fatal(err)
	}
	allocs := func(f func() error) float64 {
		return testing.AllocsPerRun(20, func() {
			if err := f(); err != nil {
				t.Fatal(err)
			}
		})
	}
	countAllocs := allocs(func() error { _, err := svc.Do(ctx, count); return err })
	aggAllocs := allocs(func() error { _, err := svc.Do(ctx, agg); return err })
	batchAllocs := allocs(func() error { _, err := boolBatch(ctx, batchSvc, "", queries); return err })
	for _, c := range []struct {
		what         string
		got, ceiling float64
	}{
		{"warm count", countAllocs, 76},
		{"warm aggregate", aggAllocs, min(77, countAllocs+3)},
		{"warm batch of 8", batchAllocs, 500},
	} {
		t.Logf("%s: %v allocs, ceiling %v", c.what, c.got, c.ceiling)
		if c.got > c.ceiling {
			t.Errorf("%s: %v allocs, ceiling %v", c.what, c.got, c.ceiling)
		}
	}
}
