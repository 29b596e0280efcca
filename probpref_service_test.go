package probpref

import (
	"context"
	"testing"
)

const serviceQ = `P(_, _; c1; c2), C(c1, _, F, _, _, _), C(c2, _, M, _, _, _)`

func TestServiceFacade(t *testing.T) {
	db, err := Figure1()
	if err != nil {
		t.Fatal(err)
	}
	svc := NewService(db, ServiceConfig{Method: MethodAuto, Workers: 2})
	ctx := context.Background()
	req := &Request{Kind: KindBool, Query: serviceQ}
	br, err := svc.DoBatch(ctx, []*Request{req, req})
	if err != nil {
		t.Fatal(err)
	}
	if br.Instances <= br.Groups || br.Solved != br.Groups {
		t.Fatalf("batch accounting: %+v", br)
	}
	if br.Responses[0].Prob != br.Responses[1].Prob {
		t.Fatalf("identical queries disagree: %v != %v", br.Responses[0].Prob, br.Responses[1].Prob)
	}
	if _, err := svc.Do(ctx, &Request{Kind: KindTopK, Query: serviceQ, K: 2, BoundEdges: 1}); err != nil {
		t.Fatal(err)
	}
	st := svc.Stats()
	if st.Evals != 2 || st.TopKs != 1 || st.Solves == 0 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestEngineCacheFacade(t *testing.T) {
	db, err := Figure1()
	if err != nil {
		t.Fatal(err)
	}
	cache := NewSolveCache(64)
	eng := &Engine{DB: db, Method: MethodAuto, Cache: cache}
	req := &Request{Kind: KindBool, Query: serviceQ}
	cold, err := eng.Do(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	warm, err := eng.Do(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	if warm.Solves != 0 || warm.CacheHits != cold.Solves {
		t.Fatalf("warm eval: solves=%d hits=%d (cold solves=%d)", warm.Solves, warm.CacheHits, cold.Solves)
	}
	if warm.Prob != cold.Prob {
		t.Fatalf("cached prob %v != %v", warm.Prob, cold.Prob)
	}
	// The warm repeat reads its answers off the query's grounding: the
	// cache holds them but is not probed again.
	if st := cache.Stats(); st.Hits != 0 || st.Misses != uint64(cold.Solves) || st.Entries != cold.Solves {
		t.Fatalf("cache stats = %+v", st)
	}
}
