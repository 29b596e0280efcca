package server

import (
	"context"
	"fmt"
	"math"
	"reflect"
	"sync"
	"testing"

	"probpref/internal/dataset"
	"probpref/internal/ppd"
)

const (
	q1 = `P(_, _; c1; c2), C(c1, _, F, _, _, _), C(c2, _, M, _, _, _)`
	q2 = `P(_, _; c1; c2), C(c1, D, _, _, _, _), C(c2, R, _, _, _, _)`
)

func figure1Service(t *testing.T, cfg Config) *Service {
	t.Helper()
	db, err := dataset.Figure1()
	if err != nil {
		t.Fatal(err)
	}
	return New(db, cfg)
}

// The helpers below phrase the suite's common requests over Do / DoBatch;
// model "" is DefaultModel.

// doBool answers one bool request.
func doBool(ctx context.Context, svc *Service, model, query string) (*ppd.Response, error) {
	return svc.Do(ctx, &ppd.Request{Kind: ppd.KindBool, Query: query, Model: model})
}

// doTopK answers one topk request.
func doTopK(ctx context.Context, svc *Service, model, query string, k, bound int) (*ppd.Response, error) {
	return svc.Do(ctx, &ppd.Request{Kind: ppd.KindTopK, Query: query, Model: model, K: k, BoundEdges: bound})
}

// boolBatch answers the queries as one batch of bool requests.
func boolBatch(ctx context.Context, svc *Service, model string, queries []string) (*DoBatchResult, error) {
	reqs := make([]*ppd.Request, len(queries))
	for i, q := range queries {
		reqs[i] = &ppd.Request{Kind: ppd.KindBool, Query: q, Model: model}
	}
	return svc.DoBatch(ctx, reqs)
}

func TestEvalMatchesEngine(t *testing.T) {
	svc := figure1Service(t, Config{})
	eng := &ppd.Engine{DB: svc.DB()}
	want, err := eng.Do(context.Background(), &ppd.Request{Kind: ppd.KindBool, Query: q1})
	if err != nil {
		t.Fatal(err)
	}
	got, err := doBool(context.Background(), svc, "", q1)
	if err != nil {
		t.Fatal(err)
	}
	if got.Prob != want.Prob || got.Count != want.Count {
		t.Fatalf("service: prob=%v count=%v, engine: prob=%v count=%v",
			got.Prob, got.Count, want.Prob, want.Count)
	}
	// The second identical query is answered entirely from the cache.
	again, err := doBool(context.Background(), svc, "", q1)
	if err != nil {
		t.Fatal(err)
	}
	if again.Solves != 0 || again.CacheHits == 0 {
		t.Fatalf("repeat: solves=%d cacheHits=%d, want 0 and >0", again.Solves, again.CacheHits)
	}
	if again.Prob != want.Prob {
		t.Fatalf("cached prob %v != %v", again.Prob, want.Prob)
	}
}

// TestGroupedBatchDedupSolvesFewerGroups is the acceptance check of the
// service layer: a repeated-query batch performs strictly fewer solver
// invocations than the same queries evaluated by independent engines, with
// identical probabilities (exact method).
func TestGroupedBatchDedupSolvesFewerGroups(t *testing.T) {
	svc := figure1Service(t, Config{})
	eng := &ppd.Engine{DB: svc.DB()}
	want, err := eng.Do(context.Background(), &ppd.Request{Kind: ppd.KindBool, Query: q1})
	if err != nil {
		t.Fatal(err)
	}
	independent := 2 * want.Solves // two separate uncached Eval calls

	br, err := boolBatch(context.Background(), svc, "", []string{q1, q1})
	if err != nil {
		t.Fatal(err)
	}
	if br.Solved >= independent {
		t.Fatalf("batch solved %d groups, independent evals solve %d", br.Solved, independent)
	}
	if br.Instances <= br.Groups {
		t.Fatalf("no cross-query dedup: instances=%d groups=%d", br.Instances, br.Groups)
	}
	for i, res := range br.Responses {
		if res.Prob != want.Prob || res.Count != want.Count {
			t.Fatalf("result %d: prob=%v count=%v, want prob=%v count=%v",
				i, res.Prob, res.Count, want.Prob, want.Count)
		}
	}
	if br.Responses[0].Solves != want.Solves || br.Responses[1].Solves != 0 {
		t.Fatalf("attribution: q0 solves=%d (want %d), q1 solves=%d (want 0)",
			br.Responses[0].Solves, want.Solves, br.Responses[1].Solves)
	}

	// A second batch over the same queries is answered from the cache alone.
	br2, err := boolBatch(context.Background(), svc, "", []string{q1, q1})
	if err != nil {
		t.Fatal(err)
	}
	if br2.Solved != 0 || br2.CacheHits != br.Groups {
		t.Fatalf("warm batch: solved=%d cacheHits=%d, want 0 and %d", br2.Solved, br2.CacheHits, br.Groups)
	}
	if br2.Responses[0].Prob != want.Prob {
		t.Fatalf("warm prob %v != %v", br2.Responses[0].Prob, want.Prob)
	}
}

// TestOneRequestBatchMatchesEngine: a batch of one bool request answers
// what a bare engine's Do answers.
func TestOneRequestBatchMatchesEngine(t *testing.T) {
	svc := figure1Service(t, Config{})
	eng := &ppd.Engine{DB: svc.DB()}
	for _, q := range []string{q1, q2} {
		want, err := eng.Do(context.Background(), &ppd.Request{Kind: ppd.KindBool, Query: q})
		if err != nil {
			t.Fatal(err)
		}
		br, err := boolBatch(context.Background(), svc, "", []string{q})
		if err != nil {
			t.Fatal(err)
		}
		if got := br.Responses[0]; math.Abs(got.Prob-want.Prob) > 1e-12 {
			t.Fatalf("query %q: %v != %v", q, got.Prob, want.Prob)
		}
	}
}

// TestDoBatchErrorsNameTheRequest: a batch error names the request it came
// from, counted from 1 in the whole batch, whether compiling or grounding
// failed.
func TestDoBatchErrorsNameTheRequest(t *testing.T) {
	svc := figure1Service(t, Config{})
	if _, err := boolBatch(context.Background(), svc, "", []string{"not a query("}); err == nil {
		t.Fatal("want parse error")
	}
	_, err := svc.DoBatch(context.Background(), []*ppd.Request{
		{Kind: ppd.KindTopK, Query: q1, K: 1},
		{Kind: ppd.KindBool, Query: q1},
		{Kind: ppd.KindBool, Query: `P(_, _; c1; c2), X(c1)`},
	})
	if want := `server: query 3: ppd: unknown relation "X"`; err == nil || err.Error() != want {
		t.Fatalf("grounding error %v, want %s", err, want)
	}
	if _, err := doBool(context.Background(), svc, "", "nope("); err == nil {
		t.Fatal("want parse error")
	}
	if _, err := doTopK(context.Background(), svc, "", "nope(", 1, 1); err == nil {
		t.Fatal("want parse error")
	}
}

func TestTopKSharesCacheAcrossRequests(t *testing.T) {
	svc := figure1Service(t, Config{})
	cold, err := doTopK(context.Background(), svc, "", q1, 3, 0)
	if err != nil {
		t.Fatal(err)
	}
	top1, diag1 := cold.Top, cold.Diag
	if diag1.ExactSolves == 0 {
		t.Fatal("cold top-k should solve")
	}
	warm, err := doTopK(context.Background(), svc, "", q1, 3, 0)
	if err != nil {
		t.Fatal(err)
	}
	top2, diag2 := warm.Top, warm.Diag
	if diag2.ExactSolves != 0 || diag2.CacheHits == 0 {
		t.Fatalf("warm top-k: exact=%d cacheHits=%d", diag2.ExactSolves, diag2.CacheHits)
	}
	for i := range top1 {
		if top1[i].Prob != top2[i].Prob {
			t.Fatalf("rank %d: %v != %v", i, top1[i].Prob, top2[i].Prob)
		}
	}
}

// pollsStar is a star query over pollsService's database: a multi-edge
// pattern, so bounded top-k relaxes it and solves the relaxation. (A chain
// is multi-edge too, but its exact relative-order solves take minutes on
// this database.)
const pollsStar = `P(_, _; a; b), P(_, _; a; c), C(a, D, M, _, _, _), C(b, R, _, _, _, _), C(c, D, F, 20, _, _)`

// A repeated bound-1 top-k solves nothing: its bounds come from the shared
// solve cache like any other inference request, and neither the answer nor
// the service's solve counter moves. A two-label query's groups are their
// own bounds, solved exactly once cold; a star's bounds are relaxations,
// one cache hit per distinct relaxation warm.
func TestWarmBoundTopKSolvesNothing(t *testing.T) {
	for _, q := range []string{pollsBatch(1)[0], pollsStar} {
		svc := pollsService(t, Config{})
		req := &ppd.Request{Kind: ppd.KindTopK, Query: q, K: 5, BoundEdges: 1}
		cold, err := svc.Do(context.Background(), req)
		if err != nil {
			t.Fatal(err)
		}
		if q == pollsStar {
			if cold.Diag.BoundSolves == 0 || cold.Diag.ExactSolves == 0 || cold.Diag.BoundCacheHits != 0 {
				t.Fatalf("star cold top-k diag %+v: want bound and exact solves and no bound hits", cold.Diag)
			}
		} else {
			count, err := svc.Do(context.Background(), &ppd.Request{Kind: ppd.KindCount, Query: q})
			if err != nil {
				t.Fatal(err)
			}
			if cold.Diag.BoundSolves != 0 || cold.Diag.BoundCacheHits != 0 || cold.Diag.ExactSolves != count.CacheHits || count.Solves != 0 {
				t.Fatalf("two-label cold top-k diag %+v, then count solves %d hits %d: want every group solved once, exactly, by the top-k",
					cold.Diag, count.Solves, count.CacheHits)
			}
		}
		if cold.Solves != cold.Diag.BoundSolves+cold.Diag.ExactSolves {
			t.Fatalf("cold Solves = %d, want %d bound + %d exact", cold.Solves, cold.Diag.BoundSolves, cold.Diag.ExactSolves)
		}
		solved := svc.Stats().Solves
		warm, err := svc.Do(context.Background(), req)
		if err != nil {
			t.Fatal(err)
		}
		if warm.Solves != 0 || warm.Diag.BoundSolves != 0 || warm.Diag.ExactSolves != 0 {
			t.Fatalf("warm top-k still solves: Solves %d, diag %+v", warm.Solves, warm.Diag)
		}
		if warm.Diag.BoundCacheHits != cold.Diag.BoundSolves {
			t.Fatalf("warm top-k hit %d bounds, want the %d distinct relaxations the cold one solved", warm.Diag.BoundCacheHits, cold.Diag.BoundSolves)
		}
		if warm.CacheHits != warm.Diag.BoundCacheHits+warm.Diag.CacheHits {
			t.Fatalf("warm CacheHits = %d, want %d bound + %d exact", warm.CacheHits, warm.Diag.BoundCacheHits, warm.Diag.CacheHits)
		}
		if got := svc.Stats().Solves; got != solved {
			t.Fatalf("service solve counter moved from %d to %d on a warm top-k", solved, got)
		}
		if !reflect.DeepEqual(cold.Top, warm.Top) {
			t.Fatalf("warm top-k answers\n%v\ncold\n%v", warm.Top, cold.Top)
		}
	}
}

// TestFanOutTopKBatchHonorsK: top-k requests fan out, each answering its
// own k, and identical requests agree.
func TestFanOutTopKBatchHonorsK(t *testing.T) {
	svc := figure1Service(t, Config{})
	br, err := svc.DoBatch(context.Background(), []*ppd.Request{
		{Kind: ppd.KindTopK, Query: q1, K: 2, BoundEdges: 1},
		{Kind: ppd.KindTopK, Query: q1, K: 2, BoundEdges: 1},
		{Kind: ppd.KindTopK, Query: q2, K: 3},
	})
	if err != nil {
		t.Fatal(err)
	}
	out := br.Responses
	if len(out) != 3 {
		t.Fatalf("got %d results", len(out))
	}
	if len(out[0].Top) != 2 || len(out[2].Top) != 3 {
		t.Fatalf("k not honored: %d, %d", len(out[0].Top), len(out[2].Top))
	}
	for i := range out[0].Top {
		if out[0].Top[i].Prob != out[1].Top[i].Prob {
			t.Fatalf("identical requests disagree at rank %d", i)
		}
	}
}

func TestCacheDisabled(t *testing.T) {
	svc := figure1Service(t, Config{CacheSize: -1})
	if svc.Cache() != nil {
		t.Fatal("cache should be disabled")
	}
	res, err := doBool(context.Background(), svc, "", q1)
	if err != nil {
		t.Fatal(err)
	}
	res2, err := doBool(context.Background(), svc, "", q1)
	if err != nil {
		t.Fatal(err)
	}
	if res2.CacheHits != 0 || res2.Solves != res.Solves {
		t.Fatalf("disabled cache still hit: %+v", res2)
	}
}

func TestServiceStats(t *testing.T) {
	svc := figure1Service(t, Config{})
	if _, err := doBool(context.Background(), svc, "", q1); err != nil {
		t.Fatal(err)
	}
	br, err := boolBatch(context.Background(), svc, "", []string{q1, q2})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := doTopK(context.Background(), svc, "", q1, 2, 1); err != nil {
		t.Fatal(err)
	}
	st := svc.Stats()
	if st.Evals != 3 || st.TopKs != 1 || st.Batches != 1 {
		t.Fatalf("stats = %+v", st)
	}
	// The batch's q1 groups are answered off q1's grounding, counted as
	// cache hits of the batch but not probed in the cache.
	if st.Solves == 0 || br.CacheHits == 0 || st.Cache.Entries == 0 {
		t.Fatalf("expected solves, batch cache hits and cache entries: %+v, batch %+v", st, br)
	}
}

// TestServiceConcurrentRace hammers every service entry point from many
// goroutines sharing one solve cache; run it under -race. Exact methods must
// produce identical probabilities regardless of interleaving.
func TestServiceConcurrentRace(t *testing.T) {
	svc := figure1Service(t, Config{Workers: 4, CacheSize: 8}) // tiny cache forces evictions
	eng := &ppd.Engine{DB: svc.DB()}
	want := make(map[string]float64)
	for _, q := range []string{q1, q2} {
		res, err := eng.Do(context.Background(), &ppd.Request{Kind: ppd.KindBool, Query: q})
		if err != nil {
			t.Fatal(err)
		}
		want[q] = res.Prob
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 10; i++ {
				q := q1
				if (g+i)%2 == 0 {
					q = q2
				}
				switch i % 3 {
				case 0:
					res, err := doBool(context.Background(), svc, "", q)
					if err != nil {
						t.Error(err)
						return
					}
					if res.Prob != want[q] {
						t.Errorf("Eval(%q) = %v, want %v", q, res.Prob, want[q])
						return
					}
				case 1:
					br, err := boolBatch(context.Background(), svc, "", []string{q1, q2, q})
					if err != nil {
						t.Error(err)
						return
					}
					if br.Responses[2].Prob != want[q] {
						t.Errorf("batch with %q = %v, want %v", q, br.Responses[2].Prob, want[q])
						return
					}
				case 2:
					if _, err := doTopK(context.Background(), svc, "", q, 2, 1); err != nil {
						t.Error(err)
						return
					}
				}
			}
		}(g)
	}
	wg.Wait()
}

// Benchmarks: the cached service versus a bare engine on a repeated query.
// The warm-cache path performs zero solver invocations per evaluation.

func BenchmarkEngineEvalUncached(b *testing.B) {
	db, err := dataset.Figure1()
	if err != nil {
		b.Fatal(err)
	}
	req := &ppd.Request{Kind: ppd.KindBool, Queries: ppd.MustParseUnion(q1).Disjuncts}
	eng := &ppd.Engine{DB: db}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := eng.Do(context.Background(), req); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkServiceEvalCached(b *testing.B) {
	db, err := dataset.Figure1()
	if err != nil {
		b.Fatal(err)
	}
	svc := New(db, Config{})
	if _, err := doBool(context.Background(), svc, "", q1); err != nil { // warm the cache
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := doBool(context.Background(), svc, "", q1); err != nil {
			b.Fatal(err)
		}
	}
}

// warmPolls returns a service over a polls model of the given voter count
// and a count request whose every group it has solved once.
func warmPolls(t testing.TB, voters int) (*Service, *ppd.Request) {
	t.Helper()
	db, err := dataset.Polls(dataset.PollsConfig{Candidates: 10, Voters: voters, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	svc := New(db, Config{})
	req := &ppd.Request{Kind: ppd.KindCount, Query: pollsBatch(1)[0]}
	if _, err := svc.Do(context.Background(), req); err != nil {
		t.Fatal(err)
	}
	return svc, req
}

// TestWarmDoAllocsFlat: a warm request builds no string per inference
// group, so its allocations do not grow with the groups it looks up.
func TestWarmDoAllocsFlat(t *testing.T) {
	allocs := func(voters int) float64 {
		svc, req := warmPolls(t, voters)
		var (
			resp *ppd.Response
			err  error
		)
		n := testing.AllocsPerRun(20, func() {
			if resp, err = svc.Do(context.Background(), req); err != nil {
				t.Fatal(err)
			}
		})
		if resp.Solves != 0 || resp.CacheHits == 0 {
			t.Fatalf("%d voters: warm request solved %d groups, %d cache hits", voters, resp.Solves, resp.CacheHits)
		}
		return n
	}
	// Without the race detector the two counts are equal. A string per
	// group would be ~1 000 more at 1 000 voters; the race detector's own
	// allocations (it drops pooled objects at random) are a handful either
	// way.
	if small, large := allocs(10), allocs(1000); large > small+8 {
		t.Fatalf("a warm count allocates %v times at 10 voters and %v at 1000", small, large)
	}
}

// BenchmarkWarmDo times one warm count request through Service.Do, every
// group read off the memoised grounding's probability column (no solve
// cache probe), at 10 and 1000 voters: the cost of the grounding memo hit,
// the column reads and the fold, not of any solve. The aggregate cases ask the
// average age over the same query and groups.
func BenchmarkWarmDo(b *testing.B) {
	for _, agg := range []bool{false, true} {
		for _, voters := range []int{10, 1000} {
			name := fmt.Sprintf("voters=%d", voters)
			if agg {
				name = "aggregate/" + name
			}
			b.Run(name, func(b *testing.B) {
				svc, req := warmPolls(b, voters)
				if agg {
					req = &ppd.Request{Kind: ppd.KindAggregate, Query: req.Query, AggRel: "V", AggAttr: "age"}
				}
				b.ReportAllocs()
				for b.Loop() {
					if _, err := svc.Do(context.Background(), req); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}
