package server

import (
	"context"
	"encoding/json"
	"fmt"
	"math"
	"reflect"
	"testing"
	"time"

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

// TestGroupedBatchMatchesEngineDoBitwise: every answer of a grouped batch
// — bool, count and countdist requests over two models, with repeats —
// equals a bare engine's standalone Do answer bit for bit, for each exact
// method, through each of the engine's three solve paths (the batched walk
// with a plan cache, the worker pool and the serial loop without one), with
// the solve cache cold and then warm. A cold batch charges a query's solves
// to its first request; a warm one solves nothing.
func TestGroupedBatchMatchesEngineDoBitwise(t *testing.T) {
	ctx := context.Background()
	reqs := []*ppd.Request{
		{Kind: ppd.KindBool, Query: doDemoQuery, Model: "a"},
		{Kind: ppd.KindCount, Query: doUnionQuery, Model: "a"},
		{Kind: ppd.KindCountDist, Query: doDemoQuery, Model: "b"},
		{Kind: ppd.KindCountDist, Query: doDemoQuery, Model: "a"},
		{Kind: ppd.KindBool, Query: q2, Model: "b"},
		{Kind: ppd.KindCount, Query: doUnionQuery, Model: "a"},
	}
	same := func(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }
	for _, method := range []ppd.Method{ppd.MethodAuto, ppd.MethodBipartite, ppd.MethodRelOrder} {
		for _, workers := range []int{1, 4} {
			for _, plans := range []int{0, -1} {
				name := fmt.Sprintf("%v/workers=%d/plans=%d", method, workers, plans)
				t.Run(name, func(t *testing.T) {
					svc := multiService(t, Config{Method: method, Workers: workers, PlanCacheSize: plans})
					for _, pass := range []string{"cold", "warm"} {
						br, err := svc.DoBatch(ctx, reqs)
						if err != nil {
							t.Fatal(err)
						}
						seen := make(map[string]bool)
						for ri, req := range reqs {
							h, err := svc.Registry().Open(req.Model)
							if err != nil {
								t.Fatal(err)
							}
							want, err := (&ppd.Engine{DB: h.DB(), Method: method}).Do(ctx, req)
							h.Close()
							if err != nil {
								t.Fatal(err)
							}
							got := br.Responses[ri]
							ok := same(got.Prob, want.Prob) && same(got.Count, want.Count) &&
								len(got.PerSession) == len(want.PerSession) && (got.Dist == nil) == (want.Dist == nil)
							for i := 0; ok && i < len(got.PerSession); i++ {
								ok = got.PerSession[i].Session == want.PerSession[i].Session &&
									same(got.PerSession[i].Prob, want.PerSession[i].Prob)
							}
							if ok && got.Dist != nil {
								ok = reflect.DeepEqual(got.Dist.PMF, want.Dist.PMF)
							}
							if !ok {
								t.Errorf("%s request %d: batched %+v != standalone %+v", pass, ri, got, want)
							}
							wantSolves := 0
							if key := req.Model + "|" + req.Query; pass == "cold" && !seen[key] {
								seen[key], wantSolves = true, want.Solves
							}
							if got.Solves != wantSolves {
								t.Errorf("%s request %d: %d solves, want %d", pass, ri, got.Solves, wantSolves)
							}
						}
					}
				})
			}
		}
	}
}

// TestGroupedBatchSampledDeterministic: an unseeded sampling batch answers
// the same bits twice on fresh services, with the worker pool and without.
// The adaptive batch runs under an expired deadline so that it samples.
func TestGroupedBatchSampledDeterministic(t *testing.T) {
	expired, cancel := context.WithDeadline(context.Background(), time.Now().Add(-time.Second))
	defer cancel()
	for _, tc := range []struct {
		method ppd.Method
		ctx    context.Context
	}{{ppd.MethodRejection, context.Background()}, {ppd.MethodAdaptive, expired}} {
		for _, workers := range []int{1, 4} {
			var runs [2]*DoBatchResult
			for i := range runs {
				svc := figure1Service(t, Config{Method: tc.method, Workers: workers, CacheSize: -1})
				br, err := boolBatch(tc.ctx, svc, "", []string{q1, q2, q1})
				if err != nil {
					t.Fatalf("%v workers=%d: %v", tc.method, workers, err)
				}
				runs[i] = br
			}
			for ri, a := range runs[0].Responses {
				b := runs[1].Responses[ri]
				if !reflect.DeepEqual(a, b) {
					t.Errorf("%v workers=%d request %d: runs differ: %+v vs %+v", tc.method, workers, ri, a, b)
				}
			}
			if tc.method == ppd.MethodAdaptive && runs[0].Responses[0].Plan.SampledGroups == 0 {
				t.Errorf("adaptive workers=%d: nothing sampled under an expired deadline", workers)
			}
		}
	}
}

// TestDoBatchDefaultModelNameSharesGroups: "" and DefaultModel name one
// model, so a batch spelling it both ways is one cluster whose groups dedup
// across both requests.
func TestDoBatchDefaultModelNameSharesGroups(t *testing.T) {
	ctx := context.Background()
	svc := figure1Service(t, Config{CacheSize: -1})
	want, err := boolBatch(ctx, svc, "", []string{q1, q1})
	if err != nil {
		t.Fatal(err)
	}
	br, err := svc.DoBatch(ctx, []*ppd.Request{
		{Kind: ppd.KindBool, Query: q1},
		{Kind: ppd.KindBool, Query: q1, Model: DefaultModel},
	})
	if err != nil {
		t.Fatal(err)
	}
	if br.Groups != want.Groups || br.Solved != want.Solved {
		t.Fatalf("mixed spellings: groups=%d solved=%d, want %d and %d", br.Groups, br.Solved, want.Groups, want.Solved)
	}
}

// BenchmarkDoBatchGrouped times one grouped cluster of eight distinct polls
// bool requests through DoBatch: cold with the solve cache off, so every
// group is solved on each iteration, and warm with every group cached.
func BenchmarkDoBatchGrouped(b *testing.B) {
	ctx := context.Background()
	queries := pollsBatch(8)
	for _, bc := range []struct {
		name      string
		cacheSize int
	}{{"cold", -1}, {"warm", 0}} {
		b.Run(bc.name, func(b *testing.B) {
			svc := pollsService(b, Config{CacheSize: bc.cacheSize})
			if _, err := boolBatch(ctx, svc, "", queries); err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := boolBatch(ctx, svc, "", queries); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// TestDoBatchMixedKinds: a heterogeneous batch (every kind at once)
// answers each request correctly against the same model, and the
// evaluation-backed majority — aggregate included — still takes the
// grouped/dedup path; only the topk carve-out fans out.
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
	// bool, count, aggregate and countdist each reference the query's live
	// sessions once.
	if live := len(br.Responses[0].PerSession); br.Instances != 4*live {
		t.Errorf("instances %d, want the 4 grouped requests' %d live sessions each", br.Instances, live)
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

// TestDoBatchRequestDedup: identical requests are answered once and share
// the response, under a sampling method too: an unseeded request samples
// under Config.Seed wherever it sits in the batch, so identical requests
// have identical answers.
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

	// Sampling method, no explicit seed: both sample under Config.Seed, so
	// they share one answer.
	rej := func() *ppd.Request {
		return &ppd.Request{Kind: ppd.KindTopK, Query: doDemoQuery, K: 2, BoundEdges: 1, Method: ppd.MethodRejection}
	}
	br, err = svc.DoBatch(ctx, []*ppd.Request{rej(), rej()})
	if err != nil {
		t.Fatal(err)
	}
	if br.Responses[0] != br.Responses[1] {
		t.Error("identical unseeded sampling requests should share one response")
	}
}

// TestDoSeedNotAnsweredFromAnotherSeed: a seeded sampled request through a
// service that just answered another seed gets its own seed's answer, the
// one a fresh service gives. (The solve cache holds exact answers only.)
func TestDoSeedNotAnsweredFromAnotherSeed(t *testing.T) {
	ctx := context.Background()
	count := func(seed int64) *ppd.Request {
		return &ppd.Request{Kind: ppd.KindCount, Query: doDemoQuery, Method: ppd.MethodRejection, Seed: seed}
	}
	svc := figure1Service(t, Config{})
	if _, err := svc.Do(ctx, count(5)); err != nil {
		t.Fatal(err)
	}
	got, err := svc.Do(ctx, count(7))
	if err != nil {
		t.Fatal(err)
	}
	want, err := figure1Service(t, Config{}).Do(ctx, count(7))
	if err != nil {
		t.Fatal(err)
	}
	if math.Float64bits(got.Count) != math.Float64bits(want.Count) || got.CacheHits != 0 {
		t.Errorf("seed 7 after seed 5: count %v with %d cache hits, a fresh service answers %v", got.Count, got.CacheHits, want.Count)
	}
}

// TestDoEstimateNotReplayedAsExact: the estimates an adaptive request
// samples under an expired deadline are not cached, so the next request,
// with no deadline, solves its groups exactly and says so in its plan.
func TestDoEstimateNotReplayedAsExact(t *testing.T) {
	req := &ppd.Request{Kind: ppd.KindCount, Query: doDemoQuery, Method: ppd.MethodAdaptive}
	expired, cancel := context.WithDeadline(context.Background(), time.Now().Add(-time.Second))
	defer cancel()
	svc := figure1Service(t, Config{})
	est, err := svc.Do(expired, req)
	if err != nil {
		t.Fatal(err)
	}
	if est.Plan.SampledGroups == 0 || est.Plan.ExactGroups != 0 {
		t.Fatalf("expired deadline: plan %+v, want every group sampled", est.Plan)
	}
	got, err := svc.Do(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	want, err := figure1Service(t, Config{}).Do(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	if want.Plan.SampledGroups != 0 {
		t.Fatalf("no deadline: plan %+v, want every group exact", want.Plan)
	}
	if math.Float64bits(got.Count) != math.Float64bits(want.Count) || !reflect.DeepEqual(got.Plan, want.Plan) {
		t.Errorf("after an expired-deadline request: count %v plan %+v, a fresh service answers %v plan %+v", got.Count, got.Plan, want.Count, want.Plan)
	}
}
