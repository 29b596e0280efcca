package ppd_test

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"probpref/internal/dataset"
	"probpref/internal/ppd"
	"probpref/internal/server"
)

// TestLazySourceStream checks the lazily seeded source against the eager
// one: same seed, same stream, through every rand.Rand entry point the
// samplers use.
func TestLazySourceStream(t *testing.T) {
	for _, seed := range []int64{1, 2, 1 << 40, -7} {
		lazy, eager := ppd.NewRand(seed), rand.New(rand.NewSource(seed))
		for i := 0; i < 200; i++ {
			var a, b any
			switch i % 5 {
			case 0:
				a, b = lazy.Int63(), eager.Int63()
			case 1:
				a, b = lazy.Float64(), eager.Float64()
			case 2:
				a, b = lazy.Uint64(), eager.Uint64()
			case 3:
				a, b = lazy.Intn(1000), eager.Intn(1000)
			case 4:
				a, b = lazy.Perm(5), eager.Perm(5)
			}
			if !reflect.DeepEqual(a, b) {
				t.Fatalf("seed %d draw %d: lazy %v, eager %v", seed, i, a, b)
			}
		}
	}
}

// answerBits renders what an answer says — every probability by its bits,
// with the sessions it belongs to — and nothing of how it was reached
// (solves, cache hits, the adaptive plan), which differ warm and cold.
func answerBits(resp *ppd.Response) string {
	var b strings.Builder
	bits := func(x float64) { fmt.Fprintf(&b, "%016x.", math.Float64bits(x)) }
	sessions := func(sps []ppd.SessionProb) {
		for _, sp := range sps {
			fmt.Fprintf(&b, "%s=", strings.Join(sp.Session.Key, "/"))
			bits(sp.Prob)
		}
	}
	bits(resp.Prob)
	bits(resp.Count)
	sessions(resp.PerSession)
	b.WriteString("|top:")
	sessions(resp.Top)
	if resp.Dist != nil {
		b.WriteString("|dist:")
		for _, p := range resp.Dist.PMF {
			bits(p)
		}
	}
	return b.String()
}

// A seeded sampled answer is a function of its request: every sampled group
// draws from a stream keyed by the seed, its model and its union, so the
// bits are the same at any Workers, warm or cold, and alone or inside a
// batch. The reference is a cold Engine.Do of each request alone. Under
// adaptive, kernelQueryHead's groups route exact and are cached while the
// chain's are priced past the default budget and sampled, so a warm
// adaptive batch mixes cache hits with fresh draws.
func TestSampledAnswersSeedInvariant(t *testing.T) {
	ctx := context.Background()
	db, err := dataset.Polls(dataset.PollsConfig{Candidates: 12, Voters: 3, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	chain := `P(_, _; "cand00"; "cand01"), P(_, _; "cand01"; "cand02"), P(_, _; "cand02"; "cand03"), P(_, _; "cand03"; "cand04")`
	var reqs []*ppd.Request
	seed := int64(30)
	for _, m := range []ppd.Method{ppd.MethodRejection, ppd.MethodMISLite, ppd.MethodMISAdaptive, ppd.MethodAdaptive} {
		for _, q := range []string{kernelQueryHead, chain} {
			// One seed per method and query: the bool, count and countdist
			// requests share a grouped cluster in the batch.
			seed++
			for _, kind := range []ppd.Kind{ppd.KindBool, ppd.KindCount, ppd.KindCountDist, ppd.KindTopK} {
				req := &ppd.Request{Kind: kind, Query: q, Method: m, Seed: seed}
				if kind == ppd.KindTopK {
					req.K, req.BoundEdges = 2, 1
				}
				reqs = append(reqs, req)
			}
		}
	}
	want := make([]string, len(reqs))
	for i, req := range reqs {
		resp, err := (&ppd.Engine{DB: db}).Do(ctx, req)
		if err != nil {
			t.Fatalf("%v %v: %v", req.Method, req.Kind, err)
		}
		want[i] = answerBits(resp)
		if req.Method == ppd.MethodAdaptive && req.Kind == ppd.KindCount {
			if sampled := req.Query == chain; (resp.Plan.SampledGroups > 0) != sampled || (resp.Plan.ExactGroups > 0) == sampled {
				t.Fatalf("adaptive count of %q: plan %+v, want every group sampled: %v", req.Query, resp.Plan, sampled)
			}
		}
	}
	check := func(setting string, resps []*ppd.Response) {
		t.Helper()
		for i, resp := range resps {
			if got := answerBits(resp); got != want[i] {
				t.Errorf("%s: %v %v of %q differs from a cold engine's answer alone", setting, reqs[i].Method, reqs[i].Kind, reqs[i].Query)
			}
		}
	}
	batch := func(svc *server.Service) []*ppd.Response {
		t.Helper()
		br, err := svc.DoBatch(ctx, reqs)
		if err != nil {
			t.Fatal(err)
		}
		return br.Responses
	}
	alone := func(svc *server.Service) []*ppd.Response {
		t.Helper()
		resps := make([]*ppd.Response, len(reqs))
		for i, req := range reqs {
			resp, err := svc.Do(ctx, req)
			if err != nil {
				t.Fatal(err)
			}
			resps[i] = resp
		}
		return resps
	}
	for _, workers := range []int{1, 4} {
		cfg := server.Config{Workers: workers}
		check(fmt.Sprintf("DoBatch, workers %d, cold", workers), batch(server.New(db, cfg)))
		svc := server.New(db, cfg)
		check(fmt.Sprintf("Service.Do, workers %d, cold", workers), alone(svc))
		check(fmt.Sprintf("DoBatch, workers %d, warm", workers), batch(svc))
		check(fmt.Sprintf("Service.Do, workers %d, warm", workers), alone(svc))
	}
}
