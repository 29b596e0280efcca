package ppd_test

import (
	"context"
	"math/rand"
	"sync"
	"testing"
	"time"

	"probpref/internal/consensus"
	"probpref/internal/dataset"
	"probpref/internal/ppd"
)

// repeatCase is one unseeded request under a sampling row of the method
// table, asked of an engine whose own method is that row, as a library
// caller's is: over polls at 8 candidates and 20 voters, adaptive starved by
// a 1 ns deadline so that it samples, and a sampled consensus median.
type repeatCase struct {
	method ppd.Method
	req    *ppd.Request
}

func repeatCases(t *testing.T) (*ppd.DB, map[string]repeatCase) {
	t.Helper()
	db, err := dataset.Polls(dataset.PollsConfig{Candidates: 8, Voters: 20, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	count := &ppd.Request{Kind: ppd.KindCount, Query: dataset.PollsQuery}
	return db, map[string]repeatCase{
		"rejection":        {ppd.MethodRejection, count},
		"mis-lite":         {ppd.MethodMISLite, count},
		"mis-adaptive":     {ppd.MethodMISAdaptive, count},
		"adaptive":         {ppd.MethodAdaptive, &ppd.Request{Kind: ppd.KindCount, Query: dataset.PollsQuery, Deadline: time.Nanosecond}},
		"consensus-median": {ppd.MethodRejection, &ppd.Request{Kind: ppd.KindConsensus, Query: dataset.PollsQuery, ConsensusTarget: consensus.TargetMedian}},
	}
}

// engine is a library caller's engine under m, seeded as hardq seeds one.
func engine(db *ppd.DB, m ppd.Method) *ppd.Engine {
	return &ppd.Engine{DB: db, Method: m, Rng: rand.New(rand.NewSource(1))}
}

// An unseeded request asked again of the same engine gets the same bits:
// the engine's default base seed is read once, not drawn again for every
// evaluation.
func TestRepeatedRequestSameBits(t *testing.T) {
	db, cases := repeatCases(t)
	for name, c := range cases {
		eng := engine(db, c.method)
		var first string
		for run := range 3 {
			resp, err := eng.Do(context.Background(), c.req)
			if err != nil {
				t.Fatalf("%s run %d: %v", name, run, err)
			}
			if name == "adaptive" && (resp.Plan == nil || resp.Plan.SampledGroups == 0) {
				t.Fatalf("%s: plan %+v samples no group", name, resp.Plan)
			}
			if d := kernelDigest(resp); run == 0 {
				first = d
			} else if d != first {
				t.Errorf("%s run %d: digest %s, run 0 %s (count %v)", name, run, d, first, resp.Count)
				break
			}
		}
	}
}

// Two goroutines share one engine per case, as a library caller may: every
// answer is the one a fresh engine gives alone (run with -race).
func TestSharedEngineConcurrentDo(t *testing.T) {
	db, cases := repeatCases(t)
	want := make(map[string]string, len(cases))
	shared := make(map[string]*ppd.Engine, len(cases))
	for name, c := range cases {
		resp, err := engine(db, c.method).Do(context.Background(), c.req)
		if err != nil {
			t.Fatal(err)
		}
		want[name], shared[name] = kernelDigest(resp), engine(db, c.method)
	}
	var wg sync.WaitGroup
	for range 2 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for name, c := range cases {
				resp, err := shared[name].Do(context.Background(), c.req)
				if err != nil {
					t.Error(err)
					return
				}
				if d := kernelDigest(resp); d != want[name] {
					t.Errorf("%s on a shared engine: digest %s, alone %s", name, d, want[name])
				}
			}
		}()
	}
	wg.Wait()
}
