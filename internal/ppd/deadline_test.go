package ppd_test

import (
	"context"
	"math"
	"reflect"
	"sync"
	"testing"
	"time"

	"probpref/internal/dataset"
	"probpref/internal/ppd"
	"probpref/internal/solver"
)

// deadlinePolls is polls at 300 voters and its demo query, the relation
// where a deadline of a few milliseconds routes some groups exact and
// samples the rest.
func deadlinePolls(tb testing.TB) (*ppd.DB, string) {
	tb.Helper()
	db, query, err := dataset.Build(dataset.BuildConfig{Name: "polls", Candidates: 20, Voters: 300, Seed: 1})
	if err != nil {
		tb.Fatal(err)
	}
	return db, query
}

// A deadline is priced once, when the evaluation starts, and the groups are
// routed against it in a fixed order: repeats and worker counts give the
// same bits and the same plan, whatever the clock read meanwhile.
func TestDeadlineAnswerDeterministic(t *testing.T) {
	db, query := deadlinePolls(t)
	for _, d := range []time.Duration{5 * time.Millisecond, 60 * time.Millisecond} {
		var want *ppd.Response
		for _, workers := range []int{1, 4} {
			for run := 0; run < 5; run++ {
				eng := &ppd.Engine{DB: db, Method: ppd.MethodAdaptive, Workers: workers}
				resp, err := eng.Do(context.Background(), &ppd.Request{Kind: ppd.KindCount, Query: query, Deadline: d})
				if err != nil {
					t.Fatal(err)
				}
				if want == nil {
					want = resp
					if resp.Plan.ExactGroups == 0 || resp.Plan.SampledGroups == 0 {
						t.Fatalf("fixture: a %v deadline should route some groups exact and sample others, got %+v", d, resp.Plan)
					}
					continue
				}
				if math.Float64bits(resp.Count) != math.Float64bits(want.Count) || !reflect.DeepEqual(resp.PerSession, want.PerSession) {
					t.Fatalf("%v, workers %d, run %d: count %v, first run %v", d, workers, run, resp.Count, want.Count)
				}
				if !reflect.DeepEqual(resp.Plan, want.Plan) {
					t.Fatalf("%v, workers %d, run %d: plan %+v, first run %+v", d, workers, run, resp.Plan, want.Plan)
				}
			}
		}
	}
}

// putCache is a solve cache that only records what is put in it: the exact
// answers of an evaluation.
type putCache struct {
	mu   sync.Mutex
	puts map[string]bool
}

func (c *putCache) Get(string) (float64, bool) { return 0, false }

func (c *putCache) Put(key string, _ float64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.puts[key] = true
}

// The groups a deadline routes exact are bought with its budget: their
// prices sum to at most the deadline at AdaptiveStatesPerSecond.
func TestDeadlineExactPricesWithinBudget(t *testing.T) {
	db, query := deadlinePolls(t)
	gr, err := db.Ground(context.Background(), ppd.MustParseUnion(query))
	if err != nil {
		t.Fatal(err)
	}
	maxInvolved := solver.Options{}.MaxInvolvedLimit()
	for _, d := range []time.Duration{time.Millisecond, 5 * time.Millisecond, 20 * time.Millisecond, 60 * time.Millisecond} {
		for _, workers := range []int{1, 4} {
			cache := &putCache{puts: make(map[string]bool)}
			eng := &ppd.Engine{DB: db, Method: ppd.MethodAdaptive, Workers: workers, Cache: cache}
			resp, err := eng.Do(context.Background(), &ppd.Request{Kind: ppd.KindCount, Query: query, Deadline: d})
			if err != nil {
				t.Fatal(err)
			}
			if d >= 20*time.Millisecond && resp.Plan.ExactGroups == 0 {
				t.Fatalf("fixture: a %v deadline routed no group exact: %+v", d, resp.Plan)
			}
			if len(cache.puts) != resp.Plan.ExactGroups {
				t.Fatalf("%v: %d exact answers cached, plan %+v", d, len(cache.puts), resp.Plan)
			}
			spent := 0.0
			for _, g := range gr.Groups {
				if cache.puts[ppd.GroupKey(ppd.MethodAdaptive, g.Model, g.Union)] {
					spent += ppd.EstimateCost(g.Model, db.Labeling(), g.Union, maxInvolved).States
				}
			}
			if budget := d.Seconds() * ppd.AdaptiveStatesPerSecond; spent > budget {
				t.Errorf("%v, workers %d: %d exact groups priced %.0f transitions, over the budget %.0f", d, workers, resp.Plan.ExactGroups, spent, budget)
			}
		}
	}
}
