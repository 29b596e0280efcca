package ppd_test

import (
	"context"
	"fmt"
	"reflect"
	"sync"
	"testing"

	"probpref/internal/dataset"
	"probpref/internal/ppd"
	"probpref/internal/solver"
)

// Bounded top-k (Section 4.3.2) relaxes a pattern to its hardest closure
// edges, and a two-label pattern has one edge, so under auto, twolabel and
// bipartite a group whose union is all two-label is bounded by its exact
// probability. These tests pin what that changes and what it must not: the
// top lists keep bound 0's bits, each group is looked up once, and the
// other methods still solve relaxations. (That the exact answers land in the
// solve cache for every other kind is TestWarmBoundTopKSolvesNothing's, in
// internal/server.)

const (
	// topkHotQuery is a two-label query of the hot band of
	// benchmark/queries.json, over pollsTopK's database.
	topkHotQuery = `P(_, _; l; r), C(l, D, j, 30, _, _), C(r, D, j, _, _, NE)`
	// topkStarQuery is a multi-edge query over the same database, which
	// bounded top-k relaxes. (A three-node chain is multi-edge too, but its
	// exact relative-order solves take minutes on this database.)
	topkStarQuery = `P(_, _; a; b), P(_, _; a; c), C(a, D, M, 30, _, _), C(b, R, F, 60, _, _), C(c, D, _, _, PhD, _)`
)

// pollsTopK is the polls database of the benchmark's hot workloads.
func pollsTopK(t testing.TB) *ppd.DB {
	t.Helper()
	db, err := dataset.Polls(dataset.PollsConfig{Candidates: 20, Voters: 150, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	return db
}

// countingCache is a SolveCache that counts lookups and misses.
type countingCache struct {
	mu           sync.Mutex
	m            map[string]float64
	gets, misses int
}

func newCountingCache() *countingCache { return &countingCache{m: make(map[string]float64)} }

func (c *countingCache) Get(k string) (float64, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	p, ok := c.m[k]
	c.gets++
	if !ok {
		c.misses++
	}
	return p, ok
}

func (c *countingCache) Put(k string, p float64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.m[k] = p
}

// planMap is the simplest PlanCache.
type planMap struct {
	mu sync.Mutex
	m  map[string]*solver.Plan
}

func (c *planMap) Get(k string) (*solver.Plan, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	p, ok := c.m[k]
	return p, ok
}

func (c *planMap) Put(k string, p *solver.Plan) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.m[k] = p
}

// topkArms are the three ways a set of groups gets solved: one at a time,
// as the lanes of batched walks, and on a worker pool.
var topkArms = []struct {
	name string
	eng  func(db *ppd.DB, m ppd.Method) *ppd.Engine
}{
	{"serial", func(db *ppd.DB, m ppd.Method) *ppd.Engine {
		return &ppd.Engine{DB: db, Method: m, Cache: newCountingCache()}
	}},
	{"batched", func(db *ppd.DB, m ppd.Method) *ppd.Engine {
		return &ppd.Engine{DB: db, Method: m, Cache: newCountingCache(), Plans: &planMap{m: make(map[string]*solver.Plan)}}
	}},
	{"pool", func(db *ppd.DB, m ppd.Method) *ppd.Engine {
		return &ppd.Engine{DB: db, Method: m, Cache: newCountingCache(), Workers: 2}
	}},
}

func doTopK(t *testing.T, eng *ppd.Engine, q string, k, bound int) *ppd.Response {
	t.Helper()
	resp, err := eng.Do(context.Background(), &ppd.Request{Kind: ppd.KindTopK, Query: q, K: k, BoundEdges: bound})
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

// countGroups returns the number of distinct groups q grounds to on db.
func countGroups(t *testing.T, db *ppd.DB, q string) int {
	t.Helper()
	resp, err := (&ppd.Engine{DB: db}).Do(context.Background(), &ppd.Request{Kind: ppd.KindBool, Query: q})
	if err != nil {
		t.Fatal(err)
	}
	return resp.Solves
}

// On two-label queries, bound 1 and bound 2 return bound 0's top list bit
// for bit (sessions, order and probabilities) and solve no relaxation.
func TestTopKTwoLabelBoundsKeepBits(t *testing.T) {
	fig1, err := dataset.Figure1()
	if err != nil {
		t.Fatal(err)
	}
	polls := pollsTopK(t)
	for _, tc := range []struct {
		name string
		db   *ppd.DB
		q    string
	}{
		{"figure1", fig1, dataset.Figure1Query},
		{"figure1-union", fig1, `P(_, _; c1; c2), C(c1, _, F, _, _, _), C(c2, _, M, _, _, _) | P(_, _; c1; c2), C(c1, D, _, _, JD, _), C(c2, R, _, _, _, _)`},
		{"polls", polls, dataset.PollsQuery},
		{"polls-hot", polls, topkHotQuery},
	} {
		groups := countGroups(t, tc.db, tc.q)
		for _, m := range []ppd.Method{ppd.MethodAuto, ppd.MethodTwoLabel, ppd.MethodBipartite} {
			for _, arm := range topkArms {
				for _, k := range []int{1, 5} {
					naive := doTopK(t, arm.eng(tc.db, m), tc.q, k, 0)
					for _, bound := range []int{1, 2} {
						resp := doTopK(t, arm.eng(tc.db, m), tc.q, k, bound)
						if !reflect.DeepEqual(resp.Top, naive.Top) {
							t.Fatalf("%s %v %s k=%d bound %d: top %v, bound 0 %v", tc.name, m, arm.name, k, bound, resp.Top, naive.Top)
						}
						if d := resp.Diag; d.BoundSolves != 0 || d.BoundCacheHits != 0 || d.ExactSolves != groups {
							t.Fatalf("%s %v %s k=%d bound %d: diag %+v, want no bounds and the %d groups solved exactly",
								tc.name, m, arm.name, k, bound, d, groups)
						}
					}
				}
			}
		}
	}
}

// Only auto, twolabel and bipartite take a two-label group's exact
// probability as its bound; the other exact methods, the samplers and the
// adaptive planner still solve a relaxation per distinct relaxed request.
func TestTopKOtherMethodsRelax(t *testing.T) {
	db, err := dataset.Figure1()
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range []ppd.Method{ppd.MethodRelOrder, ppd.MethodGeneral, ppd.MethodRejection, ppd.MethodAdaptive} {
		resp := doTopK(t, &ppd.Engine{DB: db, Method: m}, dataset.Figure1Query, 2, 1)
		if resp.Diag.BoundSolves == 0 {
			t.Errorf("%v: diag %+v, want relaxation solves", m, resp.Diag)
		}
	}
}

// A cold top-k looks each group up in the solve cache exactly once, on
// every arm: its misses are the query's distinct groups, and a bounded
// top-k of a two-label query solves every one of them. A multi-edge query
// looks up its relaxations beside them.
func TestTopKLooksEachGroupUpOnce(t *testing.T) {
	db := pollsTopK(t)
	groups := countGroups(t, db, topkHotQuery)
	for _, arm := range topkArms {
		for _, bound := range []int{0, 1} {
			eng := arm.eng(db, ppd.MethodAuto)
			resp := doTopK(t, eng, topkHotQuery, 5, bound)
			c := eng.Cache.(*countingCache)
			if c.gets != groups || c.misses != groups || resp.Diag.ExactSolves != groups {
				t.Fatalf("%s bound %d: %d lookups, %d misses, diag %+v; want %d groups, each looked up once and solved",
					arm.name, bound, c.gets, c.misses, resp.Diag, groups)
			}
		}
		eng := arm.eng(db, ppd.MethodAuto)
		resp := doTopK(t, eng, topkStarQuery, 5, 1)
		d, c := resp.Diag, eng.Cache.(*countingCache)
		if d.BoundSolves == 0 || c.gets != d.BoundSolves+d.ExactSolves || c.misses != c.gets {
			t.Fatalf("%s star: %d lookups, %d misses, diag %+v; want one lookup per relaxation and per exact solve", arm.name, c.gets, c.misses, d)
		}
	}
}

// BenchmarkTopKCold times a top-k (k = 5) on a cold solve cache, the way a
// fresh daemon's first top-k of a query runs: polls at 150 voters, a fresh
// engine, solve cache and plan cache per iteration (the grounding is
// memoised on the database after the first). On the two-label hot query
// bound 1 solves every group exactly once, as batched lanes, and nothing
// else; on the multi-edge star query it solves a relaxation per distinct
// relaxed request and then the few groups the ranking reaches.
func BenchmarkTopKCold(b *testing.B) {
	db := pollsTopK(b)
	for _, q := range []struct{ name, text string }{{"hot", topkHotQuery}, {"star", topkStarQuery}} {
		for _, bound := range []int{0, 1} {
			b.Run(fmt.Sprintf("%s/bound=%d", q.name, bound), func(b *testing.B) {
				req := &ppd.Request{Kind: ppd.KindTopK, Query: q.text, K: 5, BoundEdges: bound}
				solves := 0
				for b.Loop() {
					eng := &ppd.Engine{DB: db, Cache: newCountingCache(), Plans: &planMap{m: make(map[string]*solver.Plan)}}
					resp, err := eng.Do(context.Background(), req)
					if err != nil {
						b.Fatal(err)
					}
					solves = resp.Solves
				}
				b.ReportMetric(float64(solves), "solves/op")
			})
		}
	}
}
