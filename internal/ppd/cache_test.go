package ppd

import (
	"context"
	"sync"
	"sync/atomic"
	"testing"
)

// lockedCache is a minimal thread-safe SolveCache for tests.
type lockedCache struct {
	mu   sync.Mutex
	m    map[string]float64
	gets int
	hits int
	puts int
}

func newLockedCache() *lockedCache { return &lockedCache{m: make(map[string]float64)} }

func (c *lockedCache) Get(key string) (float64, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.gets++
	p, ok := c.m[key]
	if ok {
		c.hits++
	}
	return p, ok
}

func (c *lockedCache) Put(key string, p float64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.puts++
	c.m[key] = p
}

func TestEvalWithCacheMatchesUncached(t *testing.T) {
	db := figure1DB(t)
	q, err := Parse(`P(_, _; c1; c2), C(c1, _, F, _, _, _), C(c2, _, M, _, _, _)`)
	if err != nil {
		t.Fatal(err)
	}
	plain := &Engine{DB: db}
	want, err := evalBool(plain, q)
	if err != nil {
		t.Fatal(err)
	}

	cache := newLockedCache()
	eng := &Engine{DB: db, Cache: cache}
	cold, err := evalBool(eng, q)
	if err != nil {
		t.Fatal(err)
	}
	if cold.Prob != want.Prob || cold.Count != want.Count {
		t.Fatalf("cold cached eval: prob=%v count=%v, want %v/%v", cold.Prob, cold.Count, want.Prob, want.Count)
	}
	if cold.CacheHits != 0 || cold.Solves != want.Solves {
		t.Fatalf("cold eval: solves=%d hits=%d, want solves=%d hits=0", cold.Solves, cold.CacheHits, want.Solves)
	}
	warm, err := evalBool(eng, q)
	if err != nil {
		t.Fatal(err)
	}
	if warm.Solves != 0 || warm.CacheHits != want.Solves {
		t.Fatalf("warm eval: solves=%d hits=%d, want 0/%d", warm.Solves, warm.CacheHits, want.Solves)
	}
	if warm.Prob != want.Prob {
		t.Fatalf("warm prob %v != %v", warm.Prob, want.Prob)
	}
}

func TestTopKWithCache(t *testing.T) {
	db := figure1DB(t)
	q, err := Parse(`P(_, _; c1; c2), C(c1, _, F, _, _, _), C(c2, _, M, _, _, _)`)
	if err != nil {
		t.Fatal(err)
	}
	plain := &Engine{DB: db}
	want, _, err := topK(plain, 3, 1, q)
	if err != nil {
		t.Fatal(err)
	}
	eng := &Engine{DB: db, Cache: newLockedCache()}
	if _, _, err := topK(eng, 3, 1, q); err != nil {
		t.Fatal(err)
	}
	got, diag, err := topK(eng, 3, 1, q)
	if err != nil {
		t.Fatal(err)
	}
	if diag.ExactSolves != 0 || diag.CacheHits == 0 {
		t.Fatalf("warm top-k: exact=%d hits=%d", diag.ExactSolves, diag.CacheHits)
	}
	for i := range want {
		if got[i].Prob != want[i].Prob {
			t.Fatalf("rank %d: %v != %v", i, got[i].Prob, want[i].Prob)
		}
	}
}

// TestEvalCacheConcurrentRace hammers Engine.Eval with Workers > 1 and a
// shared SolveCache from many goroutines; run it under -race. Every result
// must match the serial, uncached evaluation (exact method).
func TestEvalCacheConcurrentRace(t *testing.T) {
	db := figure1DB(t)
	queries := []string{
		`P(_, _; c1; c2), C(c1, _, F, _, _, _), C(c2, _, M, _, _, _)`,
		`P(_, _; c1; c2), C(c1, D, _, _, _, _), C(c2, R, _, _, _, _)`,
	}
	want := make([]float64, len(queries))
	parsed := make([]*Query, len(queries))
	for i, src := range queries {
		q, err := Parse(src)
		if err != nil {
			t.Fatal(err)
		}
		parsed[i] = q
		res, err := evalBool(&Engine{DB: db}, q)
		if err != nil {
			t.Fatal(err)
		}
		want[i] = res.Prob
	}

	cache := newLockedCache()
	var (
		wg   sync.WaitGroup
		hits atomic.Int64
	)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			// Each goroutine gets its own engine (Engine is not itself
			// concurrency-safe) but all share one cache.
			eng := &Engine{DB: db, Workers: 4, Cache: cache}
			for i := 0; i < 20; i++ {
				qi := (g + i) % len(parsed)
				res, err := evalBool(eng, parsed[qi])
				if err != nil {
					t.Error(err)
					return
				}
				if res.Prob != want[qi] {
					t.Errorf("query %d: prob %v, want %v", qi, res.Prob, want[qi])
					return
				}
				hits.Add(int64(res.CacheHits))
			}
		}(g)
	}
	wg.Wait()
	// A warm group is read off its grounding's column or found in the
	// cache; either counts as a cache hit of the response.
	if hits.Load() == 0 || cache.puts == 0 {
		t.Fatalf("shared cache was never reused: %d response hits, %d puts", hits.Load(), cache.puts)
	}
}

// TestCacheKeysSeparateMethods: engines with different Methods can share one
// cache without serving each other's results — a rejection-sampling estimate
// must not be returned as another engine's exact answer.
func TestCacheKeysSeparateMethods(t *testing.T) {
	db := figure1DB(t)
	q, err := Parse(`P(_, _; c1; c2), C(c1, _, F, _, _, _), C(c2, _, M, _, _, _)`)
	if err != nil {
		t.Fatal(err)
	}
	exact, err := evalBool(&Engine{DB: db}, q)
	if err != nil {
		t.Fatal(err)
	}
	cache := newLockedCache()
	sampler := &Engine{DB: db, Method: MethodRejection, Cache: cache}
	if _, err := evalBool(sampler, q); err != nil {
		t.Fatal(err)
	}
	got, err := evalBool(&Engine{DB: db, Method: MethodAuto, Cache: cache}, q)
	if err != nil {
		t.Fatal(err)
	}
	if got.CacheHits != 0 {
		t.Fatalf("exact engine hit the sampler's cache entries (%d hits)", got.CacheHits)
	}
	if got.Prob != exact.Prob {
		t.Fatalf("exact prob %v contaminated, want %v", got.Prob, exact.Prob)
	}
}

// A method that only samples never stores an answer, so its groups are not
// looked up either; a method with exact answers looks up and stores every
// group it solves exactly. Top-k relaxation bounds are exact bipartite
// solves and go through the cache under every method.
func TestSolveCacheOnlyForStoredAnswers(t *testing.T) {
	db := figure1DB(t)
	q := MustParse(figure1Chain)
	gr, err := db.Ground(context.Background(), &UnionQuery{Disjuncts: []*Query{q}})
	if err != nil {
		t.Fatal(err)
	}
	groups := len(gr.Groups)
	for _, m := range []Method{MethodRejection, MethodMISLite, MethodMISAdaptive, MethodAuto, MethodAdaptive} {
		sampler := !m.Exact() && m != MethodAdaptive
		for _, kind := range []Kind{KindBool, KindCount} {
			cache := newLockedCache()
			eng := &Engine{DB: db, Method: m, Cache: cache}
			resp, err := eng.Do(context.Background(), &Request{Kind: kind, Queries: []*Query{q}})
			if err != nil {
				t.Fatal(err)
			}
			want := 0 // gets and puts of a sampler
			if !sampler {
				// Every group is looked up; figure1's chain groups all
				// route exact under adaptive, so every one is stored.
				want = groups
				if resp.Plan != nil && resp.Plan.ExactGroups != groups {
					t.Fatalf("fixture: %d of %d groups route exact under adaptive", resp.Plan.ExactGroups, groups)
				}
			}
			if cache.gets != want || cache.puts != want {
				t.Errorf("%v %v: %d gets, %d puts; want %d each", m, kind, cache.gets, cache.puts, want)
			}
		}
		cache := newLockedCache()
		eng := &Engine{DB: db, Method: m, Cache: cache}
		for run := range 2 {
			cache.gets, cache.puts = 0, 0
			_, diag, err := topK(eng, 1, 1, q)
			if err != nil {
				t.Fatal(err)
			}
			bounds := diag.BoundSolves + diag.BoundCacheHits
			if bounds == 0 || run == 1 && diag.BoundCacheHits != bounds {
				t.Fatalf("%v top-k run %d: %d bound solves, %d bound cache hits", m, run, diag.BoundSolves, diag.BoundCacheHits)
			}
			if sampler && (cache.gets != bounds || cache.puts != diag.BoundSolves) {
				t.Errorf("%v top-k run %d: %d gets, %d puts; want %d and %d (bounds only)", m, run, cache.gets, cache.puts, bounds, diag.BoundSolves)
			}
		}
	}
}
