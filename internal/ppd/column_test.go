package ppd

import (
	"context"
	"math"
	"math/rand"
	"reflect"
	"sync"
	"testing"
	"time"
)

// plainRenamed is worldPlain with other variable names: a distinct query
// text, so a distinct grounding, over the very same unions. joinOlder
// grounds to worldJoin's union on fewer sessions.
const (
	plainRenamed = `P(_, _; x; y), C(x, "red", _), C(y, _, "large")`
	joinOlder    = `P(v, _; a; b), V(v, age, "F"), C(a, _, "small"), C(b, "green", _), age >= 40`
)

// uncomparableCache is a lockedCache whose engine gets no probability
// column: its value cannot be compared, so every group resolves through
// the cache, as it did before columns existed.
type uncomparableCache struct {
	*lockedCache
	_ []byte
}

// columnWorld is a small world whose queries above are all live on some
// session.
func columnWorld(t *testing.T) *smallWorld {
	t.Helper()
	rng := rand.New(rand.NewSource(47))
	for {
		w := randomSmallWorld(rng)
		db := w.db(t, w.sessions)
		live := true
		for _, q := range []string{worldPlain, worldJoin, joinOlder} {
			gr, err := db.Ground(context.Background(), MustParseUnion(q))
			if err != nil {
				t.Fatal(err)
			}
			live = live && len(gr.Groups) > 1
		}
		if live {
			return w
		}
	}
}

// withoutWork strips the work accounting from a response, and the NaN
// DeepEqual could never match.
func withoutWork(resp *Response) *Response {
	out := *resp
	out.Solves, out.CacheHits, out.Diag, out.Plan = 0, 0, nil, nil
	if out.Agg != nil && math.IsNaN(out.Agg.Avg) {
		agg := *out.Agg
		agg.Avg = -1
		out.Agg = &agg
	}
	return &out
}

// columnRequests are the kinds a column serves, over a session-independent
// and a session-dependent query; the bound-1 top-k relaxes nothing (its
// two-label groups are their own bounds under auto).
func columnRequests() []*Request {
	return []*Request{
		{Kind: KindBool, Query: worldPlain},
		{Kind: KindCount, Query: worldJoin},
		{Kind: KindCountDist, Query: worldPlain},
		{Kind: KindAggregate, Query: worldJoin, AggRel: "V", AggAttr: "age"},
		{Kind: KindTopK, Query: worldJoin, K: 3},
		{Kind: KindTopK, Query: worldPlain, K: 2, BoundEdges: 1},
	}
}

// A warm repeat reads every group off its grounding: it makes no solve
// cache call at all, and answers with the bits and counters of a warm
// repeat that probes the cache for every group.
func TestWarmRepeatProbesNoCache(t *testing.T) {
	w := columnWorld(t)
	for _, req := range columnRequests() {
		db := w.db(t, w.sessions)
		cache := newLockedCache()
		eng := &Engine{DB: db, Cache: cache}
		ref := &Engine{DB: w.db(t, w.sessions), Cache: uncomparableCache{lockedCache: newLockedCache()}}
		for _, e := range []*Engine{eng, ref} {
			if _, err := e.Do(context.Background(), req); err != nil {
				t.Fatal(err)
			}
		}
		cache.gets, cache.puts = 0, 0
		warm, err := eng.Do(context.Background(), req)
		if err != nil {
			t.Fatal(err)
		}
		if cache.gets != 0 || cache.puts != 0 {
			t.Errorf("%v %q: warm repeat made %d gets and %d puts", req.Kind, req.Query, cache.gets, cache.puts)
		}
		want, err := ref.Do(context.Background(), req)
		if err != nil {
			t.Fatal(err)
		}
		if warm.Solves != 0 || warm.CacheHits == 0 {
			t.Errorf("%v %q: warm repeat solved %d, hit %d", req.Kind, req.Query, warm.Solves, warm.CacheHits)
		}
		if !reflect.DeepEqual(withoutWork(warm), withoutWork(want)) || warm.Solves != want.Solves ||
			warm.CacheHits != want.CacheHits || !reflect.DeepEqual(warm.Diag, want.Diag) {
			t.Errorf("%v %q: warm repeat %+v differs from the cache's %+v", req.Kind, req.Query, warm, want)
		}
	}
}

// An engine without a cache keeps no column: it solves every group on
// every call.
func TestNoCacheSolvesEveryCall(t *testing.T) {
	w := columnWorld(t)
	db := w.db(t, w.sessions)
	eng := &Engine{DB: db}
	for _, req := range columnRequests()[:4] {
		gr, err := db.Ground(context.Background(), MustParseUnion(req.Query))
		if err != nil {
			t.Fatal(err)
		}
		for run := range 2 {
			resp, err := eng.Do(context.Background(), req)
			if err != nil {
				t.Fatal(err)
			}
			if resp.Solves != len(gr.Groups) || resp.CacheHits != 0 {
				t.Fatalf("%v run %d: %d solves, %d hits; want %d solves", req.Kind, run, resp.Solves, resp.CacheHits, len(gr.Groups))
			}
		}
		if len(gr.cols) != 0 {
			t.Fatalf("%v: a cache-less engine left %d columns", req.Kind, len(gr.cols))
		}
	}
}

// After an append the grounding's column carries the prefix's answers: a
// re-query probes and solves only the groups the extension adds, and
// answers as a fresh engine over the whole relation does.
func TestColumnSurvivesAppend(t *testing.T) {
	w := columnWorld(t)
	for _, q := range []string{worldPlain, worldJoin} {
		cut := len(w.sessions) / 2
		db := w.db(t, w.sessions[:cut])
		cache := newLockedCache()
		req := &Request{Kind: KindCount, Query: q}
		if _, err := (&Engine{DB: db, Cache: cache}).Do(context.Background(), req); err != nil {
			t.Fatal(err)
		}
		prefix, err := db.Ground(context.Background(), MustParseUnion(q))
		if err != nil {
			t.Fatal(err)
		}
		grown, err := db.AppendSessions("P", w.sessions[cut:])
		if err != nil {
			t.Fatal(err)
		}
		cache.gets = 0
		got, err := (&Engine{DB: grown, Cache: cache}).Do(context.Background(), req)
		if err != nil {
			t.Fatal(err)
		}
		gr, err := grown.Ground(context.Background(), MustParseUnion(q))
		if err != nil {
			t.Fatal(err)
		}
		added := len(gr.Groups) - len(prefix.Groups)
		if cache.gets != added || got.Solves != added || got.CacheHits != len(prefix.Groups) {
			t.Errorf("%q: %d gets, %d solves, %d hits; want %d, %d and %d", q, cache.gets, got.Solves, got.CacheHits, added, added, len(prefix.Groups))
		}
		fresh, err := (&Engine{DB: w.db(t, w.sessions)}).Do(context.Background(), req)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(withoutWork(got), withoutWork(fresh)) {
			t.Errorf("%q: grown answer %+v, fresh %+v", q, got, fresh)
		}
	}
}

// A sampled answer never fills a slot: neither adaptive's groups sampled
// under an expired deadline nor a seeded sampler's. An exact request on
// the grounding afterwards solves every group.
func TestColumnHoldsNoSampledAnswer(t *testing.T) {
	w := columnWorld(t)
	uq := MustParseUnion(worldPlain)
	for _, m := range []Method{MethodAdaptive, MethodRejection, MethodMISLite} {
		db := w.db(t, w.sessions)
		cache := newLockedCache()
		eng := &Engine{DB: db, Cache: cache}
		ctx := context.Background()
		if m == MethodAdaptive {
			var cancel context.CancelFunc
			ctx, cancel = context.WithDeadline(ctx, time.Now().Add(-time.Second))
			defer cancel()
		}
		resp, err := eng.Do(ctx, &Request{Kind: KindCount, Query: worldPlain, Method: m, Seed: 5})
		if err != nil {
			t.Fatal(err)
		}
		gr, err := db.Ground(context.Background(), uq)
		if err != nil {
			t.Fatal(err)
		}
		if m == MethodAdaptive && (resp.Plan == nil || resp.Plan.SampledGroups != len(gr.Groups)) {
			t.Fatalf("fixture: adaptive past its deadline sampled %+v of %d groups", resp.Plan, len(gr.Groups))
		}
		for _, col := range gr.cols {
			for gi := range gr.Groups {
				if _, ok := col.get(gi); ok {
					t.Fatalf("%v: group %d's sampled answer filled the %v column", m, gi, col.m)
				}
			}
		}
		exact, err := eng.Do(context.Background(), &Request{Kind: KindCount, Query: worldPlain, Method: MethodAdaptive})
		if err != nil {
			t.Fatal(err)
		}
		if exact.Solves != len(gr.Groups) || exact.Plan.ExactGroups != len(gr.Groups) {
			t.Fatalf("%v: the exact request after it solved %d of %d groups (plan %+v)", m, exact.Solves, len(gr.Groups), exact.Plan)
		}
	}
}

// A batch reads groups off its requests' groundings and deduplicates the
// rest by union first; its accounting is exactly a string-keyed dedup of
// GroupKeys over every request's groups, each group counted on the first
// request referencing it, a hit when the cache held its key before the
// call. Every answer is the answer the request gets alone.
func TestBatchDedupByUnion(t *testing.T) {
	w := columnWorld(t)
	req := func(kind Kind, q string) *Request {
		r := &Request{Kind: kind, Query: q}
		if kind == KindAggregate {
			r.AggRel, r.AggAttr = "V", "age"
		}
		return r
	}
	for _, tc := range []struct {
		name  string
		warm  []*Request
		batch []*Request
	}{
		{"same query twice", nil, []*Request{req(KindBool, worldPlain), req(KindCount, worldPlain)}},
		{"same query twice, warm", []*Request{req(KindBool, worldPlain)},
			[]*Request{req(KindCountDist, worldPlain), req(KindAggregate, worldPlain), req(KindBool, worldPlain)}},
		{"one union, two groundings", nil, []*Request{req(KindBool, worldPlain), req(KindCount, plainRenamed)}},
		{"a union shared in part", nil, []*Request{req(KindBool, worldJoin), req(KindCountDist, joinOlder)}},
		{"disjoint unions", nil, []*Request{req(KindBool, worldPlain), req(KindCount, worldJoin)}},
		{"warm through another grounding", []*Request{req(KindCount, plainRenamed)},
			[]*Request{req(KindBool, worldPlain), req(KindCount, plainRenamed), req(KindBool, worldJoin)}},
		{"warm and cold", []*Request{req(KindCount, worldPlain), req(KindBool, joinOlder)},
			[]*Request{req(KindBool, worldJoin), req(KindBool, worldPlain), req(KindCount, plainRenamed),
				req(KindCountDist, joinOlder), req(KindAggregate, worldJoin), req(KindCount, worldJoin)}},
	} {
		db := w.db(t, w.sessions)
		cache := newLockedCache()
		eng := &Engine{DB: db, Cache: cache}
		for _, r := range tc.warm {
			if _, err := eng.Do(context.Background(), r); err != nil {
				t.Fatal(err)
			}
		}
		crs := make([]*CompiledRequest, len(tc.batch))
		for qi, r := range tc.batch {
			cr, err := r.Compile()
			if err != nil {
				t.Fatal(err)
			}
			crs[qi] = cr
		}
		type counts struct{ groups, instances, solved, hits int }
		var want counts
		solves, hits := make([]int, len(crs)), make([]int, len(crs))
		seen := make(map[string]bool)
		for qi, cr := range crs {
			gr, err := db.Ground(context.Background(), cr.Union)
			if err != nil {
				t.Fatal(err)
			}
			want.instances += len(gr.Live)
			for _, g := range gr.Groups {
				key := GroupKey(MethodAuto, g.Model, g.Union)
				if seen[key] {
					continue
				}
				seen[key] = true
				want.groups++
				if _, ok := cache.m[key]; ok {
					want.hits++
					hits[qi]++
				} else {
					want.solved++
					solves[qi]++
				}
			}
		}
		for run := range 2 {
			cache.gets = 0
			res, err := eng.DoGrouped(context.Background(), crs)
			if err != nil {
				t.Fatal(err)
			}
			if run == 1 {
				// Every group of the call now fills the column it is read from.
				want.hits, want.solved = want.groups, 0
				for qi := range crs {
					solves[qi], hits[qi] = 0, hits[qi]+solves[qi]
				}
				if cache.gets != 0 {
					t.Errorf("%s: the repeated batch made %d cache gets", tc.name, cache.gets)
				}
			}
			if got := (counts{res.Groups, res.Instances, res.Solved, res.CacheHits}); got != want {
				t.Errorf("%s run %d: %+v, want %+v", tc.name, run, got, want)
			}
			for qi, resp := range res.Responses {
				if resp.Solves != solves[qi] || resp.CacheHits != hits[qi] {
					t.Errorf("%s run %d: request %d: %d solves, %d hits; want %d and %d", tc.name, run, qi, resp.Solves, resp.CacheHits, solves[qi], hits[qi])
				}
				alone, err := (&Engine{DB: db}).Do(context.Background(), tc.batch[qi])
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(withoutWork(resp), withoutWork(alone)) {
					t.Errorf("%s run %d: request %d answers %+v, alone %+v", tc.name, run, qi, resp, alone)
				}
			}
		}
	}
}

// Many goroutines under several methods, exact and sampled, share one
// grounding and one cache: every answer is the answer of a cache-less
// engine, so no slot is ever read half written or holds another method's
// answer (run with -race).
func TestColumnConcurrentMethods(t *testing.T) {
	w := columnWorld(t)
	db := w.db(t, w.sessions)
	methods := []Method{MethodAuto, MethodTwoLabel, MethodBipartite, MethodAdaptive, MethodRejection}
	reqs := columnRequests()
	want := make(map[[2]int]*Response)
	for mi, m := range methods {
		for ri, r := range reqs {
			rq := *r
			rq.Method, rq.Seed = m, 9
			resp, err := (&Engine{DB: w.db(t, w.sessions)}).Do(context.Background(), &rq)
			if err != nil {
				t.Fatal(err)
			}
			want[[2]int{mi, ri}] = withoutWork(resp)
		}
	}
	cache := newLockedCache()
	var wg sync.WaitGroup
	for g := range 12 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			eng := &Engine{DB: db, Cache: cache, Workers: 1 + g%3}
			for i := range 3 * len(reqs) {
				mi, ri := (g+i)%len(methods), (g*7+i)%len(reqs)
				rq := *reqs[ri]
				rq.Method, rq.Seed = methods[mi], 9
				resp, err := eng.Do(context.Background(), &rq)
				if err != nil {
					t.Error(err)
					return
				}
				if got := withoutWork(resp); !reflect.DeepEqual(got, want[[2]int{mi, ri}]) {
					t.Errorf("%v %v %q: %+v, want %+v", methods[mi], rq.Kind, rq.Query, got, want[[2]int{mi, ri}])
					return
				}
			}
		}()
	}
	wg.Wait()
}

// An aggregate's value column is parsed once per database version: the
// version and its appended successor share one map, and adding a relation
// parses it again. Unknown names fail as they always have.
func TestAggValuesParsedOncePerVersion(t *testing.T) {
	w := columnWorld(t)
	db := w.db(t, w.sessions[:4])
	same := func(a, b map[string]float64) bool {
		return reflect.ValueOf(a).Pointer() == reflect.ValueOf(b).Pointer()
	}
	vals, err := db.aggValues("V", "age")
	if err != nil {
		t.Fatal(err)
	}
	if again, _ := db.aggValues("V", "age"); !same(vals, again) {
		t.Fatal("a repeated aggregate parsed its value column again")
	}
	grown, err := db.AppendSessions("P", w.sessions[4:])
	if err != nil {
		t.Fatal(err)
	}
	if carried, _ := grown.aggValues("V", "age"); !same(vals, carried) {
		t.Fatal("an append dropped the parsed value column")
	}
	other := w.db(t, w.sessions)
	before, _ := other.aggValues("V", "age")
	if err := other.AddRelation(&Relation{Name: "W", Attrs: []string{"w"}}); err != nil {
		t.Fatal(err)
	}
	if after, _ := other.aggValues("V", "age"); same(before, after) || !reflect.DeepEqual(before, after) {
		t.Fatal("adding a relation kept the parsed value column")
	}
	for _, c := range []struct{ rel, attr, want string }{
		{"X", "age", `ppd: unknown relation "X"`},
		{"V", "height", `ppd: relation "V" has no attribute "height"`},
	} {
		if _, err := db.aggValues(c.rel, c.attr); err == nil || err.Error() != c.want {
			t.Errorf("aggValues(%q, %q): %v, want %s", c.rel, c.attr, err, c.want)
		}
	}
}
