package ppd

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"sync"
	"testing"
	"unsafe"

	"probpref/internal/consensus"
	"probpref/internal/label"
	"probpref/internal/rank"
	"probpref/internal/rim"
)

// smallWorld is a random small RIM-PPD in parts: the o-relations and one
// list of sessions, so the same *Session values can be loaded whole into
// one database and grown append by append into another. Responses carry
// *Session pointers, and sharing them is what lets reflect.DeepEqual
// compare a whole database's answer with a grown one's.
type smallWorld struct {
	items, voters *Relation
	sessions      []*Session
}

// randomSmallWorld draws 4 or 5 items with two attributes, a handful of
// voters, and 12 to 16 sessions whose models come from a pool of five, so
// that sessions share models (and inference groups) the way loaded
// relations do.
func randomSmallWorld(rng *rand.Rand) *smallWorld {
	m := 4 + rng.Intn(2)
	colors, sizes := []string{"red", "green", "blue"}, []string{"small", "large"}
	var itemRows [][]string
	for i := 0; i < m; i++ {
		itemRows = append(itemRows, []string{fmt.Sprintf("i%d", i), colors[rng.Intn(len(colors))], sizes[rng.Intn(len(sizes))]})
	}
	var voterRows [][]string
	for v := 0; v < 6; v++ {
		voterRows = append(voterRows, []string{fmt.Sprintf("v%d", v), fmt.Sprint(20 + 10*rng.Intn(5)), []string{"F", "M"}[rng.Intn(2)]})
	}
	w := &smallWorld{
		items:  &Relation{Name: "C", Attrs: []string{"item", "color", "size"}, Tuples: itemRows},
		voters: &Relation{Name: "V", Attrs: []string{"voter", "age", "sex"}, Tuples: voterRows},
	}
	pool := make([]rim.SessionModel, 5)
	for i := range pool {
		sigma := rank.Ranking(make([]rank.Item, m))
		for j, it := range rng.Perm(m) {
			sigma[j] = rank.Item(it)
		}
		if i == len(pool)-1 {
			phis := make([]float64, m)
			for j := range phis {
				phis[j] = 0.1 + 0.8*rng.Float64()
			}
			pool[i] = rim.MustGeneralizedMallows(sigma, phis)
		} else {
			pool[i] = rim.MustMallows(sigma, 0.1+0.8*rng.Float64())
		}
	}
	for s, n := 0, 12+rng.Intn(5); s < n; s++ {
		// v6 and v7 have no row in V: live for plain queries, never for
		// ones that join the voter.
		w.sessions = append(w.sessions, &Session{
			Key:   []string{fmt.Sprintf("v%d", rng.Intn(8)), fmt.Sprintf("day%d", s)},
			Model: pool[rng.Intn(len(pool))],
		})
	}
	return w
}

// db loads the o-relations and the given sessions into a fresh database.
func (w *smallWorld) db(t *testing.T, sessions []*Session) *DB {
	t.Helper()
	db, err := NewDB(w.items)
	if err != nil {
		t.Fatal(err)
	}
	if err := db.AddRelation(w.voters); err != nil {
		t.Fatal(err)
	}
	if err := db.AddPrefRelation(&PrefRelation{Name: "P", SessionAttrs: []string{"voter", "day"}, Sessions: SessionSlice(sessions)}); err != nil {
		t.Fatal(err)
	}
	return db
}

const (
	worldPlain  = `P(_, _; a; b), C(a, "red", _), C(b, _, "large")`
	worldJoin   = `P(v, _; a; b), V(v, age, "F"), C(a, _, "small"), C(b, "green", _), age >= 30`
	worldShared = `P(v, _; a; b), P(v, _; a; c), V(v, _, _), C(b, "blue", _), C(c, _, "small")`
)

// worldRequests covers the six kinds over a session-independent query, one
// that joins (and filters on) the voter, a two-edge pattern and a union.
func worldRequests() []*Request {
	return []*Request{
		{Kind: KindBool, Query: worldPlain},
		{Kind: KindBool, Query: worldShared},
		{Kind: KindCount, Query: worldJoin + " | " + worldPlain},
		{Kind: KindTopK, Query: worldPlain, K: 3, BoundEdges: 1},
		{Kind: KindTopK, Query: worldJoin + " | " + worldShared, K: 2, BoundEdges: 2},
		{Kind: KindTopK, Query: worldJoin, K: 4},
		{Kind: KindAggregate, Query: worldPlain, AggRel: "V", AggAttr: "age"},
		{Kind: KindCountDist, Query: worldJoin},
		{Kind: KindConsensus, Query: worldPlain, ConsensusTarget: consensus.TargetMedian},
		{Kind: KindConsensus, Query: worldJoin + " | " + worldPlain, ConsensusTarget: consensus.TargetTopK, K: 2},
		{Kind: KindConsensus, Query: worldShared, ConsensusTarget: consensus.TargetMAP},
	}
}

// answerOf runs one request on a fresh engine and strips what legitimately
// differs between a cold and a warm evaluation (the work accounting), and
// the one NaN DeepEqual could never match.
func answerOf(t *testing.T, db *DB, req *Request, workers int) *Response {
	t.Helper()
	eng := Tune(&Engine{DB: db, Workers: workers}, Tuning{Draws: 300})
	resp, err := eng.Do(context.Background(), req)
	if err != nil {
		t.Fatalf("%v %v on %q: %v", req.Method, req.Kind, req.Query, err)
	}
	resp.Solves, resp.CacheHits, resp.Diag = 0, 0, nil
	if resp.Agg != nil && math.IsNaN(resp.Agg.Avg) {
		resp.Agg.Avg = -1
	}
	return resp
}

// The memo must be invisible in the answers: a repeated request (warm
// memo), and the same request on a database grown to the same sessions by
// 1, 3 and 8 appends with the request issued between the steps (inherited
// and tail-extended memo), return exactly what a fresh database built whole
// returns — per-session order, group order and with it every seeded draw.
func TestGroundingMemoIsInvisible(t *testing.T) {
	rng := rand.New(rand.NewSource(20260930))
	for trial := 0; trial < 6; trial++ {
		w := randomSmallWorld(rng)
		for _, method := range []Method{MethodAuto, MethodBipartite, MethodRejection} {
			workers := 1 + 3*(trial%2) // the serial RNG stream and the per-group seeds in turn
			for ri, base := range worldRequests() {
				req := *base
				req.Method = method
				if method == MethodRejection {
					req.Seed = 7
				}
				name := fmt.Sprintf("trial %d, %v, request %d (%v)", trial, method, ri, req.Kind)

				whole := w.db(t, w.sessions)
				want := answerOf(t, whole, &req, workers)
				if got := answerOf(t, whole, &req, workers); !reflect.DeepEqual(got, want) {
					t.Fatalf("%s: repeat on the same database differs\n got %+v\nwant %+v", name, got, want)
				}

				for _, steps := range []int{1, 3, 8} {
					const start = 4
					grown := w.db(t, w.sessions[:start])
					answerOf(t, grown, &req, workers)
					rest := w.sessions[start:]
					for s := 0; s < steps; s++ {
						lo, hi := s*len(rest)/steps, (s+1)*len(rest)/steps
						var err error
						if grown, err = grown.AppendSessions("P", rest[lo:hi]); err != nil {
							t.Fatal(err)
						}
						if s < steps-1 {
							answerOf(t, grown, &req, workers)
						}
					}
					if got := answerOf(t, grown, &req, workers); !reflect.DeepEqual(got, want) {
						t.Fatalf("%s: database grown in %d appends differs\n got %+v\nwant %+v", name, steps, got, want)
					}
				}
			}
		}
	}
}

// Successor versions extend copies: after a chain of appends and a fork,
// every version handed out along the way still answers over exactly its
// own sessions.
func TestAppendLeavesOlderVersionsAlone(t *testing.T) {
	w := randomSmallWorld(rand.New(rand.NewSource(9)))
	req := &Request{Kind: KindCount, Query: worldJoin + " | " + worldPlain}
	cuts := []int{4, 7, 8, len(w.sessions)}
	versions := []*DB{w.db(t, w.sessions[:cuts[0]])}
	answerOf(t, versions[0], req, 1)
	for i := 1; i < len(cuts); i++ {
		next, err := versions[i-1].AppendSessions("P", w.sessions[cuts[i-1]:cuts[i]])
		if err != nil {
			t.Fatal(err)
		}
		answerOf(t, next, req, 1)
		versions = append(versions, next)
	}
	// A fork of the second version, grown by other sessions than its
	// sibling was.
	forkSessions := append(append([]*Session(nil), w.sessions[:cuts[1]]...), w.sessions[cuts[2]:]...)
	fork, err := versions[1].AppendSessions("P", w.sessions[cuts[2]:])
	if err != nil {
		t.Fatal(err)
	}
	check := func(what string, db *DB, sessions []*Session) {
		t.Helper()
		want := answerOf(t, w.db(t, sessions), req, 1)
		if got := answerOf(t, db, req, 1); !reflect.DeepEqual(got, want) {
			t.Fatalf("%s answers\n got %+v\nwant %+v", what, got, want)
		}
	}
	check("the fork", fork, forkSessions)
	for i := len(versions) - 1; i >= 0; i-- {
		check(fmt.Sprintf("version %d", i), versions[i], w.sessions[:cuts[i]])
	}
}

// A grounded group's key must be the GroupKey of its model and union under
// every method, and a repeated query must be served by the very same
// value.
func TestGroundedGroupKeyAndIdentity(t *testing.T) {
	w := randomSmallWorld(rand.New(rand.NewSource(3)))
	db := w.db(t, w.sessions)
	uq := MustParseUnion(worldJoin + " | " + worldPlain)
	gr, err := db.Ground(context.Background(), uq)
	if err != nil {
		t.Fatal(err)
	}
	if len(gr.Groups) == 0 || len(gr.Groups) >= len(gr.Live) {
		t.Fatalf("%d groups over %d live sessions: the world should share models", len(gr.Groups), len(gr.Live))
	}
	if gr.Sessions != len(w.sessions) {
		t.Fatalf("Sessions = %d, want %d", gr.Sessions, len(w.sessions))
	}
	for gi, g := range gr.Groups {
		for _, m := range []Method{MethodAuto, MethodBipartite, MethodRejection, MethodAdaptive} {
			if got, want := g.id.key(m), GroupKey(m, g.Model, g.Union); got != want {
				t.Fatalf("group %d under %v: key %q, want %q", gi, m, got, want)
			}
		}
	}
	again, err := db.Ground(context.Background(), MustParseUnion(worldJoin+" | "+worldPlain))
	if err != nil {
		t.Fatal(err)
	}
	if again != gr {
		t.Fatal("a repeated query was grounded again instead of served from the memo")
	}
}

// allMethods lists every Method.
var allMethods = []Method{MethodAuto, MethodTwoLabel, MethodBipartite, MethodGeneral, MethodRelOrder,
	MethodMISAdaptive, MethodMISLite, MethodRejection, MethodAdaptive}

// checkCacheKeys requires gr's memoised keys to be GroupKey's: every group
// under every method, and every bound-1 relaxation under MethodBipartite;
// in the own mode exactly the all-two-label groups are left unrelaxed. It
// also requires gr's union numbering to name each group's union key, each
// distinct key once, by its first group.
func checkCacheKeys(t *testing.T, what string, gr *Grounded, lab *label.Labeling) {
	t.Helper()
	firstOf := make(map[string]int)
	for gi, g := range gr.Groups {
		if _, ok := firstOf[g.id.union]; !ok {
			firstOf[g.id.union] = gi
		}
		if at := gr.unionAt[gr.unionOf[gi]]; at != firstOf[g.id.union] {
			t.Fatalf("%s: group %d's union is numbered after group %d, first seen at %d", what, gi, at, firstOf[g.id.union])
		}
	}
	if len(gr.unionAt) != len(firstOf) {
		t.Fatalf("%s: %d numbered unions, %d distinct keys", what, len(gr.unionAt), len(firstOf))
	}
	for _, m := range allMethods {
		keys := gr.cacheKeys(m)
		if len(keys) != len(gr.Groups) {
			t.Fatalf("%s: %d keys under %v for %d groups", what, len(keys), m, len(gr.Groups))
		}
		for gi, g := range gr.Groups {
			if want := GroupKey(m, g.Model, g.Union); keys[gi] != want {
				t.Fatalf("%s: group %d under %v: key %q, want %q", what, gi, m, keys[gi], want)
			}
		}
	}
	for _, own := range []bool{false, true} {
		bs := gr.bounds(boundMode{edges: 1, own: own}, lab)
		for gi, bi := range bs.of {
			if self := own && gr.Groups[gi].Union.AllTwoLabel(); self != (bi < 0) {
				t.Fatalf("%s: own %v: group %d relaxes to %d", what, own, gi, bi)
			}
		}
		for bi, b := range bs.relaxed {
			if want := GroupKey(MethodBipartite, b.Model, b.Union); bs.keys[bi] != want {
				t.Fatalf("%s: relaxation %d: key %q, want %q", what, bi, bs.keys[bi], want)
			}
		}
	}
}

// A Grounded's cache keys are GroupKey's, on a fresh grounding and on one
// extended by an append, whose prefix keys are inherited rather than built
// again; concurrent readers of one grounding agree (run with -race).
func TestGroundedCacheKeys(t *testing.T) {
	w := randomSmallWorld(rand.New(rand.NewSource(11)))
	uq := MustParseUnion(worldJoin + " | " + worldPlain)
	cut := len(w.sessions) / 2
	db := w.db(t, w.sessions[:cut])
	ground := func(db *DB) *Grounded {
		t.Helper()
		gr, err := db.Ground(context.Background(), uq)
		if err != nil {
			t.Fatal(err)
		}
		return gr
	}
	prefix := ground(db)
	checkCacheKeys(t, "prefix", prefix, db.Labeling())

	grown, err := db.AppendSessions("P", w.sessions[cut:])
	if err != nil {
		t.Fatal(err)
	}
	gr := ground(grown)
	if gr == prefix || len(gr.Groups) <= len(prefix.Groups) {
		t.Fatalf("the append left %d groups (prefix %d): the world should add groups", len(gr.Groups), len(prefix.Groups))
	}
	for _, m := range allMethods {
		old, keys := prefix.cacheKeys(m), gr.cacheKeys(m)
		for gi := range old {
			if unsafe.StringData(keys[gi]) != unsafe.StringData(old[gi]) {
				t.Fatalf("group %d under %v: the extension built its key again", gi, m)
			}
		}
	}
	checkCacheKeys(t, "extension", gr, grown.Labeling())

	fresh := w.db(t, w.sessions)
	gr = ground(fresh)
	var wg sync.WaitGroup
	for r := range 8 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for _, m := range allMethods[r%3:] {
				gr.cacheKeys(m)
				gr.bounds(boundMode{edges: 1 + r%2, own: r%2 == 0}, fresh.Labeling())
			}
		}()
	}
	wg.Wait()
	checkCacheKeys(t, "after concurrent readers", gr, fresh.Labeling())
}

// A warm bound-1 top-k on an engine with a solve cache solves nothing:
// every bound and every exact group comes from the cache, and the answer
// does not change. A two-label query's groups are their own bounds, so its
// cold run solves each group once, exactly; a multi-edge query's bounds are
// relaxations, solved cold and cached.
func TestTopKBoundsGoThroughTheCache(t *testing.T) {
	w := randomSmallWorld(rand.New(rand.NewSource(5)))
	db := w.db(t, w.sessions)
	for _, q := range []string{worldPlain, worldShared} {
		cache := &mapCache{m: make(map[string]float64)}
		req := &Request{Kind: KindTopK, Query: q, K: 3, BoundEdges: 1}
		do := func() *Response {
			t.Helper()
			resp, err := (&Engine{DB: db, Cache: cache}).Do(context.Background(), req)
			if err != nil {
				t.Fatal(err)
			}
			return resp
		}
		cold, warm := do(), do()
		gr, err := db.Ground(context.Background(), MustParseUnion(q))
		if err != nil {
			t.Fatal(err)
		}
		if q == worldPlain {
			if cold.Diag.BoundSolves != 0 || cold.Diag.BoundCacheHits != 0 || cold.Diag.ExactSolves != len(gr.Groups) {
				t.Fatalf("two-label cold diag %+v: want the %d groups solved exactly and no bounds", cold.Diag, len(gr.Groups))
			}
			if warm.Diag.CacheHits != len(gr.Groups) {
				t.Fatalf("two-label warm diag %+v: want %d exact hits", warm.Diag, len(gr.Groups))
			}
		} else if cold.Diag.BoundSolves == 0 || cold.Diag.BoundCacheHits != 0 {
			t.Fatalf("%s: cold diag %+v: want bound solves and no bound hits", q, cold.Diag)
		}
		if warm.Solves != 0 || warm.Diag.BoundSolves != 0 || warm.Diag.ExactSolves != 0 {
			t.Fatalf("%s: warm top-k still solves: %+v (solves %d)", q, warm.Diag, warm.Solves)
		}
		if warm.Diag.BoundCacheHits != cold.Diag.BoundSolves {
			t.Fatalf("%s: warm top-k hit %d bounds, want the %d the cold one solved", q, warm.Diag.BoundCacheHits, cold.Diag.BoundSolves)
		}
		if warm.CacheHits != warm.Diag.BoundCacheHits+warm.Diag.CacheHits {
			t.Fatalf("%s: CacheHits = %d, want bound hits %d + exact hits %d", q, warm.CacheHits, warm.Diag.BoundCacheHits, warm.Diag.CacheHits)
		}
		if !reflect.DeepEqual(cold.Top, warm.Top) {
			t.Fatalf("%s: warm top-k answers %v, cold %v", q, warm.Top, cold.Top)
		}
	}
}

// mapCache is the simplest SolveCache.
type mapCache struct {
	mu sync.Mutex
	m  map[string]float64
}

func (c *mapCache) Get(k string) (float64, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	p, ok := c.m[k]
	return p, ok
}

func (c *mapCache) Put(k string, p float64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.m[k] = p
}

// The memo is bounded in live-session references, not entries: more
// distinct queries than the budget holds evict the least recently used
// ones, a grounding larger than the whole budget is not kept at all, and
// adding a relation drops everything.
func TestGroundingMemoBudget(t *testing.T) {
	items := &Relation{Name: "C", Attrs: []string{"item", "color", "size"}, Tuples: [][]string{
		{"i0", "red", "small"}, {"i1", "green", "large"}, {"i2", "blue", "small"},
	}}
	db, err := NewDB(items)
	if err != nil {
		t.Fatal(err)
	}
	const sessions = 3000
	model := rim.MustMallows(rank.Identity(3), 0.5)
	ss := make(SessionSlice, sessions)
	for i := range ss {
		ss[i] = &Session{Key: []string{fmt.Sprint(i)}, Model: model}
	}
	if err := db.AddPrefRelation(&PrefRelation{Name: "P", SessionAttrs: []string{"voter"}, Sessions: ss}); err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	var queries []*UnionQuery
	for _, ca := range []string{"red", "green", "blue"} {
		for _, cb := range []string{"red", "green", "blue"} {
			for _, sa := range []string{"small", "large"} {
				for _, sb := range []string{"small", "large"} {
					queries = append(queries, MustParseUnion(fmt.Sprintf(`P(_; a; b), C(a, %q, %q), C(b, %q, %q)`, ca, sa, cb, sb)))
				}
			}
		}
	}
	if len(queries)*sessions <= groundMemoBudget {
		t.Fatalf("%d queries over %d sessions fit the budget of %d; the test needs more", len(queries), sessions, groundMemoBudget)
	}
	var last *Grounded
	for _, uq := range queries {
		gr, err := db.Ground(ctx, uq)
		if err != nil {
			t.Fatal(err)
		}
		if len(gr.Live) != sessions {
			t.Fatalf("%v: %d live sessions, want %d", uq, len(gr.Live), sessions)
		}
		if db.memo.refs > groundMemoBudget {
			t.Fatalf("memo holds %d live references, budget is %d", db.memo.refs, groundMemoBudget)
		}
		last = gr
	}
	if kept, fit := len(db.memo.entries), groundMemoBudget/memoCost(last); kept == 0 || kept != fit {
		t.Fatalf("memo keeps %d entries, want the %d the budget holds", kept, fit)
	}
	if gr, _ := db.Ground(ctx, queries[len(queries)-1]); gr != last {
		t.Fatal("the most recent query was evicted")
	}
	if _, ok := db.memo.entries[queries[0].String()]; ok {
		t.Fatal("the least recently used query survived")
	}

	var m groundMemo
	m.put("huge", &Grounded{Live: make([]LiveSession, groundMemoBudget)})
	if m.refs != 0 || len(m.entries) != 0 {
		t.Fatalf("a grounding over the whole budget was kept (%d refs)", m.refs)
	}

	if err := db.AddPrefRelation(&PrefRelation{Name: "P2", SessionAttrs: []string{"voter"}}); err != nil {
		t.Fatal(err)
	}
	if db.memo.refs != 0 || len(db.memo.entries) != 0 {
		t.Fatalf("AddPrefRelation left %d entries (%d refs) in the memo", len(db.memo.entries), db.memo.refs)
	}
	if _, err := db.Ground(ctx, queries[0]); err != nil {
		t.Fatal(err)
	}
	if err := db.AddRelation(&Relation{Name: "X", Attrs: []string{"k"}}); err != nil {
		t.Fatal(err)
	}
	if len(db.memo.entries) != 0 {
		t.Fatal("AddRelation left the memo in place")
	}
}

// Two engines first-touching one fresh database at once: the session
// models materialize under both (rim.Mallows.Model used to write its cache
// unsynchronised) and both ground the same query into the memo. Meaningful
// under -race.
func TestTwoEnginesOnAFreshDB(t *testing.T) {
	w := randomSmallWorld(rand.New(rand.NewSource(11)))
	reqs := []*Request{
		{Kind: KindBool, Query: worldPlain},
		{Kind: KindTopK, Query: worldPlain, K: 3, BoundEdges: 1},
	}
	for round := 0; round < 20; round++ {
		db := w.db(t, w.sessions)
		// Fresh models too: the pool's are materialized after round 0.
		for _, s := range db.Prefs["P"].Sessions.All() {
			if ml, ok := s.Model.(*rim.Mallows); ok {
				s.Model = rim.MustMallows(ml.Sigma, ml.Phi)
			}
		}
		var answers [2][]*Response
		start := make(chan struct{})
		var wg sync.WaitGroup
		for g := range answers {
			wg.Add(1)
			go func() {
				defer wg.Done()
				<-start
				for _, req := range reqs {
					resp, err := (&Engine{DB: db, Workers: 2}).Do(context.Background(), req)
					if err != nil {
						t.Error(err)
						return
					}
					answers[g] = append(answers[g], resp)
				}
			}()
		}
		close(start)
		wg.Wait()
		if t.Failed() {
			return
		}
		for ri := range reqs {
			a, b := answers[0][ri], answers[1][ri]
			if a.Prob != b.Prob || !reflect.DeepEqual(a.PerSession, b.PerSession) || !reflect.DeepEqual(a.Top, b.Top) {
				t.Fatalf("round %d request %d: the two engines disagree", round, ri)
			}
		}
	}
}
