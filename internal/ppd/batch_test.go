package ppd

import (
	"context"
	"errors"
	"math"
	"sync"
	"testing"
	"time"

	"probpref/internal/solver"
)

// mapPlanCache is a test PlanCache counting hits and compiles.
type mapPlanCache struct {
	mu   sync.Mutex
	m    map[string]*solver.Plan
	hits int
	puts int
}

func newMapPlanCache() *mapPlanCache {
	return &mapPlanCache{m: make(map[string]*solver.Plan)}
}

func (c *mapPlanCache) Get(key string) (*solver.Plan, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	p, ok := c.m[key]
	if ok {
		c.hits++
	}
	return p, ok
}

func (c *mapPlanCache) Put(key string, p *solver.Plan) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.puts++
	c.m[key] = p
}

// unionKeys returns the union key of every group, as a grounding builds it.
func unionKeys(groups []BatchGroup) []string {
	keys := make([]string, len(groups))
	for i, g := range groups {
		keys[i] = g.U.Key()
	}
	return keys
}

// batchSolveGroups must match per-group solves bit-for-bit for the
// exact compiled-plan methods — the grouped/batched path is a pure
// performance optimization.
func TestBatchSolveGroupsMatchesPerGroupBitwise(t *testing.T) {
	db := figure1DB(t)
	q := MustParse(`P(_, _; c1; c2), C(c1, _, F, _, _, _), C(c2, _, M, _, _, _)`)
	g, err := NewGrounder(db, q)
	if err != nil {
		t.Fatal(err)
	}
	var groups []BatchGroup
	for _, s := range g.Pref().Sessions.All() {
		gq, err := g.GroundSession(s)
		if err != nil {
			t.Fatal(err)
		}
		if len(gq.Union) == 0 {
			continue
		}
		groups = append(groups, BatchGroup{SM: s.Model, U: gq.Union})
	}
	if len(groups) < 2 {
		t.Fatalf("fixture produced %d groups, want >= 2", len(groups))
	}
	for _, method := range []Method{MethodAuto, MethodTwoLabel, MethodBipartite, MethodRelOrder} {
		eng := &Engine{DB: db, Method: method, Plans: newMapPlanCache()}
		probs, err := eng.batchSolveGroups(context.Background(), method, groups, unionKeys(groups))
		if err != nil {
			t.Fatalf("%v: %v", method, err)
		}
		for gi, bg := range groups {
			want, _, err := eng.solve(context.Background(), method, 0, bg.SM, bg.U)
			if err != nil {
				t.Fatalf("%v group %d: %v", method, gi, err)
			}
			if math.Float64bits(probs[gi]) != math.Float64bits(want) {
				t.Fatalf("%v group %d: batched %v != per-group %v", method, gi, probs[gi], want)
			}
		}
	}
}

// The plan cache must be consulted and filled: a second batch over the same
// shapes compiles nothing new.
func TestBatchSolveGroupsUsesPlanCache(t *testing.T) {
	db := figure1DB(t)
	q := MustParse(`P(_, _; c1; c2), C(c1, _, F, _, _, _), C(c2, _, M, _, _, _)`)
	g, err := NewGrounder(db, q)
	if err != nil {
		t.Fatal(err)
	}
	var groups []BatchGroup
	for _, s := range g.Pref().Sessions.All() {
		gq, err := g.GroundSession(s)
		if err != nil {
			t.Fatal(err)
		}
		if len(gq.Union) == 0 {
			continue
		}
		groups = append(groups, BatchGroup{SM: s.Model, U: gq.Union})
	}
	cache := newMapPlanCache()
	eng := &Engine{DB: db, Method: MethodAuto, Plans: cache}
	first, err := eng.batchSolveGroups(context.Background(), MethodAuto, groups, unionKeys(groups))
	if err != nil {
		t.Fatal(err)
	}
	if cache.puts == 0 {
		t.Fatal("no plans cached on first batch")
	}
	putsAfterFirst := cache.puts
	second, err := eng.batchSolveGroups(context.Background(), MethodAuto, groups, unionKeys(groups))
	if err != nil {
		t.Fatal(err)
	}
	if cache.puts != putsAfterFirst {
		t.Fatalf("second batch compiled %d new plans, want 0", cache.puts-putsAfterFirst)
	}
	if cache.hits == 0 {
		t.Fatal("second batch did not hit the plan cache")
	}
	for gi := range first {
		if math.Float64bits(first[gi]) != math.Float64bits(second[gi]) {
			t.Fatalf("group %d: cached-plan solve differs: %v vs %v", gi, first[gi], second[gi])
		}
	}
}

// Full evaluations through the batched grouped path must equal per-session
// evaluation exactly (grouping off) for every exact method.
func TestEvalBatchedMatchesUngrouped(t *testing.T) {
	db := figure1DB(t)
	q := MustParse(`P(_, _; c1; c2), C(c1, _, F, _, _, _), C(c2, _, M, _, _, _)`)
	for _, method := range []Method{MethodAuto, MethodTwoLabel, MethodBipartite, MethodRelOrder} {
		batched := &Engine{DB: db, Method: method, Plans: newMapPlanCache()}
		res, err := evalBool(batched, q)
		if err != nil {
			t.Fatalf("%v: %v", method, err)
		}
		want := ungrouped(t, &Engine{DB: db, Method: method}, q)
		if math.Float64bits(res.Prob) != math.Float64bits(want.Prob) ||
			math.Float64bits(res.Count) != math.Float64bits(want.Count) {
			t.Fatalf("%v: batched eval (%v, %v) != ungrouped (%v, %v)",
				method, res.Prob, res.Count, want.Prob, want.Count)
		}
	}
}

// DoGrouped dedups groups across its requests; the answers are the bits of
// solving every session alone.
func TestDoGroupedDedupsAcrossRequests(t *testing.T) {
	db := figure1DB(t)
	cr := (&Request{Kind: KindBool, Query: `P(_, _; c1; c2), C(c1, _, F, _, _, _), C(c2, _, M, _, _, _)`}).MustCompile()
	crs := []*CompiledRequest{cr, cr}
	grouped, err := (&Engine{DB: db}).DoGrouped(context.Background(), crs)
	if err != nil {
		t.Fatal(err)
	}
	plain := ungrouped(t, &Engine{DB: db}, cr.Union.Disjuncts...)
	if grouped.Groups >= grouped.Instances || grouped.Solved != grouped.Groups {
		t.Errorf("grouped: %d groups, %d solved over %d instances", grouped.Groups, grouped.Solved, grouped.Instances)
	}
	if grouped.Responses[0].Solves != grouped.Groups || grouped.Responses[1].Solves != 0 {
		t.Errorf("grouped solves %d/%d, want %d/0", grouped.Responses[0].Solves, grouped.Responses[1].Solves, grouped.Groups)
	}
	if grouped.Instances != 2*plain.Solves {
		t.Errorf("grouped: %d instances over two requests of %d live sessions", grouped.Instances, plain.Solves)
	}
	for qi := range crs {
		if g, p := grouped.Responses[qi].Prob, plain.Prob; math.Float64bits(g) != math.Float64bits(p) {
			t.Errorf("request %d: grouped %v != ungrouped %v", qi, g, p)
		}
	}
}

// A DoGrouped failure is a RequestError naming the request it came from;
// kinds other than bool, count and countdist are refused.
func TestDoGroupedNamesFailingRequest(t *testing.T) {
	eng := &Engine{DB: figure1DB(t)}
	q := `P(_, _; c1; c2), C(c1, _, F, _, _, _), C(c2, _, M, _, _, _)`
	good := (&Request{Kind: KindBool, Query: q}).MustCompile()
	for _, bad := range []*Request{
		{Kind: KindCount, Query: `P(_, _; c1; c2), X(c1)`},
		{Kind: KindTopK, Query: q, K: 1},
	} {
		_, err := eng.DoGrouped(context.Background(), []*CompiledRequest{good, bad.MustCompile()})
		var re *RequestError
		if !errors.As(err, &re) || re.Index != 1 {
			t.Errorf("%v request: error %v, want a RequestError for request 1", bad.Kind, err)
		}
	}
}

// PlanAlgo routes only the exact compiled-plan methods.
func TestPlanAlgoRouting(t *testing.T) {
	db := figure1DB(t)
	q := MustParse(`P(_, _; c1; c2), C(c1, _, F, _, _, _), C(c2, _, M, _, _, _)`)
	g, err := NewGrounder(db, q)
	if err != nil {
		t.Fatal(err)
	}
	s := g.Pref().Sessions.At(0)
	gq, err := g.GroundSession(s)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := PlanAlgo(MethodAuto, gq.Union); !ok {
		t.Fatal("MethodAuto should plan")
	}
	if algo, ok := PlanAlgo(MethodTwoLabel, gq.Union); !ok || algo != solver.AlgoTwoLabel {
		t.Fatalf("MethodTwoLabel -> %v, %v", algo, ok)
	}
	for _, m := range []Method{MethodGeneral, MethodAdaptive, MethodMISLite, MethodMISAdaptive, MethodRejection} {
		if _, ok := PlanAlgo(m, gq.Union); ok {
			t.Fatalf("method %v should not plan", m)
		}
	}
}

// Satellite regression: an already-expired deadline must degrade an
// adaptive solve to the minimum sampling estimate with a confidence
// interval — never a zero-draw result or an error. (Engine.start clamps
// the remaining-time conversion at zero; without the clamp a negative
// remaining time would produce a negative budget and a nonsensical draw
// count.)
func TestAdaptiveExpiredDeadlineMinimumSamplingEstimate(t *testing.T) {
	db := figure1DB(t)
	q := MustParse(`P(_, _; c1; c2), C(c1, _, F, _, _, _), C(c2, _, M, _, _, _)`)
	g, err := NewGrounder(db, q)
	if err != nil {
		t.Fatal(err)
	}
	eng := &Engine{DB: db, Method: MethodAdaptive}
	deadlines := map[string]func() (context.Context, context.CancelFunc){
		"expired": func() (context.Context, context.CancelFunc) {
			ctx, cancel := context.WithDeadline(context.Background(), time.Now().Add(-time.Hour))
			return ctx, cancel
		},
		"near-zero": func() (context.Context, context.CancelFunc) {
			ctx, cancel := context.WithTimeout(context.Background(), time.Nanosecond)
			time.Sleep(50 * time.Microsecond)
			return ctx, cancel
		},
	}
	for name, mk := range deadlines {
		for _, s := range g.Pref().Sessions.All() {
			gq, err := g.GroundSession(s)
			if err != nil {
				t.Fatal(err)
			}
			if len(gq.Union) == 0 {
				continue
			}
			dctx, dcancel := mk()
			rn, ctx, cancel := eng.start(dctx, MethodAuto, 0, 0)
			p, rep, err := eng.solveRoute(ctx, 1, s.Model, gq.Union, eng.route(s.Model, gq.Union, rn.budget))
			cancel()
			dcancel()
			if err != nil {
				t.Fatalf("%s deadline, session %v: adaptive solve errored: %v", name, s.Key, err)
			}
			if !rep.Sampled {
				t.Fatalf("%s deadline, session %v: not sampled (%+v)", name, s.Key, rep)
			}
			if rep.Samples < adaptiveSampleFloor/2 {
				t.Fatalf("%s deadline, session %v: %d draws below the floor", name, s.Key, rep.Samples)
			}
			if rep.HalfWidth <= 0 {
				t.Fatalf("%s deadline, session %v: no confidence half-width (%+v)", name, s.Key, rep)
			}
			if p < 0 || p > 1 || math.IsNaN(p) {
				t.Fatalf("%s deadline, session %v: estimate %v out of range", name, s.Key, p)
			}
		}
	}
}

// TestBipartiteRefusesNonBipartite: on a union that is not bipartite the
// bipartite solver answers the constraint relaxation, the top-k upper
// bound, not the match probability. A forced bipartite method refuses such
// a union with ErrShape on every route — a solve, the plan route and the
// batched walk — as a forced two-label method refuses a union that is not
// two-label.
func TestBipartiteRefusesNonBipartite(t *testing.T) {
	db := figure1DB(t)
	// A three-node chain, Democrat > Republican > southern: its middle node
	// has an edge in and an edge out.
	q := MustParse(`P(_, _; a; b), P(_, _; b; c), C(a, D, _, _, _, _), C(b, R, _, _, _, _), C(c, _, _, _, _, S)`)
	req := &Request{Kind: KindCount, Queries: []*Query{q}}
	ctx := context.Background()
	s := db.Prefs["P"].Sessions.At(0)
	g, err := NewGrounder(db, q)
	if err != nil {
		t.Fatal(err)
	}
	gq, err := g.GroundSession(s)
	if err != nil {
		t.Fatal(err)
	}
	if len(gq.Union) == 0 || gq.Union.AllBipartite() {
		t.Fatalf("fixture union %v is not a non-bipartite chain", gq.Union)
	}
	if _, ok := PlanAlgo(MethodBipartite, gq.Union); ok {
		t.Error("PlanAlgo plans a forced bipartite solve of a chain")
	}
	eng := &Engine{DB: db, Method: MethodBipartite}
	if p, _, err := eng.solve(ctx, MethodBipartite, 0, s.Model, gq.Union); !errors.Is(err, solver.ErrShape) {
		t.Errorf("forced bipartite solve of a chain = %v, %v; want ErrShape", p, err)
	}
	for _, plans := range []PlanCache{nil, newMapPlanCache()} {
		eng := &Engine{DB: db, Method: MethodBipartite, Plans: plans}
		if resp, err := eng.Do(ctx, req); !errors.Is(err, solver.ErrShape) {
			t.Errorf("forced bipartite count (plan cache %v) = %+v, %v; want ErrShape", plans != nil, resp, err)
		}
	}
	// The exact methods still answer it, and agree.
	var want float64
	for i, m := range []Method{MethodAuto, MethodRelOrder} {
		resp, err := (&Engine{DB: db, Method: m}).Do(ctx, req)
		if err != nil {
			t.Fatalf("%v: %v", m, err)
		}
		if i == 0 {
			want = resp.Count
		} else if math.Abs(resp.Count-want) > 1e-12 {
			t.Errorf("%v count %v, auto %v", m, resp.Count, want)
		}
	}
}
