package dataset

import (
	"context"
	"math"
	"math/rand"
	"testing"

	"probpref/internal/ppd"
	"probpref/internal/rank"
	"probpref/internal/solver"
)

func TestBenchmarkAShape(t *testing.T) {
	insts := BenchmarkA(1)
	if len(insts) != 33 {
		t.Fatalf("got %d instances, want 33", len(insts))
	}
	for _, in := range insts {
		if in.Model.M() != 15 || in.Model.Phi != 0.1 {
			t.Fatalf("model m=%d phi=%v", in.Model.M(), in.Model.Phi)
		}
		if len(in.Union) != 3 {
			t.Fatalf("union size %d", len(in.Union))
		}
		for _, g := range in.Union {
			if !g.IsBipartite() || g.NumNodes() != 4 || len(g.Edges()) != 3 {
				t.Fatalf("bad pattern %v", g)
			}
		}
		// B and D labels shared across patterns: nodes 1 and 3.
		b0 := in.Union[0].Node(1).Labels
		d0 := in.Union[0].Node(3).Labels
		for _, g := range in.Union[1:] {
			if !g.Node(1).Labels.Equal(b0) || !g.Node(3).Labels.Equal(d0) {
				t.Fatal("B/D labels not shared across union")
			}
		}
	}
	// Determinism and seed sensitivity: pattern keys only encode label ids,
	// so compare the items each label selects.
	itemsOfLabel0 := func(ins []Instance) string {
		s := ""
		for _, it := range ins[7].Lab.ItemsWithLabel(0, 15) {
			s += rank.Ranking{it}.Key() + ";"
		}
		return s
	}
	if itemsOfLabel0(BenchmarkA(1)) != itemsOfLabel0(insts) {
		t.Fatal("generator not deterministic")
	}
	if itemsOfLabel0(BenchmarkA(2)) == itemsOfLabel0(insts) {
		t.Fatal("different seeds should differ")
	}
}

// A good share of Benchmark-A unions must be low-probability events (the
// generator biases A/B to low ranks and C/D to high ranks; the paper uses
// these rare events to test approximate-solver accuracy).
func TestBenchmarkALowProbability(t *testing.T) {
	if testing.Short() {
		t.Skip("exact inference over m=30 models takes ~2s; skipped with -short")
	}
	insts := BenchmarkA(3)
	low := 0
	for _, in := range insts[:10] {
		p, err := solver.Bipartite(in.Model.Model(), in.Lab, in.Union, solver.Options{})
		if err != nil {
			t.Fatal(err)
		}
		if p < 0.05 {
			low++
		}
	}
	if low < 3 {
		t.Fatalf("only %d/10 unions are low-probability", low)
	}
}

func TestBenchmarkBShape(t *testing.T) {
	insts := BenchmarkB(1)
	if len(insts) != 1080 {
		t.Fatalf("got %d instances, want 1080", len(insts))
	}
	seenM := map[int]bool{}
	for _, in := range insts {
		seenM[in.Params["m"]] = true
		if in.Model.Phi != 0.1 {
			t.Fatalf("phi = %v", in.Model.Phi)
		}
		if len(in.Union) != in.Params["z"] {
			t.Fatalf("union size %d != z %d", len(in.Union), in.Params["z"])
		}
		e0 := in.Union[0].Edges()
		for _, g := range in.Union[1:] {
			if len(g.Edges()) != len(e0) {
				t.Fatal("edge structure not shared")
			}
		}
	}
	for _, m := range []int{20, 50, 100, 200} {
		if !seenM[m] {
			t.Fatalf("missing m=%d", m)
		}
	}
}

func TestBenchmarkCShape(t *testing.T) {
	insts := BenchmarkC(1)
	if len(insts) != 1080 {
		t.Fatalf("got %d instances, want 1080", len(insts))
	}
	for _, in := range insts {
		for _, g := range in.Union {
			if !g.IsBipartite() {
				t.Fatalf("non-bipartite pattern in Benchmark-C: %v", g)
			}
		}
	}
	// The Figure 10b slice fixes z=q=items=3 and varies m over 4 values.
	slice := BenchmarkCSlice(1, 3, 3, 3)
	if len(slice) != 40 {
		t.Fatalf("slice has %d instances, want 40", len(slice))
	}
	for _, in := range slice {
		if in.Params["z"] != 3 || in.Params["q"] != 3 || in.Params["items"] != 3 {
			t.Fatalf("bad slice params %v", in.Params)
		}
	}
}

func TestBenchmarkDShape(t *testing.T) {
	insts := BenchmarkD(1)
	if len(insts) != 600 {
		t.Fatalf("got %d instances, want 600", len(insts))
	}
	for _, in := range insts {
		if !in.Union.AllTwoLabel() {
			t.Fatal("non two-label pattern in Benchmark-D")
		}
		if in.Model.Phi != 0.5 {
			t.Fatalf("phi = %v", in.Model.Phi)
		}
	}
}

func TestPolls(t *testing.T) {
	db, err := Polls(PollsConfig{Candidates: 16, Voters: 200, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	if db.M() != 16 {
		t.Fatalf("M = %d", db.M())
	}
	if got := db.Prefs["P"].Sessions.Len(); got != 200 {
		t.Fatalf("sessions = %d", got)
	}
	// The Figure 4 query must be evaluable and grounded per session.
	q := ppd.MustParse(`P(_, _; l; r), C(l, p, M, _, _, _), C(r, p, F, _, _, _)`)
	g, err := ppd.NewGrounder(db, q)
	if err != nil {
		t.Fatal(err)
	}
	gq, err := g.GroundSession(db.Prefs["P"].Sessions.At(0))
	if err != nil {
		t.Fatal(err)
	}
	if len(gq.Union) != 2 || !gq.Union.AllTwoLabel() {
		t.Fatalf("grounded union: %d members, twoLabel=%v", len(gq.Union), gq.Union.AllTwoLabel())
	}
	// Dates restricted to the two poll dates.
	for _, s := range db.Prefs["P"].Sessions.All() {
		if s.Key[1] != "5/5" && s.Key[1] != "6/5" {
			t.Fatalf("bad date %q", s.Key[1])
		}
	}
}

func TestMovieLens(t *testing.T) {
	db, err := MovieLens(MovieLensConfig{Movies: 120, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := db.ItemID("223"); !ok {
		t.Fatal("movie 223 missing")
	}
	if _, ok := db.ItemID("111"); !ok {
		t.Fatal("movie 111 missing")
	}
	if db.Prefs["P"].Sessions.Len() != 16 {
		t.Fatalf("sessions = %d", db.Prefs["P"].Sessions.Len())
	}
	q := ppd.MustParse(MovieLensQueryText())
	g, err := ppd.NewGrounder(db, q)
	if err != nil {
		t.Fatal(err)
	}
	gq, err := g.GroundSession(db.Prefs["P"].Sessions.At(0))
	if err != nil {
		t.Fatal(err)
	}
	if len(gq.Union) == 0 {
		t.Fatal("Figure 14 query grounded to an empty union")
	}
	// Pattern count grows with the catalog (genre diversity).
	big, err := MovieLens(MovieLensConfig{Movies: 200, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	g2, err := ppd.NewGrounder(big, ppd.MustParse(MovieLensQueryText()))
	if err != nil {
		t.Fatal(err)
	}
	gq2, err := g2.GroundSession(big.Prefs["P"].Sessions.At(0))
	if err != nil {
		t.Fatal(err)
	}
	if len(gq2.Union) <= len(gq.Union) {
		t.Fatalf("pattern count did not grow: %d vs %d", len(gq2.Union), len(gq.Union))
	}
}

func TestCrowdRank(t *testing.T) {
	db, err := CrowdRank(CrowdRankConfig{Workers: 50, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if db.M() != 20 {
		t.Fatalf("M = %d", db.M())
	}
	q := ppd.MustParse(CrowdRankQuery)
	g, err := ppd.NewGrounder(db, q)
	if err != nil {
		t.Fatal(err)
	}
	distinct := map[string]bool{}
	for _, s := range db.Prefs["P"].Sessions.All() {
		gq, err := g.GroundSession(s)
		if err != nil {
			t.Fatal(err)
		}
		if len(gq.Union) == 0 {
			t.Fatalf("session %v grounded empty", s.Key)
		}
		// The involved-item set must stay small by design.
		items := patternInvolved(db, gq)
		if items > 6 {
			t.Fatalf("involved items = %d for %v", items, s.Key)
		}
		distinct[s.Model.Rehash()+gq.Union.Key()] = true
	}
	// Groups: at most models x demographics.
	if len(distinct) > 7*4 {
		t.Fatalf("distinct groups = %d", len(distinct))
	}
}

func patternInvolved(db *ppd.DB, gq *ppd.GroundedQuery) int {
	items := make(map[rank.Item]bool)
	for _, g := range gq.Union {
		for v := 0; v < g.NumNodes(); v++ {
			for _, it := range db.Labeling().ItemsWith(g.Node(v).Labels, db.M()) {
				items[it] = true
			}
		}
	}
	return len(items)
}

// The CrowdRank query must be exactly solvable per group via RelOrder in
// reasonable time.
func TestCrowdRankSolvable(t *testing.T) {
	db, err := CrowdRank(CrowdRankConfig{Workers: 20, Movies: 12, Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	eng := &ppd.Engine{DB: db, Method: ppd.MethodRelOrder}
	res, err := eng.Do(context.Background(), &ppd.Request{Kind: ppd.KindBool, Query: CrowdRankQuery})
	if err != nil {
		t.Fatal(err)
	}
	if res.Count <= 0 || math.IsNaN(res.Count) {
		t.Fatalf("count = %v", res.Count)
	}
	if res.Solves >= len(res.PerSession) {
		t.Fatalf("grouping ineffective: %d solves for %d sessions", res.Solves, len(res.PerSession))
	}
}

func TestSampleWeightedItems(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	items := sampleWeightedItems(rng, 10, 4, func(i int) float64 { return float64(i + 1) })
	if len(items) != 4 {
		t.Fatalf("got %d items", len(items))
	}
	seen := map[rank.Item]bool{}
	for _, it := range items {
		if seen[it] {
			t.Fatal("duplicate item")
		}
		seen[it] = true
	}
	// Requesting more items than exist returns all of them.
	all := sampleUniformItems(rng, 3, 7)
	if len(all) != 3 {
		t.Fatalf("got %d items, want 3", len(all))
	}
}
