package solver

import (
	"fmt"
	"math/rand"
	"testing"

	"probpref/internal/label"
	"probpref/internal/pattern"
	"probpref/internal/rank"
	"probpref/internal/rim"
)

// Allocation-aware solver microbenchmarks. The fixtures mirror the shapes
// of dataset.BenchmarkD (which cannot be imported here — internal/dataset
// depends on this package); the per-op alloc counts are the interesting
// number: after the first iteration warms the arena pool,
// the DP inner loop must not allocate, so allocs/op stays flat at the
// small per-solve setup count no matter how many transitions a solve
// expands.

// benchTwoLabel builds an m-item Mallows model with z two-label patterns,
// `items` items per label (the Benchmark-D shape).
func benchTwoLabel(m, z, items int) (*rim.Model, *label.Labeling, pattern.Union) {
	rng := rand.New(rand.NewSource(1))
	perm := make(rank.Ranking, m)
	for i, v := range rng.Perm(m) {
		perm[i] = rank.Item(v)
	}
	ml := rim.MustMallows(perm, 0.5)
	lab := label.NewLabeling()
	var next label.Label
	attach := func() label.Set {
		l := next
		next++
		for _, it := range rng.Perm(m)[:items] {
			lab.Add(rank.Item(it), l)
		}
		return label.NewSet(l)
	}
	var u pattern.Union
	for p := 0; p < z; p++ {
		u = append(u, pattern.TwoLabel(attach(), attach()))
	}
	return ml.Model(), lab, u
}

// benchDAG builds an m-item Mallows model with z patterns of q nodes each
// sharing one random edge structure (the Benchmark-B/C shape).
func benchDAG(m, z, q, items int, bipartite bool) (*rim.Model, *label.Labeling, pattern.Union) {
	rng := rand.New(rand.NewSource(1))
	perm := make(rank.Ranking, m)
	for i, v := range rng.Perm(m) {
		perm[i] = rank.Item(v)
	}
	ml := rim.MustMallows(perm, 0.1)
	lab := label.NewLabeling()
	var next label.Label
	var edges [][2]int
	if bipartite {
		nl := 1 + q/2
		for a := 0; a < nl; a++ {
			for b := nl; b < q; b++ {
				if rng.Float64() < 0.6 {
					edges = append(edges, [2]int{a, b})
				}
			}
		}
		if len(edges) == 0 {
			edges = append(edges, [2]int{0, nl})
		}
	} else {
		for a := 0; a < q; a++ {
			for b := a + 1; b < q; b++ {
				if rng.Float64() < 0.5 {
					edges = append(edges, [2]int{a, b})
				}
			}
		}
		if len(edges) == 0 {
			edges = append(edges, [2]int{0, q - 1})
		}
	}
	var u pattern.Union
	for p := 0; p < z; p++ {
		nodes := make([]pattern.Node, q)
		for v := 0; v < q; v++ {
			l := next
			next++
			for _, it := range rng.Perm(m)[:items] {
				lab.Add(rank.Item(it), l)
			}
			nodes[v] = pattern.Node{Labels: label.NewSet(l)}
		}
		u = append(u, pattern.MustNew(nodes, edges))
	}
	return ml.Model(), lab, u
}

func benchSolve(b *testing.B, f func(*rim.Model, *label.Labeling, pattern.Union, Options) (float64, error),
	mdl *rim.Model, lab *label.Labeling, u pattern.Union) {
	b.Helper()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := f(mdl, lab, u, Options{}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTwoLabel(b *testing.B) {
	mdl, lab, u := benchTwoLabel(20, 2, 3)
	benchSolve(b, TwoLabel, mdl, lab, u)
}

func BenchmarkBipartite(b *testing.B) {
	mdl, lab, u := benchDAG(10, 3, 3, 3, true)
	benchSolve(b, Bipartite, mdl, lab, u)
}

func BenchmarkBipartiteBasic(b *testing.B) {
	mdl, lab, u := benchDAG(10, 2, 3, 3, true)
	benchSolve(b, BipartiteBasic, mdl, lab, u)
}

func BenchmarkRelOrder(b *testing.B) {
	mdl, lab, u := benchDAG(10, 1, 2, 3, false)
	benchSolve(b, RelOrder, mdl, lab, u)
}

func BenchmarkGeneral(b *testing.B) {
	mdl, lab, u := benchDAG(8, 2, 3, 2, false)
	benchSolve(b, General, mdl, lab, u)
}

// benchSelective builds the hard-CQ shape by hand: m = 20, z = 2, and four
// selective label sets carried by 1, 3, 5 and 2 of the items, so each
// pattern has a side exhausted well before the last insertion step (items
// are numbered by insertion step: sigma is the identity).
func benchSelective() (*rim.Model, *label.Labeling, pattern.Union) {
	const m = 20
	sigma := make(rank.Ranking, m)
	for i := range sigma {
		sigma[i] = rank.Item(i)
	}
	lab := label.NewLabeling()
	for l, items := range [][]int{{4}, {1, 9, 16}, {0, 3, 7, 11, 13}, {6, 18}} {
		for _, it := range items {
			lab.Add(rank.Item(it), label.Label(l))
		}
	}
	u := pattern.Union{
		pattern.TwoLabel(label.NewSet(0), label.NewSet(1)),
		pattern.TwoLabel(label.NewSet(2), label.NewSet(3)),
	}
	return rim.MustMallows(sigma, 0.5).Model(), lab, u
}

// benchSelectiveSolve also reports the solve's transition count, the number
// tracker retirement moves (and one that repeats exactly run to run).
func benchSelectiveSolve(b *testing.B, f solveFn) {
	mdl, lab, u := benchSelective()
	var st Stats
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		st = Stats{}
		if _, err := f(mdl, lab, u, Options{Stats: &st}); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(st.Transitions), "transitions/op")
}

func BenchmarkTwoLabelSelective(b *testing.B)  { benchSelectiveSolve(b, TwoLabel) }
func BenchmarkBipartiteSelective(b *testing.B) { benchSelectiveSolve(b, Bipartite) }

// BenchmarkPlanCost prices the selective union's compiled plan under each of
// the three solvers: what the adaptive planner pays per candidate on top of
// CompilePlan. Must report 0 allocs/op, and the predicted transitions beside
// the *Selective pair's measured ones.
func BenchmarkPlanCost(b *testing.B) {
	mdl, lab, u := benchSelective()
	for _, algo := range []Algo{AlgoTwoLabel, AlgoBipartite, AlgoRelOrder} {
		b.Run(algo.String(), func(b *testing.B) {
			pl, err := CompilePlan(algo, mdl.Sigma(), lab, u, Options{})
			if err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			var transitions float64
			for i := 0; i < b.N; i++ {
				transitions, _ = pl.Cost()
			}
			b.ReportMetric(transitions, "transitions/op")
		})
	}
}

// BenchmarkSolveSessions walks one compiled plan for 1, 2 and 16 sessions —
// Mallows models over the plan's reference ranking, one dispersion per lane
// — and reports the time per lane beside the time per walk. One lane is
// Plan.Solve's walk; serving traffic measures 2.0-2.2 lanes per walk.
func BenchmarkSolveSessions(b *testing.B) {
	twoM, twoL, twoU := benchTwoLabel(20, 2, 3)
	bipM, bipL, bipU := benchDAG(10, 3, 3, 3, true)
	relM, relL, relU := benchDAG(10, 1, 2, 3, false)
	for _, f := range []struct {
		algo Algo
		mdl  *rim.Model
		lab  *label.Labeling
		u    pattern.Union
	}{
		{AlgoTwoLabel, twoM, twoL, twoU},
		{AlgoBipartite, bipM, bipL, bipU},
		{AlgoRelOrder, relM, relL, relU},
	} {
		pl, err := CompilePlan(f.algo, f.mdl.Sigma(), f.lab, f.u, Options{})
		if err != nil {
			b.Fatal(err)
		}
		for _, lanes := range []int{1, 2, 16} {
			b.Run(fmt.Sprintf("%s/lanes=%d", f.algo, lanes), func(b *testing.B) {
				models := make([]*rim.Model, lanes)
				for l := range models {
					models[l] = rim.MustMallows(f.mdl.Sigma(), 0.1+0.05*float64(l)).Model()
				}
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if _, err := SolveSessions(pl, models, Options{}); err != nil {
						b.Fatal(err)
					}
				}
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*lanes), "ns/lane")
			})
		}
	}
}

// Layer add/merge microbenchmarks: the DP inner-loop primitives at one
// lane. Both must report 0 allocs/op — every buffer is recycled across
// resets.

func BenchmarkLayerAddPacked(b *testing.B) {
	const states = 4096
	var l layerTable
	var w [4]int16
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		l.reset(4, states, 1)
		for s := 0; s < states; s++ {
			w[0], w[1] = int16(s), int16(s>>4)
			w[2], w[3] = int16(s&15), -1
			l.vals[l.slotWords(w[:])] += 1.0 / states
		}
		if l.len() == 0 {
			b.Fatal("empty layer")
		}
	}
}

func BenchmarkLayerAddWide(b *testing.B) {
	const states = 4096
	var l layerTable
	var w [9]int16
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		l.reset(9, states, 1)
		for s := 0; s < states; s++ {
			for k := range w {
				w[k] = int16(s >> uint(k&3))
			}
			l.vals[l.slotWords(w[:])] += 1.0 / states
		}
		if l.len() == 0 {
			b.Fatal("empty layer")
		}
	}
}

func BenchmarkLayerMerge(b *testing.B) {
	const states = 4096
	var src, dst layerTable
	src.reset(4, states, 1)
	var w [4]int16
	for s := 0; s < states; s++ {
		w[0], w[1], w[2] = int16(s), int16(s>>4), int16(s&7)
		src.vals[src.slotWords(w[:])] += 1.0 / states
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		dst.reset(4, states, 1)
		dst.mergeFrom(&src)
		if dst.len() != src.len() {
			b.Fatalf("merge lost states: %d != %d", dst.len(), src.len())
		}
	}
}

// The layer primitives must be allocation-free in steady state: after a
// warm-up pass sizes the backing arrays, add and merge allocate nothing.
func TestLayerOpsAllocFree(t *testing.T) {
	const states = 2048
	var l, src, dst layerTable
	var w [4]int16
	fill := func(l *layerTable) {
		l.reset(4, states, 1)
		for s := 0; s < states; s++ {
			w[0], w[1], w[2] = int16(s), int16(s>>3), int16(s&31)
			l.vals[l.slotWords(w[:])] += 0.5
		}
	}
	fill(&l) // warm up
	if n := testing.AllocsPerRun(10, func() { fill(&l) }); n != 0 {
		t.Fatalf("layer add allocates %v allocs/op in steady state, want 0", n)
	}
	fill(&src)
	dst.reset(4, states, 1)
	dst.mergeFrom(&src) // warm up
	if n := testing.AllocsPerRun(10, func() {
		dst.reset(4, states, 1)
		dst.mergeFrom(&src)
	}); n != 0 {
		t.Fatalf("layer merge allocates %v allocs/op in steady state, want 0", n)
	}
}

// Steady-state solves must not allocate per transition: growing the
// instance by orders of magnitude in expansion work must not grow
// allocations with it (the per-solve setup is the only allocating part).
func TestSolveAllocsIndependentOfWork(t *testing.T) {
	smallM, smallL, smallU := benchTwoLabel(10, 2, 3)
	bigM, bigL, bigU := benchTwoLabel(30, 2, 3)
	solve := func(mdl *rim.Model, lab *label.Labeling, u pattern.Union) func() {
		return func() {
			if _, err := TwoLabel(mdl, lab, u, Options{}); err != nil {
				t.Fatal(err)
			}
		}
	}
	solve(smallM, smallL, smallU)() // warm the arena pool
	solve(bigM, bigL, bigU)()
	small := testing.AllocsPerRun(5, solve(smallM, smallL, smallU))
	big := testing.AllocsPerRun(5, solve(bigM, bigL, bigU))
	// The big instance does ~100x (hundreds of thousands) more transitions;
	// if the inner loop allocated per transition, big would exceed small by
	// orders of magnitude. A slack of 64 absorbs GC timing flushing the
	// arena pool mid-measurement while still failing on any per-transition
	// allocation.
	if big > small+64 {
		t.Fatalf("allocations scale with solve size: small=%v big=%v", small, big)
	}
}
