package solver

import (
	"math"
	"math/rand"
	"runtime"
	"sync"
	"testing"

	"probpref/internal/label"
	"probpref/internal/pattern"
	"probpref/internal/rim"
)

// Determinism suite for the packed-state DP core: every solver must return
// bit-for-bit identical float64s across repeated runs, across sequential
// vs parallel layer expansion, and across worker counts / GOMAXPROCS
// values. The unified query API's equivalence suite and the cross-query
// solve cache rely on this.

// forceParallel lowers the expansion thresholds so even tiny layers take
// the chunked parallel path with the given worker count, returning a
// restore function. Tests using it must not run in parallel with each
// other (they mutate package globals); none of them call t.Parallel.
func forceParallel(workers int) func() {
	savedT, savedC, savedW := parallelThreshold, expandChunk, testWorkers
	parallelThreshold, expandChunk, testWorkers = 1, 3, workers
	return func() {
		parallelThreshold, expandChunk, testWorkers = savedT, savedC, savedW
	}
}

// solverSuite returns named solver invocations over one random instance
// set per supported family.
type detCase struct {
	name  string
	solve func() (float64, error)
}

func detCases(t *testing.T, seed int64) []detCase {
	rng := rand.New(rand.NewSource(seed))
	var cases []detCase
	add := func(name string, mdl *rim.Model, lab *label.Labeling, u pattern.Union,
		f func(*rim.Model, *label.Labeling, pattern.Union, Options) (float64, error)) {
		cases = append(cases, detCase{name, func() (float64, error) {
			return f(mdl, lab, u, Options{MaxInvolved: 16})
		}})
	}
	for trial := 0; trial < 6; trial++ {
		m := 6 + rng.Intn(4)
		mdl := randModel(rng, m)
		lab := randWorld(rng, m, 4)
		two := randTwoLabelUnion(rng, 2, 4)
		bip := randBipartiteUnion(rng, 2, 4)
		dag := randDAGUnion(rng, 1, 3)
		add("twolabel", mdl, lab, two, TwoLabel)
		add("bipartite", mdl, lab, bip, Bipartite)
		add("bipartite-basic", mdl, lab, bip, BipartiteBasic)
		add("relorder", mdl, lab, dag, RelOrder)
		add("general", mdl, lab, dag, General)
		// Walks on which tracker retirement fires mid-walk.
		rlab, rtwo, rbip := retiringWorld(mdl.Sigma())
		add("twolabel-retiring", mdl, rlab, rtwo, TwoLabel)
		add("bipartite-retiring", mdl, rlab, rbip, Bipartite)
	}
	return cases
}

// Bit-for-bit reproducibility across runs of the same solver.
func TestSolversBitwiseDeterministicAcrossRuns(t *testing.T) {
	for _, c := range detCases(t, 501) {
		a, err := c.solve()
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		for run := 0; run < 3; run++ {
			b, err := c.solve()
			if err != nil {
				t.Fatalf("%s: %v", c.name, err)
			}
			if math.Float64bits(a) != math.Float64bits(b) {
				t.Fatalf("%s: run %d differs: %x vs %x (%v vs %v)",
					c.name, run, math.Float64bits(a), math.Float64bits(b), a, b)
			}
		}
	}
}

// The chunked fold must produce identical bits at every worker count —
// the workers only decide who computes which chunk, never how the numbers
// combine — and must agree with the direct sequential fold to within
// float-association noise.
func TestChunkedExpansionWorkerCountInvariant(t *testing.T) {
	cases := detCases(t, 502)
	seq := make([]float64, len(cases))
	for i, c := range cases {
		p, err := c.solve()
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		seq[i] = p
	}
	var oneWorker []uint64
	for _, workers := range []int{1, 2, 3, 4, 8} {
		restore := forceParallel(workers)
		for i, c := range cases {
			p, err := c.solve()
			if err != nil {
				restore()
				t.Fatalf("%s (workers=%d): %v", c.name, workers, err)
			}
			if workers == 1 {
				oneWorker = append(oneWorker, math.Float64bits(p))
			} else if got := math.Float64bits(p); got != oneWorker[i] {
				restore()
				t.Fatalf("%s: %d workers differ from 1 worker: %x vs %x",
					c.name, workers, got, oneWorker[i])
			}
			if math.Abs(p-seq[i]) > 1e-12 {
				restore()
				t.Fatalf("%s: chunked fold drifts from sequential: %v vs %v", c.name, p, seq[i])
			}
		}
		restore()
	}
}

// Results must not depend on GOMAXPROCS: the chunk schedule is fixed, so
// raising the real worker pool must reproduce the single-proc bits.
func TestGOMAXPROCSInvariance(t *testing.T) {
	savedT, savedC := parallelThreshold, expandChunk
	parallelThreshold, expandChunk = 1, 3
	defer func() { parallelThreshold, expandChunk = savedT, savedC }()
	saved := runtime.GOMAXPROCS(1)
	defer runtime.GOMAXPROCS(saved)

	cases := detCases(t, 503)
	single := make([]uint64, len(cases))
	for i, c := range cases {
		p, err := c.solve()
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		single[i] = math.Float64bits(p)
	}
	for _, procs := range []int{2, 4} {
		runtime.GOMAXPROCS(procs)
		for i, c := range cases {
			p, err := c.solve()
			if err != nil {
				t.Fatalf("%s (GOMAXPROCS=%d): %v", c.name, procs, err)
			}
			if got := math.Float64bits(p); got != single[i] {
				t.Fatalf("%s: GOMAXPROCS=%d differs from 1: %x vs %x",
					c.name, procs, got, single[i])
			}
		}
	}
}

// RelOrder's generic-matcher fallback (patterns too wide for the bitmask
// matcher, reachable through General's conjunctions) must agree with brute
// force and stay deterministic, sequentially and chunked.
func TestRelOrderWideMatcherFallback(t *testing.T) {
	rng := rand.New(rand.NewSource(506))
	m := 5
	mdl := randModel(rng, m)
	lab := randWorld(rng, m, 3)
	// 17 nodes exceeds the bitmask matcher's 16-node bound; non-adjacent
	// nodes may share positions, so the pattern is satisfiable on 5 items.
	nodes := make([]pattern.Node, 17)
	for i := range nodes {
		nodes[i].Labels = label.NewSet(label.Label(i % 3))
	}
	u := pattern.Union{pattern.MustNew(nodes, [][2]int{{0, 5}, {5, 11}, {3, 16}})}
	want := Brute(mdl, lab, u)
	got, err := RelOrder(mdl, lab, u, Options{MaxInvolved: 16})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(got-want) > 1e-9 {
		t.Fatalf("fallback matcher: RelOrder=%v brute=%v", got, want)
	}
	restore := forceParallel(4)
	defer restore()
	chunked, err := RelOrder(mdl, lab, u, Options{MaxInvolved: 16})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(chunked-want) > 1e-9 {
		t.Fatalf("fallback matcher (chunked): RelOrder=%v brute=%v", chunked, want)
	}
	again, err := RelOrder(mdl, lab, u, Options{MaxInvolved: 16})
	if err != nil {
		t.Fatal(err)
	}
	if math.Float64bits(chunked) != math.Float64bits(again) {
		t.Fatalf("fallback matcher not deterministic: %x vs %x",
			math.Float64bits(chunked), math.Float64bits(again))
	}
}

// Options.Stats under parallel expansion: per-chunk counters reduce on the
// solving goroutine (run with -race), and the reduced totals match the
// sequential counts exactly.
func TestStatsDeterministicUnderParallelExpansion(t *testing.T) {
	rng := rand.New(rand.NewSource(504))
	m := 8
	mdl := randModel(rng, m)
	lab := randWorld(rng, m, 4)
	u := randTwoLabelUnion(rng, 2, 4)

	var seqStats Stats
	if _, err := TwoLabel(mdl, lab, u, Options{Stats: &seqStats}); err != nil {
		t.Fatal(err)
	}
	if seqStats.Transitions == 0 || seqStats.PeakStates == 0 {
		t.Fatalf("sequential stats not populated: %+v", seqStats)
	}
	restore := forceParallel(4)
	defer restore()
	var parStats Stats
	if _, err := TwoLabel(mdl, lab, u, Options{Stats: &parStats}); err != nil {
		t.Fatal(err)
	}
	if parStats != seqStats {
		t.Fatalf("parallel stats differ from sequential: %+v vs %+v", parStats, seqStats)
	}
}

// The shared arena pool must be safe under concurrent solves (run with
// -race): many goroutines solving simultaneously, each with forced
// parallel expansion, must all produce the sequential bits.
func TestArenaPoolConcurrentSolvesRace(t *testing.T) {
	cases := detCases(t, 505)
	restoreBase := forceParallel(1)
	want := make([]uint64, len(cases))
	for i, c := range cases {
		p, err := c.solve()
		if err != nil {
			restoreBase()
			t.Fatalf("%s: %v", c.name, err)
		}
		want[i] = math.Float64bits(p)
	}
	restoreBase()
	restore := forceParallel(3)
	defer restore()
	var wg sync.WaitGroup
	errs := make(chan error, 64)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i, c := range cases {
				p, err := c.solve()
				if err != nil {
					errs <- err
					return
				}
				if math.Float64bits(p) != want[i] {
					t.Errorf("%s: concurrent solve differs", c.name)
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}
