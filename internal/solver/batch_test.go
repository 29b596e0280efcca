package solver

import (
	"context"
	"math"
	"math/rand"
	"runtime"
	"sync"
	"testing"
	"time"

	"probpref/internal/label"
	"probpref/internal/pattern"
	"probpref/internal/rank"
	"probpref/internal/rim"
)

// Lane-count independence suite for the compile-once / solve-many layer:
// every solve is the one layer walk per solver, and lane l of an S-lane walk
// (SolveSessions) must answer the bits of the one-lane walk of session l
// (Plan.Solve, the single-shot solvers) for every DP solver, across worker
// counts and GOMAXPROCS; TestSolverBitsPinned holds both to recorded bits.
// The executors rely on the layer walk being structural (independent of the
// sessions' Pi values), so the session models here deliberately include
// exact-zero insertion probabilities — the lanes where zero-mass emissions
// happen must still see the very same walk.

// randSessionModels builds n RIM models sharing sigma, differing only in
// Pi. Roughly a quarter of the insertion probabilities are exactly zero.
func randSessionModels(rng *rand.Rand, sigma rank.Ranking, n int) []*rim.Model {
	models := make([]*rim.Model, n)
	m := len(sigma)
	for s := range models {
		pi := make([][]float64, m)
		for i := 0; i < m; i++ {
			row := make([]float64, i+1)
			sum := 0.0
			for j := range row {
				if rng.Float64() < 0.25 {
					row[j] = 0
				} else {
					row[j] = rng.Float64() + 0.05
				}
				sum += row[j]
			}
			if sum == 0 {
				row[rng.Intn(len(row))] = 1
				sum = 1
			}
			for j := range row {
				row[j] /= sum
			}
			pi[i] = row
		}
		models[s] = rim.MustNew(sigma, pi)
	}
	return models
}

type batchCase struct {
	name   string
	algo   Algo
	lab    *label.Labeling
	u      pattern.Union
	models []*rim.Model
	single func(*rim.Model, *label.Labeling, pattern.Union, Options) (float64, error)
}

// algoBipartiteBasic marks the BipartiteBasic ablation's case: it compiles
// to no Plan, so its lanes walk through runBipartiteBasic directly.
const algoBipartiteBasic Algo = -1

// solveLanes answers c's sessions as the lanes of one layer walk: through
// the case's compiled Plan, or runBipartiteBasic for the ablation.
func (c batchCase) solveLanes(opts Options) ([]float64, error) {
	sigma := c.models[0].Sigma()
	if c.algo != algoBipartiteBasic {
		p, err := CompilePlan(c.algo, sigma, c.lab, c.u, opts)
		if err != nil {
			return nil, err
		}
		return SolveSessions(p, c.models, opts)
	}
	var pl basicPlan
	if err := compileBipartiteBasic(&pl, planAlloc{}, sigma, c.lab, c.u); err != nil {
		return nil, err
	}
	out := make([]float64, len(c.models))
	if pl.constOne {
		for l := range out {
			out[l] = 1
		}
		return out, nil
	}
	ar := getArena()
	defer putArena(ar)
	if err := runBipartiteBasic(ar, &pl, c.models, opts, out); err != nil {
		return nil, err
	}
	return out, nil
}

func batchCases(t *testing.T, seed int64, lanes int) []batchCase {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	var cases []batchCase
	for trial := 0; trial < 3; trial++ {
		m := 6 + rng.Intn(4)
		sigma := make(rank.Ranking, m)
		for i, v := range rng.Perm(m) {
			sigma[i] = rank.Item(v)
		}
		models := randSessionModels(rng, sigma, lanes)
		lab := randWorld(rng, m, 4)
		two := randTwoLabelUnion(rng, 2, 4)
		bip := randBipartiteUnion(rng, 2, 4)
		dag := randDAGUnion(rng, 1, 3)
		// Plans on which tracker retirement fires mid-walk (see
		// TestRetiringWorldRetiresMidWalk): the lanes must see the very same
		// projection at the very same point as the single-session walk.
		rlab, rtwo, rbip := retiringWorld(sigma)
		cases = append(cases,
			batchCase{"twolabel", AlgoTwoLabel, lab, two, models, TwoLabel},
			batchCase{"bipartite", AlgoBipartite, lab, bip, models, Bipartite},
			batchCase{"bipartite-basic", algoBipartiteBasic, lab, bip, models, BipartiteBasic},
			batchCase{"relorder", AlgoRelOrder, lab, dag, models, RelOrder},
			batchCase{"twolabel-retiring", AlgoTwoLabel, rlab, rtwo, models, TwoLabel},
			batchCase{"bipartite-retiring", AlgoBipartite, rlab, rbip, models, Bipartite},
		)
	}
	return cases
}

// Plan.Solve must be bit-identical to the public compile-and-run solvers:
// compiling onto the heap or into the arena moves no float operation.
func TestPlanSolveMatchesPublicSolvers(t *testing.T) {
	opts := Options{MaxInvolved: 16}
	for _, c := range batchCases(t, 601, 4) {
		if c.algo == algoBipartiteBasic {
			continue // compiles to no Plan
		}
		p, err := CompilePlan(c.algo, c.models[0].Sigma(), c.lab, c.u, opts)
		if err != nil {
			t.Fatalf("%s: compile: %v", c.name, err)
		}
		for li, mdl := range c.models {
			want, err := c.single(mdl, c.lab, c.u, opts)
			if err != nil {
				t.Fatalf("%s: single: %v", c.name, err)
			}
			got, err := p.Solve(mdl, opts)
			if err != nil {
				t.Fatalf("%s: plan solve: %v", c.name, err)
			}
			if math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("%s lane %d: plan solve %v differs from public solver %v",
					c.name, li, got, want)
			}
		}
	}
}

// Lane l of an S-lane walk must reproduce the one-lane walk of session l
// bit-for-bit under the same expansion configuration — the chunk schedule is
// a function of the layer's state count, which does not depend on the lane
// count, so sequential S-lane solves match sequential one-lane solves and
// chunked ones match chunked ones at every worker count. (Chunked and
// sequential folds associate floats differently, so bits are only promised
// within a configuration; the determinism suite bounds the drift across
// configurations.)
func TestSolveSessionsMatchesSingleSolvesBitwise(t *testing.T) {
	opts := Options{MaxInvolved: 16}
	cases := batchCases(t, 602, 7)
	check := func(label string) {
		for _, c := range cases {
			out, err := c.solveLanes(opts)
			if err != nil {
				t.Fatalf("%s (%s): %v", c.name, label, err)
			}
			for li, mdl := range c.models {
				want, err := c.single(mdl, c.lab, c.u, opts)
				if err != nil {
					t.Fatalf("%s (%s): single: %v", c.name, label, err)
				}
				if math.Float64bits(out[li]) != math.Float64bits(want) {
					t.Fatalf("%s (%s) lane %d: batched %v differs from single %v",
						c.name, label, li, out[li], want)
				}
			}
		}
	}
	check("sequential")
	for _, workers := range []int{1, 2, 3, 4, 8} {
		func() {
			defer forceParallel(workers)()
			check("workers=" + string(rune('0'+workers)))
		}()
	}
}

// SolveSessions results must not depend on GOMAXPROCS.
func TestSolveSessionsGOMAXPROCSInvariance(t *testing.T) {
	opts := Options{MaxInvolved: 16}
	cases := batchCases(t, 603, 5)
	savedT, savedC := parallelThreshold, expandChunk
	parallelThreshold, expandChunk = 1, 3
	defer func() { parallelThreshold, expandChunk = savedT, savedC }()
	saved := runtime.GOMAXPROCS(1)
	defer runtime.GOMAXPROCS(saved)

	base := make([][]uint64, len(cases))
	for i, c := range cases {
		out, err := c.solveLanes(opts)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		bits := make([]uint64, len(out))
		for li, v := range out {
			bits[li] = math.Float64bits(v)
		}
		base[i] = bits
	}
	for _, procs := range []int{2, 4} {
		runtime.GOMAXPROCS(procs)
		for i, c := range cases {
			out, err := c.solveLanes(opts)
			if err != nil {
				t.Fatalf("%s (GOMAXPROCS=%d): %v", c.name, procs, err)
			}
			for li, v := range out {
				if math.Float64bits(v) != base[i][li] {
					t.Fatalf("%s lane %d: GOMAXPROCS=%d differs from 1",
						c.name, li, procs)
				}
			}
		}
	}
}

// Arena lifecycle under early exits (run with -race): solves aborted by
// context cancellation or MaxStates must still return their pooled arenas —
// the pool must not grow without bound across many aborted solves — and an
// aborted solve must leak no state into the next borrower of its arena.
func TestArenaReturnedOnEarlyExitPaths(t *testing.T) {
	rng := rand.New(rand.NewSource(606))
	m := 11
	mdl := randModel(rng, m)
	lab := randWorld(rng, m, 4)
	u := randBipartiteUnion(rng, 3, 4)
	opts := Options{MaxInvolved: 16}

	want, err := Bipartite(mdl, lab, u, opts)
	if err != nil {
		t.Fatal(err)
	}

	restore := forceParallel(3)
	defer restore()
	const goroutines, iters = 4, 60
	start := arenaNews.Load()
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for it := 0; it < iters; it++ {
				switch it % 3 {
				case 0: // cancelled mid-solve by a racing goroutine
					ctx, cancel := context.WithCancel(context.Background())
					go func() {
						time.Sleep(time.Duration(it%5) * 10 * time.Microsecond)
						cancel()
					}()
					_, _ = Bipartite(mdl, lab, u, Options{Ctx: ctx, MaxInvolved: 16})
					cancel()
				case 1: // aborted by the state-count limit (BipartiteBasic has
					// no pruning, so its layers are guaranteed to exceed 2)
					_, err := BipartiteBasic(mdl, lab, u, Options{MaxStates: 2, MaxInvolved: 16})
					if err == nil {
						t.Errorf("MaxStates=2 solve unexpectedly succeeded")
					}
				default: // a full solve interleaved between aborts must be exact
					got, err := Bipartite(mdl, lab, u, opts)
					if err != nil {
						t.Errorf("interleaved solve: %v", err)
					} else if math.Float64bits(got) != math.Float64bits(want) {
						t.Errorf("interleaved solve differs after aborts: %v vs %v", got, want)
					}
				}
			}
		}(g)
	}
	wg.Wait()

	// Every solve borrows and returns one arena; the pool services
	// goroutines concurrent solves from a handful of fresh allocations.
	// sync.Pool may discard arenas under GC pressure and deliberately drops
	// a random fraction of puts in race mode, so allow generous slack —
	// leaked arenas would show up as one new allocation per aborted solve,
	// exceeding half the solve count easily.
	grown := arenaNews.Load() - start
	if grown > goroutines*iters/2 {
		t.Fatalf("arena pool grew by %d across %d solves: early-exit paths are leaking arenas",
			grown, goroutines*iters)
	}

	// No cross-borrower leakage: a fresh solve after all the aborts must
	// reproduce the pristine bits.
	got, err := Bipartite(mdl, lab, u, opts)
	if err != nil {
		t.Fatal(err)
	}
	if math.Float64bits(got) != math.Float64bits(want) {
		t.Fatalf("solve after aborted borrowers differs: %v vs %v", got, want)
	}
}

// Cancelling a batched multi-session solve must likewise return arenas and
// leave no residue in later solves.
func TestSolveSessionsCancelledMidSolve(t *testing.T) {
	rng := rand.New(rand.NewSource(607))
	m := 10
	sigma := make(rank.Ranking, m)
	for i, v := range rng.Perm(m) {
		sigma[i] = rank.Item(v)
	}
	models := randSessionModels(rng, sigma, 16)
	lab := randWorld(rng, m, 4)
	u := randTwoLabelUnion(rng, 3, 4)
	p, err := CompilePlan(AlgoTwoLabel, sigma, lab, u, Options{})
	if err != nil {
		t.Fatal(err)
	}
	want, err := SolveSessions(p, models, Options{})
	if err != nil {
		t.Fatal(err)
	}
	const iters = 50
	start := arenaNews.Load()
	for it := 0; it < iters; it++ {
		ctx, cancel := context.WithCancel(context.Background())
		cancel()
		if _, err := SolveSessions(p, models, Options{Ctx: ctx}); err == nil {
			t.Fatal("cancelled batched solve returned no error")
		}
	}
	// A leak is one arena per cancelled solve; race mode's random put drops
	// stay well under half that.
	if grown := arenaNews.Load() - start; grown > iters/2 {
		t.Fatalf("arena pool grew by %d across cancelled batched solves", grown)
	}
	got, err := SolveSessions(p, models, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for li := range want {
		if math.Float64bits(got[li]) != math.Float64bits(want[li]) {
			t.Fatalf("lane %d differs after cancelled solves: %v vs %v", li, got[li], want[li])
		}
	}
}
