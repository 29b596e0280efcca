package solver

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"sync"
	"testing"

	"probpref/internal/label"
	"probpref/internal/pattern"
	"probpref/internal/rank"
)

// Plan.Cost against the walks it prices, on shapes chosen to break it: label
// sets shared between patterns and between the two sides of one, sides
// carried by one item or by none, duplicate patterns, trackers retired
// mid-walk. The price is built from upper bounds, so on every solver it may
// sit above the real walk but never far below it; how close it sits on
// serving traffic is internal/ppd's TestCostCalibration.
func TestPlanCostBoundsRandomWalks(t *testing.T) {
	// Within 2x below: the bounds count vectors of positions, and a few of
	// Bipartite's states differ in their header bits alone (worst seen over
	// 3 000 such worlds: 0.84 of the walk's transitions, 2 states for 3).
	const maxUnder = 2.0
	rng := rand.New(rand.NewSource(7))
	checked := map[Algo]int{}
	check := func(algo Algo, sigma rank.Ranking, lab *label.Labeling, u pattern.Union, what string) {
		t.Helper()
		pl, err := CompilePlan(algo, sigma, lab, u, Options{MaxInvolved: 7})
		if err != nil {
			return // shape or involved-item cap: nothing to price
		}
		var st Stats
		if _, err := pl.Solve(randSessionModels(rng, sigma, 1)[0], Options{Stats: &st, MaxStates: 1 << 13}); err != nil {
			return
		}
		checked[algo]++
		transitions, peak := pl.Cost()
		if transitions*maxUnder < float64(st.Transitions) || peak*maxUnder < float64(st.PeakStates) {
			t.Errorf("%v on %s union %s over %v: priced %.0f transitions, widest layer %.0f; the walk made %d and %d",
				algo, what, u.Key(), sigma, transitions, peak, st.Transitions, st.PeakStates)
		}
	}
	trials := 600
	if testing.Short() {
		trials = 150 // the -race line
	}
	for trial := 0; trial < trials; trial++ {
		m := 5 + rng.Intn(10)
		sigma := make(rank.Ranking, m)
		for i, v := range rng.Perm(m) {
			sigma[i] = rank.Item(v)
		}
		switch trial % 4 {
		case 0:
			lab, u := selectiveWorld(rng, sigma, 1+rng.Intn(4))
			for _, algo := range []Algo{AlgoTwoLabel, AlgoBipartite, AlgoRelOrder} {
				check(algo, sigma, lab, u, "selective")
			}
		case 1:
			lab := sparseWorld(rng, m, 5, 0.05+0.3*rng.Float64())
			u := randTwoLabelUnion(rng, 1+rng.Intn(3), 5)
			for _, algo := range []Algo{AlgoTwoLabel, AlgoBipartite, AlgoRelOrder} {
				check(algo, sigma, lab, u, "sparse two-label")
			}
		case 2:
			lab := sparseWorld(rng, m, 5, 0.05+0.3*rng.Float64())
			u := randBipartiteUnion(rng, 1+rng.Intn(3), 5)
			check(AlgoBipartite, sigma, lab, u, "sparse bipartite")
			check(AlgoRelOrder, sigma, lab, u, "sparse bipartite")
		case 3:
			lab, two, bip := retiringWorld(sigma)
			check(AlgoTwoLabel, sigma, lab, two, "retiring")
			check(AlgoBipartite, sigma, lab, bip, "retiring")
			check(AlgoRelOrder, sigma, lab, bip, "retiring")
		}
	}
	for _, algo := range []Algo{AlgoTwoLabel, AlgoBipartite, AlgoRelOrder} {
		if checked[algo] < trials/6 {
			t.Errorf("%v: only %d walks checked", algo, checked[algo])
		}
	}
}

// The planner compiles only TwoLabel for a two-label union on the strength
// of this: Bipartite walks the same trackers without gap merging and never
// prices such a union lower.
func TestPlanCostTwoLabelNeverAboveBipartite(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 300; trial++ {
		m := 5 + rng.Intn(20)
		sigma := rank.Identity(m)
		lab := sparseWorld(rng, m, 5, 0.05+0.3*rng.Float64())
		u := randTwoLabelUnion(rng, 1+rng.Intn(4), 5)
		two, err := CompilePlan(AlgoTwoLabel, sigma, lab, u, Options{})
		if err != nil {
			t.Fatal(err)
		}
		bip, err := CompilePlan(AlgoBipartite, sigma, lab, u, Options{})
		if err != nil {
			t.Fatal(err)
		}
		tc, _ := two.Cost()
		bc, _ := bip.Cost()
		if tc > bc {
			t.Fatalf("union %s: TwoLabel priced %.0f, Bipartite %.0f", u.Key(), tc, bc)
		}
	}
}

func TestPlanCostOutsideTheModel(t *testing.T) {
	sigma := rank.Identity(8)
	lab := label.NewLabeling()
	for it := 0; it < 8; it++ {
		lab.Add(rank.Item(it), label.Label(it%2))
	}
	set := func(l int) label.Set { return label.NewSet(label.Label(l)) }
	cost := func(algo Algo, u pattern.Union) float64 {
		t.Helper()
		pl, err := CompilePlan(algo, sigma, lab, u, Options{})
		if err != nil {
			t.Fatal(err)
		}
		transitions, _ := pl.Cost()
		return transitions
	}
	if c := cost(AlgoTwoLabel, nil); c != 0 {
		t.Errorf("empty union priced %v, want 0", c)
	}
	// 33 patterns over 66 distinct label sets: one tracker too many.
	var wide pattern.Union
	for p := 0; p < 33; p++ {
		wide = append(wide, pattern.TwoLabel(set(2+2*p), set(3+2*p)))
	}
	if c := cost(AlgoTwoLabel, wide); !math.IsInf(c, 1) {
		t.Errorf("66 trackers priced %v, want +Inf", c)
	}
	if c := cost(AlgoTwoLabel, wide[:32]); math.IsInf(c, 1) || c <= 0 {
		t.Errorf("64 trackers priced %v, want a finite price", c)
	}
}

// One compiled plan priced and solved from several goroutines at once (run
// under -race): Cost reads the plan's tables and writes nothing.
func TestPlanCostConcurrentWithSolves(t *testing.T) {
	mdl, lab, u := benchSelective()
	for _, algo := range []Algo{AlgoTwoLabel, AlgoBipartite} {
		pl, err := CompilePlan(algo, mdl.Sigma(), lab, u, Options{})
		if err != nil {
			t.Fatal(err)
		}
		wantCost, _ := pl.Cost()
		wantP, err := pl.Solve(mdl, Options{})
		if err != nil {
			t.Fatal(err)
		}
		var wg sync.WaitGroup
		errs := make([]error, 4)
		for g := range errs {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				for rep := 0; rep < 5; rep++ {
					c, _ := pl.Cost()
					p, err := pl.Solve(mdl, Options{})
					if err != nil || c != wantCost || p != wantP {
						errs[g] = fmt.Errorf("%v: cost %v prob %v err %v, want %v and %v", algo, c, p, err, wantCost, wantP)
						return
					}
				}
			}(g)
		}
		wg.Wait()
		if err := errors.Join(errs...); err != nil {
			t.Fatal(err)
		}
	}
}

// A layer MaxStates refuses is not recorded: Stats.PeakStates of a stopped
// walk stays within the limit, which is what lets a caller that set the
// limit as a memory bound read the peak as "what was held".
func TestMaxStatesRefusedLayerNotRecorded(t *testing.T) {
	// Eight items: RelOrder's walk over the union's involved items stays small.
	mdl := randModel(rand.New(rand.NewSource(3)), 8)
	lab, _, u := retiringWorld(mdl.Sigma())
	for name, solve := range map[string]solveFn{"Bipartite": Bipartite, "RelOrder": RelOrder} {
		var free, st Stats
		if _, err := solve(mdl, lab, u, Options{Stats: &free}); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		limit := free.PeakStates / 2
		_, err := solve(mdl, lab, u, Options{Stats: &st, MaxStates: limit})
		if !errors.Is(err, ErrTooLarge) {
			t.Fatalf("%s under MaxStates %d (free peak %d): err %v, want ErrTooLarge", name, limit, free.PeakStates, err)
		}
		if st.PeakStates > limit || st.PeakStates == 0 {
			t.Errorf("%s: stopped walk reports a peak of %d states under a limit of %d", name, st.PeakStates, limit)
		}
	}
}
