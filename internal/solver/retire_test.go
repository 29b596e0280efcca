package solver

import (
	"math"
	"math/rand"
	"testing"

	"probpref/internal/label"
	"probpref/internal/pattern"
	"probpref/internal/rank"
	"probpref/internal/rim"
)

// Differential suite for tracker retirement (TwoLabel's per-step retire
// lists, Bipartite's exhausted-partner clause): the retiring walk against the
// m! enumerators and against the NoTrackerDrop walk, which carries every
// tracker to the last step. Retirement merges states before their masses
// are folded, so the walks agree to the last ulps, not bitwise; everything
// here holds 1e-12.

const retireTol = 1e-12

// sparseWorld labels each item with each label at the given density; low
// densities give label sets carried by one or two items (or none), which is
// where a side is exhausted long before the last insertion step.
func sparseWorld(rng *rand.Rand, m, numLabels int, density float64) *label.Labeling {
	lab := label.NewLabeling()
	for it := 0; it < m; it++ {
		for l := 0; l < numLabels; l++ {
			if rng.Float64() < density {
				lab.Add(rank.Item(it), label.Label(l))
			}
		}
	}
	return lab
}

// selectiveWorld draws the shape of the hard-CQ family: four labels, each
// carried by one to three random items of sigma, and a union of z two-label
// patterns over single labels drawn with repetition (so slots are shared,
// and a pattern's two sides may be the same label).
func selectiveWorld(rng *rand.Rand, sigma rank.Ranking, z int) (*label.Labeling, pattern.Union) {
	lab := label.NewLabeling()
	for l := 0; l < 4; l++ {
		for n := 1 + rng.Intn(3); n > 0; n-- {
			lab.Add(sigma[rng.Intn(len(sigma))], label.Label(l))
		}
	}
	u := make(pattern.Union, z)
	for i := range u {
		u[i] = pattern.TwoLabel(label.NewSet(label.Label(rng.Intn(4))), label.NewSet(label.Label(rng.Intn(4))))
	}
	return lab, u
}

// retiringWorld builds, over sigma (six items or more), a labeling in which
// labels 0 and 2 are carried by items of sigma's first half only and labels
// 1 and 3 by one of sigma's first two items and one of its last two, on
// disjoint items, with a two-label and a bipartite union over them: every
// edge has one side exhausted early and one that runs from the start to the
// end, so on both solvers min and max trackers holding a position are
// retired mid-walk while their partners stay live.
func retiringWorld(sigma rank.Ranking) (*label.Labeling, pattern.Union, pattern.Union) {
	lab := label.NewLabeling()
	m := len(sigma)
	for l, steps := range [][]int{{2}, {0, m - 1}, {3}, {1, m - 2}} {
		for _, i := range steps {
			lab.Add(sigma[i], label.Label(l))
		}
	}
	set := func(l int) label.Set { return label.NewSet(label.Label(l)) }
	two := pattern.Union{
		pattern.TwoLabel(set(0), set(1)),
		pattern.TwoLabel(set(3), set(2)),
	}
	bip := pattern.Union{
		pattern.MustNew([]pattern.Node{{Labels: set(0)}, {Labels: set(2)}, {Labels: set(1)}, {Labels: set(3)}},
			[][2]int{{0, 2}, {0, 3}, {1, 3}}),
		pattern.TwoLabel(set(3), set(0)),
	}
	return lab, two, bip
}

// zeroedModel is a random model over a random sigma with exact-zero
// insertion probabilities.
func zeroedModel(rng *rand.Rand, m int) *rim.Model {
	sigma := make(rank.Ranking, m)
	for i, v := range rng.Perm(m) {
		sigma[i] = rank.Item(v)
	}
	return randSessionModels(rng, sigma, 1)[0]
}

type solveFn func(*rim.Model, *label.Labeling, pattern.Union, Options) (float64, error)

// solveBoth solves with tracker retirement and with NoTrackerDrop, and
// returns both answers and both walks' statistics.
func solveBoth(t *testing.T, what string, solve solveFn, mdl *rim.Model, lab *label.Labeling, u pattern.Union) (got, ref float64, drop, noDrop Stats) {
	t.Helper()
	got, err := solve(mdl, lab, u, Options{Stats: &drop})
	if err != nil {
		t.Fatalf("%s: %v", what, err)
	}
	ref, err = solve(mdl, lab, u, Options{NoTrackerDrop: true, Stats: &noDrop})
	if err != nil {
		t.Fatalf("%s (NoTrackerDrop): %v", what, err)
	}
	return got, ref, drop, noDrop
}

// checkAgainst holds both walks to want, and the retiring one to no more
// states than the other.
func checkAgainst(t *testing.T, what string, solve solveFn, mdl *rim.Model, lab *label.Labeling, u pattern.Union, want float64) {
	t.Helper()
	got, ref, drop, noDrop := solveBoth(t, what, solve, mdl, lab, u)
	if math.Abs(got-want) > retireTol || math.Abs(ref-want) > retireTol {
		t.Fatalf("%s: retiring %v, NoTrackerDrop %v, want %v (sigma %v, union %s)",
			what, got, ref, want, mdl.Sigma(), u.Key())
	}
	if drop.TotalStates > noDrop.TotalStates {
		t.Fatalf("%s: retiring walked more states (%d > %d)", what, drop.TotalStates, noDrop.TotalStates)
	}
}

func TestRetirementAgainstBrute(t *testing.T) {
	trials := 2500
	if testing.Short() {
		trials = 250
	}
	rng := rand.New(rand.NewSource(1801))
	for trial := 0; trial < trials; trial++ {
		m := 3 + rng.Intn(5) // 3..7
		lab := sparseWorld(rng, m, 4, 0.1+0.5*rng.Float64())
		mdl := randModel(rng, m)
		if trial&4 != 0 {
			mdl = zeroedModel(rng, m)
		}
		switch trial % 5 {
		case 0:
			u := randTwoLabelUnion(rng, 1+rng.Intn(3), 4)
			checkAgainst(t, "twolabel", TwoLabel, mdl, lab, u, Brute(mdl, lab, u))
		case 1:
			u := randTwoLabelUnion(rng, 1+rng.Intn(3), 4)
			checkAgainst(t, "bipartite on two-label", Bipartite, mdl, lab, u, Brute(mdl, lab, u))
		case 2:
			u := randBipartiteUnion(rng, 1+rng.Intn(3), 4)
			checkAgainst(t, "bipartite", Bipartite, mdl, lab, u, Brute(mdl, lab, u))
		case 3:
			lab, u := selectiveWorld(rng, mdl.Sigma(), 1+rng.Intn(3))
			want := Brute(mdl, lab, u)
			checkAgainst(t, "twolabel, selective", TwoLabel, mdl, lab, u, want)
			checkAgainst(t, "bipartite, selective", Bipartite, mdl, lab, u, want)
		default:
			// Constraint semantics on DAG unions: the top-k upper bound.
			u := randDAGUnion(rng, 1+rng.Intn(2), 4)
			checkAgainst(t, "bipartite on DAG", Bipartite, mdl, lab, u, BruteConstraints(mdl, lab, u))
		}
	}
}

// Hand-built worlds over sigma = 0, 1, ..., m-1 (so an item's number is its
// insertion step), one per way a tracker can be retired.
func TestRetirementNamedCases(t *testing.T) {
	const (
		A = label.Label(iota)
		B
		C
		Z // carried by no item
	)
	set := func(ls ...label.Label) label.Set { return label.NewSet(ls...) }
	cases := []struct {
		name  string
		items map[label.Label][]int
		u     pattern.Union
	}{
		{
			// A's min slot is read by B-items until step 1 and by C-items
			// until step 5; it must outlive the first partner.
			name:  "slot shared by two patterns with different partners",
			items: map[label.Label][]int{A: {0, 4}, B: {1}, C: {5}},
			u:     pattern.Union{pattern.TwoLabel(set(A), set(B)), pattern.TwoLabel(set(A), set(C))},
		},
		{
			name:  "item feeds both sides of one pattern",
			items: map[label.Label][]int{A: {0, 2}, B: {2, 4}},
			u:     pattern.Union{pattern.TwoLabel(set(A), set(B))},
		},
		{
			name:  "item feeding both sides is the last of both",
			items: map[label.Label][]int{A: {1, 3}, B: {0, 3}},
			u:     pattern.Union{pattern.TwoLabel(set(A), set(B))},
		},
		{
			// A's min slot and B's max slot are dead from step 0.
			name:  "a side no item carries",
			items: map[label.Label][]int{A: {0, 3}, B: {1, 4}},
			u:     pattern.Union{pattern.TwoLabel(set(A), set(Z)), pattern.TwoLabel(set(Z), set(B)), pattern.TwoLabel(set(B), set(A))},
		},
		{
			// A's min slot is retired before it is first fed: steps 3 and 5
			// set it for their own check only.
			name:  "partner side wholly before the slot's first item",
			items: map[label.Label][]int{A: {3, 5}, B: {0, 1}},
			u:     pattern.Union{pattern.TwoLabel(set(A), set(B))},
		},
		{
			name:  "partner side wholly after the slot's last item",
			items: map[label.Label][]int{A: {0, 1}, B: {3, 5}},
			u:     pattern.Union{pattern.TwoLabel(set(A), set(B))},
		},
		{
			// alpha(A) < beta(A) holds from the second A-item on.
			name:  "L and R are the same label set",
			items: map[label.Label][]int{A: {1, 3, 4}, B: {2}},
			u:     pattern.Union{pattern.TwoLabel(set(A), set(A)), pattern.TwoLabel(set(B), set(A))},
		},
		{
			name:  "conjunctive label sets sharing items",
			items: map[label.Label][]int{A: {0, 1, 2, 4}, B: {1, 2, 5}, C: {2, 3}},
			u:     pattern.Union{pattern.TwoLabel(set(A, B), set(C)), pattern.TwoLabel(set(C), set(A, B)), pattern.TwoLabel(set(B, C), set(A))},
		},
	}
	const m = 7
	sigma := make(rank.Ranking, m)
	for i := range sigma {
		sigma[i] = rank.Item(i)
	}
	rng := rand.New(rand.NewSource(1802))
	for _, c := range cases {
		lab := label.NewLabeling()
		for l, items := range c.items {
			for _, it := range items {
				lab.Add(rank.Item(it), l)
			}
		}
		for _, mdl := range randSessionModels(rng, sigma, 6) {
			want := Brute(mdl, lab, c.u)
			checkAgainst(t, c.name+" (twolabel)", TwoLabel, mdl, lab, c.u, want)
			checkAgainst(t, c.name+" (bipartite)", Bipartite, mdl, lab, c.u, want)
		}
	}
}

// Beyond brute range the four walks must still agree with each other.
func TestRetirementAgreementLargerM(t *testing.T) {
	trials := 30
	if testing.Short() {
		trials = 8
	}
	rng := rand.New(rand.NewSource(1803))
	for trial := 0; trial < trials; trial++ {
		m := 9 + rng.Intn(6) // 9..14
		mdl := zeroedModel(rng, m)
		lab, u := selectiveWorld(rng, mdl.Sigma(), 2)
		if trial%3 == 0 {
			lab, u, _ = retiringWorld(mdl.Sigma())
		}
		want, err := TwoLabel(mdl, lab, u, Options{NoTrackerDrop: true})
		if err != nil {
			t.Fatal(err)
		}
		checkAgainst(t, "twolabel", TwoLabel, mdl, lab, u, want)
		checkAgainst(t, "bipartite", Bipartite, mdl, lab, u, want)
	}
}

// The lane and determinism fixtures built on retiringWorld must really
// retire mid-walk: strictly fewer states than the NoTrackerDrop walk.
func TestRetiringWorldRetiresMidWalk(t *testing.T) {
	rng := rand.New(rand.NewSource(1804))
	for trial := 0; trial < 20; trial++ {
		mdl := zeroedModel(rng, 6+rng.Intn(6))
		lab, two, bip := retiringWorld(mdl.Sigma())
		for _, c := range []struct {
			name  string
			solve solveFn
			u     pattern.Union
		}{{"twolabel", TwoLabel, two}, {"bipartite", Bipartite, bip}} {
			_, _, drop, noDrop := solveBoth(t, c.name, c.solve, mdl, lab, c.u)
			if drop.TotalStates >= noDrop.TotalStates {
				t.Fatalf("trial %d: %s did not retire: %d states vs %d", trial, c.name, drop.TotalStates, noDrop.TotalStates)
			}
		}
	}
}
