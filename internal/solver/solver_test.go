package solver

import (
	"context"
	"math"
	"math/rand"
	"testing"

	"probpref/internal/label"
	"probpref/internal/pattern"
	"probpref/internal/rank"
	"probpref/internal/rim"
)

const tol = 1e-9

// randWorld builds a random labeling over m items and numLabels labels.
func randWorld(rng *rand.Rand, m, numLabels int) *label.Labeling {
	return sparseWorld(rng, m, numLabels, 0.4)
}

// randModel builds a random RIM model (not necessarily Mallows).
func randModel(rng *rand.Rand, m int) *rim.Model {
	pi := make([][]float64, m)
	for i := 0; i < m; i++ {
		row := make([]float64, i+1)
		sum := 0.0
		for j := range row {
			row[j] = rng.Float64() + 0.05
			sum += row[j]
		}
		for j := range row {
			row[j] /= sum
		}
		pi[i] = row
	}
	sigma := make(rank.Ranking, m)
	for i, v := range rng.Perm(m) {
		sigma[i] = rank.Item(v)
	}
	return rim.MustNew(sigma, pi)
}

func randSet(rng *rand.Rand, numLabels int) label.Set {
	n := 1 + rng.Intn(2)
	ls := make([]label.Label, n)
	for i := range ls {
		ls[i] = label.Label(rng.Intn(numLabels))
	}
	return label.NewSet(ls...)
}

func randTwoLabelUnion(rng *rand.Rand, z, numLabels int) pattern.Union {
	u := make(pattern.Union, z)
	for i := range u {
		u[i] = pattern.TwoLabel(randSet(rng, numLabels), randSet(rng, numLabels))
	}
	return u
}

func randBipartiteUnion(rng *rand.Rand, z, numLabels int) pattern.Union {
	u := make(pattern.Union, z)
	for i := range u {
		nl, nr := 1+rng.Intn(2), 1+rng.Intn(2)
		nodes := make([]pattern.Node, nl+nr)
		for k := range nodes {
			nodes[k].Labels = randSet(rng, numLabels)
		}
		var edges [][2]int
		for a := 0; a < nl; a++ {
			for b := nl; b < nl+nr; b++ {
				if rng.Float64() < 0.7 {
					edges = append(edges, [2]int{a, b})
				}
			}
		}
		if len(edges) == 0 {
			edges = append(edges, [2]int{0, nl})
		}
		u[i] = pattern.MustNew(nodes, edges)
	}
	return u
}

func randDAGUnion(rng *rand.Rand, z, numLabels int) pattern.Union {
	u := make(pattern.Union, z)
	for i := range u {
		q := 2 + rng.Intn(3)
		nodes := make([]pattern.Node, q)
		for k := range nodes {
			nodes[k].Labels = randSet(rng, numLabels)
		}
		var edges [][2]int
		for a := 0; a < q; a++ {
			for b := a + 1; b < q; b++ {
				if rng.Float64() < 0.5 {
					edges = append(edges, [2]int{a, b})
				}
			}
		}
		u[i] = pattern.MustNew(nodes, edges)
	}
	return u
}

// BruteConstraints is Brute under min/max constraint semantics
// (MatchesConstraints); ground truth for the upper-bound solver.
func BruteConstraints(model *rim.Model, lab *label.Labeling, u pattern.Union) float64 {
	total := 0.0
	rank.ForEachPermutation(model.M(), func(tau rank.Ranking) bool {
		if u.MatchesConstraints(tau, lab) {
			total += model.Prob(tau)
		}
		return true
	})
	return total
}

func TestTwoLabelAgainstBrute(t *testing.T) {
	rng := rand.New(rand.NewSource(101))
	for trial := 0; trial < 150; trial++ {
		m := 3 + rng.Intn(4)
		lab := randWorld(rng, m, 4)
		model := randModel(rng, m)
		u := randTwoLabelUnion(rng, 1+rng.Intn(3), 4)
		want := Brute(model, lab, u)
		got, err := TwoLabel(model, lab, u, Options{})
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(got-want) > tol {
			t.Fatalf("trial %d: TwoLabel=%v brute=%v (m=%d, union=%v)", trial, got, want, m, u)
		}
	}
}

func TestTwoLabelRejectsNonTwoLabel(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	model := randModel(rng, 3)
	u := randBipartiteUnion(rng, 1, 3)
	for !u[0].IsTwoLabel() {
		u = randBipartiteUnion(rng, 1, 3)
	}
	star := pattern.MustNew(
		[]pattern.Node{{Labels: label.NewSet(0)}, {Labels: label.NewSet(1)}, {Labels: label.NewSet(2)}},
		[][2]int{{0, 1}, {0, 2}},
	)
	if _, err := TwoLabel(model, randWorld(rng, 3, 3), pattern.Union{star}, Options{}); err == nil {
		t.Fatal("expected ErrShape")
	}
}

func TestBipartiteAgainstBrute(t *testing.T) {
	rng := rand.New(rand.NewSource(102))
	for trial := 0; trial < 150; trial++ {
		m := 3 + rng.Intn(4)
		lab := randWorld(rng, m, 4)
		model := randModel(rng, m)
		u := randBipartiteUnion(rng, 1+rng.Intn(3), 4)
		want := Brute(model, lab, u)
		got, err := Bipartite(model, lab, u, Options{})
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(got-want) > tol {
			t.Fatalf("trial %d: Bipartite=%v brute=%v (m=%d, union=%v)", trial, got, want, m, u)
		}
	}
}

// Bipartite on two-label unions must agree with TwoLabel (two-label is a
// special case, as the paper notes).
func TestBipartiteEqualsTwoLabel(t *testing.T) {
	rng := rand.New(rand.NewSource(103))
	for trial := 0; trial < 80; trial++ {
		m := 3 + rng.Intn(4)
		lab := randWorld(rng, m, 4)
		model := randModel(rng, m)
		u := randTwoLabelUnion(rng, 1+rng.Intn(3), 4)
		a, err := TwoLabel(model, lab, u, Options{})
		if err != nil {
			t.Fatal(err)
		}
		b, err := Bipartite(model, lab, u, Options{})
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(a-b) > tol {
			t.Fatalf("trial %d: TwoLabel=%v Bipartite=%v", trial, a, b)
		}
	}
}

// On non-bipartite patterns, Bipartite computes the constraint relaxation:
// it must agree with BruteConstraints and upper-bound the true probability.
func TestBipartiteConstraintSemantics(t *testing.T) {
	rng := rand.New(rand.NewSource(104))
	for trial := 0; trial < 100; trial++ {
		m := 3 + rng.Intn(3)
		lab := randWorld(rng, m, 3)
		model := randModel(rng, m)
		u := randDAGUnion(rng, 1+rng.Intn(2), 3)
		want := BruteConstraints(model, lab, u)
		got, err := Bipartite(model, lab, u, Options{})
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(got-want) > tol {
			t.Fatalf("trial %d: Bipartite=%v bruteConstraints=%v union=%v", trial, got, want, u)
		}
		exact := Brute(model, lab, u)
		if got < exact-tol {
			t.Fatalf("trial %d: constraint relaxation %v below exact %v", trial, got, exact)
		}
	}
}

func TestRelOrderAgainstBrute(t *testing.T) {
	rng := rand.New(rand.NewSource(105))
	for trial := 0; trial < 150; trial++ {
		m := 3 + rng.Intn(4)
		lab := randWorld(rng, m, 3)
		model := randModel(rng, m)
		u := randDAGUnion(rng, 1+rng.Intn(2), 3)
		want := Brute(model, lab, u)
		got, err := RelOrder(model, lab, u, Options{})
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(got-want) > tol {
			t.Fatalf("trial %d: RelOrder=%v brute=%v (m=%d union=%v)", trial, got, want, m, u)
		}
	}
}

func TestGeneralAgainstBrute(t *testing.T) {
	rng := rand.New(rand.NewSource(106))
	for trial := 0; trial < 100; trial++ {
		m := 3 + rng.Intn(3)
		lab := randWorld(rng, m, 3)
		model := randModel(rng, m)
		var u pattern.Union
		switch trial % 3 {
		case 0:
			u = randTwoLabelUnion(rng, 1+rng.Intn(3), 3)
		case 1:
			u = randBipartiteUnion(rng, 1+rng.Intn(2), 3)
		default:
			u = randDAGUnion(rng, 1+rng.Intn(2), 3)
		}
		want := Brute(model, lab, u)
		var st Stats
		got, err := General(model, lab, u, Options{Stats: &st})
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(got-want) > tol {
			t.Fatalf("trial %d: General=%v brute=%v union=%v", trial, got, want, u)
		}
		if st.Subproblems == 0 {
			t.Fatal("stats not collected")
		}
	}
}

// Example 4.1 of the paper: Pr(g1 ∪ g2) = Pr(g1) + Pr(g2) - Pr(g1 ∧ g2).
func TestGeneralInclusionExclusionIdentity(t *testing.T) {
	rng := rand.New(rand.NewSource(107))
	m := 5
	lab := randWorld(rng, m, 4)
	model := randModel(rng, m)
	g1 := pattern.TwoLabel(label.NewSet(0), label.NewSet(1))
	g2 := pattern.TwoLabel(label.NewSet(2), label.NewSet(3))
	p1 := Brute(model, lab, pattern.Union{g1})
	p2 := Brute(model, lab, pattern.Union{g2})
	p12 := Brute(model, lab, pattern.Union{pattern.Conjoin(g1, g2)})
	got, err := General(model, lab, pattern.Union{g1, g2}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if want := p1 + p2 - p12; math.Abs(got-want) > tol {
		t.Fatalf("General=%v, identity gives %v", got, want)
	}
}

func TestAutoDispatch(t *testing.T) {
	rng := rand.New(rand.NewSource(108))
	m := 5
	lab := randWorld(rng, m, 4)
	model := randModel(rng, m)
	for trial := 0; trial < 60; trial++ {
		var u pattern.Union
		switch trial % 3 {
		case 0:
			u = randTwoLabelUnion(rng, 1+rng.Intn(2), 4)
		case 1:
			u = randBipartiteUnion(rng, 1+rng.Intn(2), 4)
		default:
			u = randDAGUnion(rng, 1, 4)
		}
		want := Brute(model, lab, u)
		got, err := Auto(model, lab, u, Options{})
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(got-want) > tol {
			t.Fatalf("trial %d: Auto=%v brute=%v", trial, got, want)
		}
	}
}

func TestEmptyUnion(t *testing.T) {
	rng := rand.New(rand.NewSource(109))
	model := randModel(rng, 3)
	lab := randWorld(rng, 3, 2)
	for name, f := range map[string]func() (float64, error){
		"auto":    func() (float64, error) { return Auto(model, lab, nil, Options{}) },
		"general": func() (float64, error) { return General(model, lab, nil, Options{}) },
	} {
		p, err := f()
		if err != nil || p != 0 {
			t.Fatalf("%s: p=%v err=%v, want 0", name, p, err)
		}
	}
}

func TestUnsatisfiablePattern(t *testing.T) {
	rng := rand.New(rand.NewSource(110))
	model := randModel(rng, 4)
	lab := label.NewLabeling() // no labels at all
	u := pattern.Union{pattern.TwoLabel(label.NewSet(0), label.NewSet(1))}
	for name, f := range map[string]func() (float64, error){
		"twolabel":  func() (float64, error) { return TwoLabel(model, lab, u, Options{}) },
		"bipartite": func() (float64, error) { return Bipartite(model, lab, u, Options{}) },
		"relorder":  func() (float64, error) { return RelOrder(model, lab, u, Options{}) },
		"general":   func() (float64, error) { return General(model, lab, u, Options{}) },
	} {
		p, err := f()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if p != 0 {
			t.Fatalf("%s: p=%v, want 0 for unsatisfiable pattern", name, p)
		}
	}
}

// A pattern guaranteed to hold (label on every item preferred to label on
// every item, with both labels everywhere) must give probability ~1... more
// simply: l > r where the first sigma item is the only l and the last is the
// only r under the identity insertion (phi=0) model.
func TestCertainPattern(t *testing.T) {
	sigma := rank.Identity(4)
	ml := rim.MustMallows(sigma, 0) // always returns sigma
	lab := label.NewLabeling()
	lab.Add(0, 0) // item 0 (position 0) has label 0
	lab.Add(3, 1) // item 3 (position 3) has label 1
	u := pattern.Union{pattern.TwoLabel(label.NewSet(0), label.NewSet(1))}
	for name, f := range map[string]func() (float64, error){
		"twolabel":  func() (float64, error) { return TwoLabel(ml.Model(), lab, u, Options{}) },
		"bipartite": func() (float64, error) { return Bipartite(ml.Model(), lab, u, Options{}) },
		"relorder":  func() (float64, error) { return RelOrder(ml.Model(), lab, u, Options{}) },
	} {
		p, err := f()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if math.Abs(p-1) > tol {
			t.Fatalf("%s: p=%v, want 1", name, p)
		}
	}
}

func TestContextCancellation(t *testing.T) {
	rng := rand.New(rand.NewSource(111))
	model := randModel(rng, 8)
	lab := randWorld(rng, 8, 4)
	u := randTwoLabelUnion(rng, 3, 4)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := TwoLabel(model, lab, u, Options{Ctx: ctx}); err == nil {
		t.Fatal("expected context error")
	}
	if _, err := Bipartite(model, lab, u, Options{Ctx: ctx}); err == nil {
		t.Fatal("expected context error")
	}
	if _, err := RelOrder(model, lab, u, Options{Ctx: ctx}); err == nil {
		t.Fatal("expected context error")
	}
}

func TestMaxStates(t *testing.T) {
	rng := rand.New(rand.NewSource(112))
	model := randModel(rng, 8)
	lab := randWorld(rng, 8, 4)
	u := randTwoLabelUnion(rng, 3, 4)
	if _, err := TwoLabel(model, lab, u, Options{MaxStates: 1}); err == nil {
		t.Fatal("expected ErrTooLarge")
	}
}

func TestRelOrderInvolvedLimit(t *testing.T) {
	rng := rand.New(rand.NewSource(113))
	model := randModel(rng, 8)
	lab := label.NewLabeling()
	for i := 0; i < 8; i++ {
		lab.Add(rank.Item(i), 0)
		lab.Add(rank.Item(i), 1)
	}
	u := pattern.Union{pattern.TwoLabel(label.NewSet(0), label.NewSet(1))}
	if _, err := RelOrder(model, lab, u, Options{MaxInvolved: 4}); err == nil {
		t.Fatal("expected ErrTooLarge for 8 involved items with limit 4")
	}
}

// Stats must report effort for the DP solvers.
func TestStatsCollected(t *testing.T) {
	rng := rand.New(rand.NewSource(114))
	model := randModel(rng, 5)
	lab := randWorld(rng, 5, 3)
	u := randTwoLabelUnion(rng, 2, 3)
	var st Stats
	if _, err := TwoLabel(model, lab, u, Options{Stats: &st}); err != nil {
		t.Fatal(err)
	}
	if st.PeakStates == 0 || st.TotalStates == 0 {
		t.Fatalf("stats not populated: %+v", st)
	}
}
