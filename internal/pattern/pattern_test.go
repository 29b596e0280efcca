package pattern

import (
	"math/rand"
	"testing"

	"probpref/internal/label"
	"probpref/internal/rank"
)

// testWorld is a reusable fixture: m items with random small label sets.
type testWorld struct {
	m   int
	lab *label.Labeling
}

func randomWorld(rng *rand.Rand, m, numLabels int) *testWorld {
	lab := label.NewLabeling()
	for it := 0; it < m; it++ {
		for l := 0; l < numLabels; l++ {
			if rng.Float64() < 0.4 {
				lab.Add(rank.Item(it), label.Label(l))
			}
		}
	}
	return &testWorld{m: m, lab: lab}
}

// randomPattern builds a random DAG pattern over numLabels labels with q
// nodes. Edges only go from lower to higher node index, guaranteeing
// acyclicity.
func randomPattern(rng *rand.Rand, q, numLabels int) *Pattern {
	nodes := make([]Node, q)
	for i := range nodes {
		n := 1 + rng.Intn(2)
		ls := make([]label.Label, n)
		for j := range ls {
			ls[j] = label.Label(rng.Intn(numLabels))
		}
		nodes[i].Labels = label.NewSet(ls...)
	}
	var edges [][2]int
	for a := 0; a < q; a++ {
		for b := a + 1; b < q; b++ {
			if rng.Float64() < 0.5 {
				edges = append(edges, [2]int{a, b})
			}
		}
	}
	return MustNew(nodes, edges)
}

// matchByEnumeration is an oracle: try every node->position assignment.
func matchByEnumeration(g *Pattern, tau rank.Ranking, lab *label.Labeling) bool {
	q := g.NumNodes()
	assign := make([]int, q)
	var rec func(v int) bool
	rec = func(v int) bool {
		if v == q {
			for _, e := range g.Edges() {
				if assign[e[0]] >= assign[e[1]] {
					return false
				}
			}
			return true
		}
		for p := 0; p < len(tau); p++ {
			if !lab.HasAll(tau[p], g.Node(v).Labels) {
				continue
			}
			assign[v] = p
			if rec(v + 1) {
				return true
			}
		}
		return false
	}
	return rec(0)
}

func TestNewValidation(t *testing.T) {
	if _, err := New([]Node{{}}, [][2]int{{0, 1}}); err == nil {
		t.Error("out-of-range edge accepted")
	}
	if _, err := New([]Node{{}}, [][2]int{{0, 0}}); err == nil {
		t.Error("self-loop accepted")
	}
	if _, err := New([]Node{{}, {}}, [][2]int{{0, 1}, {1, 0}}); err == nil {
		t.Error("cycle accepted")
	}
}

// Example 2.3 of the paper: tau = <Trump, Clinton, Sanders, Rubio> with
// pattern F > M matches via Clinton (pos 2) > Sanders (pos 3).
func TestMatchesExample23(t *testing.T) {
	const (
		trump   = rank.Item(0)
		clinton = rank.Item(1)
		sanders = rank.Item(2)
		rubio   = rank.Item(3)
		female  = label.Label(0)
		male    = label.Label(1)
	)
	lab := label.NewLabeling()
	lab.Add(trump, male)
	lab.Add(clinton, female)
	lab.Add(sanders, male)
	lab.Add(rubio, male)
	g := TwoLabel(label.NewSet(female), label.NewSet(male))
	tau := rank.Ranking{trump, clinton, sanders, rubio}
	if !g.Matches(tau, lab) {
		t.Fatal("pattern F > M should match")
	}
	emb := make([]int, g.NumNodes())
	if ok := CompileMatcher(Union{g}, lab, len(tau)).pats[0].embed(tau, emb); !ok || emb[0] != 1 || emb[1] != 2 {
		t.Fatalf("greedy embedding = %v (ok=%v), want [1 2]", emb, ok)
	}
	// The reverse pattern M > F also matches (Trump before Clinton).
	if !TwoLabel(label.NewSet(male), label.NewSet(female)).Matches(tau, lab) {
		t.Fatal("pattern M > F should match via Trump > Clinton")
	}
}

// Property: greedy matching agrees with exhaustive embedding enumeration.
func TestMatchesAgainstEnumeration(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 500; trial++ {
		m := 3 + rng.Intn(4)
		w := randomWorld(rng, m, 4)
		g := randomPattern(rng, 1+rng.Intn(4), 4)
		tau := make(rank.Ranking, m)
		for i, v := range rng.Perm(m) {
			tau[i] = rank.Item(v)
		}
		want := matchByEnumeration(g, tau, w.lab)
		if got := g.Matches(tau, w.lab); got != want {
			t.Fatalf("trial %d: Matches=%v enumeration=%v\npattern=%v tau=%v",
				trial, got, want, g, tau)
		}
	}
}

func TestTransitiveClosure(t *testing.T) {
	g := MustNew(
		[]Node{{Labels: label.NewSet(0)}, {Labels: label.NewSet(1)}, {Labels: label.NewSet(2)}},
		[][2]int{{0, 1}, {1, 2}},
	)
	tc := g.TransitiveClosure()
	if len(tc.Edges()) != 3 {
		t.Fatalf("tc has %d edges, want 3", len(tc.Edges()))
	}
	found := false
	for _, e := range tc.Edges() {
		if e == ([2]int{0, 2}) {
			found = true
		}
	}
	if !found {
		t.Fatal("implied edge 0->2 missing")
	}
}

func TestClassification(t *testing.T) {
	two := TwoLabel(label.NewSet(0), label.NewSet(1))
	if !two.IsTwoLabel() || !two.IsBipartite() {
		t.Error("two-label pattern misclassified")
	}
	star := MustNew(
		[]Node{{Labels: label.NewSet(0)}, {Labels: label.NewSet(1)}, {Labels: label.NewSet(2)}},
		[][2]int{{0, 1}, {0, 2}},
	)
	if star.IsTwoLabel() || !star.IsBipartite() {
		t.Error("star pattern misclassified")
	}
	chain := MustNew(
		[]Node{{Labels: label.NewSet(0)}, {Labels: label.NewSet(1)}, {Labels: label.NewSet(2)}},
		[][2]int{{0, 1}, {1, 2}},
	)
	if chain.IsBipartite() {
		t.Error("chain misclassified as bipartite")
	}
}

// Conjunction semantics: tau |= Conjoin(g1, g2) iff tau |= g1 and tau |= g2.
func TestConjoinSemantics(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	for trial := 0; trial < 300; trial++ {
		m := 3 + rng.Intn(4)
		w := randomWorld(rng, m, 4)
		g1 := randomPattern(rng, 1+rng.Intn(3), 4)
		g2 := randomPattern(rng, 1+rng.Intn(3), 4)
		conj := Conjoin(g1, g2)
		tau := make(rank.Ranking, m)
		for i, v := range rng.Perm(m) {
			tau[i] = rank.Item(v)
		}
		want := g1.Matches(tau, w.lab) && g2.Matches(tau, w.lab)
		if got := conj.Matches(tau, w.lab); got != want {
			t.Fatalf("trial %d: conjoin=%v, want %v", trial, got, want)
		}
	}
}

func TestUnionKeyCanonical(t *testing.T) {
	a := TwoLabel(label.NewSet(0), label.NewSet(1))
	b := TwoLabel(label.NewSet(2), label.NewSet(3))
	u1, u2 := Union{a, b}, Union{b, a}
	if u1.Key() != u2.Key() {
		t.Fatal("union key must be order-insensitive")
	}
	ua, ub := Union{a}, Union{b}
	if ua.Key() == ub.Key() {
		t.Fatal("distinct unions share a key")
	}
}

func TestMinMaxPos(t *testing.T) {
	lab := label.NewLabeling()
	lab.Add(0, 5)
	lab.Add(2, 5)
	tau := rank.Ranking{1, 0, 2}
	if got := MinPos(tau, lab, label.NewSet(5)); got != 1 {
		t.Errorf("MinPos = %d, want 1", got)
	}
	if got := MaxPos(tau, lab, label.NewSet(5)); got != 2 {
		t.Errorf("MaxPos = %d, want 2", got)
	}
	if got := MinPos(tau, lab, label.NewSet(9)); got != 3 {
		t.Errorf("MinPos(absent) = %d, want len", got)
	}
	if got := MaxPos(tau, lab, label.NewSet(9)); got != -1 {
		t.Errorf("MaxPos(absent) = %d, want -1", got)
	}
}

// Example 4.4 of the paper: the constraint relaxation of a chain pattern can
// hold while the pattern itself does not.
func TestMatchesConstraintsExample44(t *testing.T) {
	const (
		a  = rank.Item(0)
		b1 = rank.Item(1)
		b2 = rank.Item(2)
		c  = rank.Item(3)
		la = label.Label(0)
		lb = label.Label(1)
		lc = label.Label(2)
	)
	lab := label.NewLabeling()
	lab.Add(a, la)
	lab.Add(b1, lb)
	lab.Add(b2, lb)
	lab.Add(c, lc)
	chain := MustNew(
		[]Node{{Labels: label.NewSet(la)}, {Labels: label.NewSet(lb)}, {Labels: label.NewSet(lc)}},
		[][2]int{{0, 1}, {1, 2}},
	)
	// tau = <b1, a, c, b2>: satisfies all tc constraints but not the chain.
	tau := rank.Ranking{b1, a, c, b2}
	closure := chain.TransitiveClosure()
	if !closure.MatchesConstraints(tau, lab) {
		t.Fatal("constraint relaxation should hold")
	}
	if chain.Matches(tau, lab) {
		t.Fatal("chain pattern should not match")
	}
}

// Property: for bipartite patterns, constraint semantics coincides with
// embedding semantics.
func TestBipartiteConstraintEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	for trial := 0; trial < 400; trial++ {
		m := 3 + rng.Intn(4)
		w := randomWorld(rng, m, 4)
		// Build a random bipartite pattern: sources then sinks.
		nl := 1 + rng.Intn(2)
		nr := 1 + rng.Intn(2)
		nodes := make([]Node, nl+nr)
		for i := range nodes {
			nodes[i].Labels = label.NewSet(label.Label(rng.Intn(4)))
		}
		var edges [][2]int
		for i := 0; i < nl; i++ {
			for j := nl; j < nl+nr; j++ {
				if rng.Float64() < 0.6 {
					edges = append(edges, [2]int{i, j})
				}
			}
		}
		if len(edges) == 0 {
			continue
		}
		g := MustNew(nodes, edges)
		tau := make(rank.Ranking, m)
		for i, v := range rng.Perm(m) {
			tau[i] = rank.Item(v)
		}
		if g.Matches(tau, w.lab) != g.MatchesConstraints(tau, w.lab) {
			t.Fatalf("trial %d: bipartite mismatch for %v on %v", trial, g, tau)
		}
	}
}

// Property: constraint semantics of the transitive closure is an upper bound
// on embedding semantics for arbitrary patterns.
func TestConstraintsUpperBound(t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	for trial := 0; trial < 400; trial++ {
		m := 3 + rng.Intn(4)
		w := randomWorld(rng, m, 4)
		g := randomPattern(rng, 2+rng.Intn(3), 4)
		tau := make(rank.Ranking, m)
		for i, v := range rng.Perm(m) {
			tau[i] = rank.Item(v)
		}
		if g.Matches(tau, w.lab) && !g.TransitiveClosure().MatchesConstraints(tau, w.lab) {
			t.Fatalf("trial %d: match without constraint satisfaction", trial)
		}
	}
}
