package pattern

import (
	"math/rand"
	"strings"
	"testing"

	"probpref/internal/label"
	"probpref/internal/rank"
)

func twoLabelUnionFixture() (Union, *label.Labeling) {
	lab := label.NewLabeling()
	lab.Add(0, 0)
	lab.Add(1, 1)
	lab.Add(2, 2)
	u := Union{
		TwoLabel(label.NewSet(0), label.NewSet(1)),
		TwoLabel(label.NewSet(2), label.NewSet(0)),
	}
	return u, lab
}

func TestMergeDeduplicates(t *testing.T) {
	u1, _ := twoLabelUnionFixture()
	u2 := Union{u1[0], TwoLabel(label.NewSet(1), label.NewSet(2))}
	merged := Merge(u1, u2)
	if len(merged) != 3 {
		t.Fatalf("merged has %d patterns, want 3", len(merged))
	}
	// First-seen order preserved.
	if merged[0].Key() != u1[0].Key() || merged[2].Key() != u2[1].Key() {
		t.Fatal("merge did not preserve first-seen order")
	}
	if got := Merge(); len(got) != 0 {
		t.Fatalf("Merge() = %v, want empty", got)
	}
	if got := Merge(u1, u1, u1); len(got) != len(u1) {
		t.Fatalf("self-merge has %d patterns, want %d", len(got), len(u1))
	}
}

func TestMergeSemantics(t *testing.T) {
	u1, lab := twoLabelUnionFixture()
	u2 := Union{u1[1], TwoLabel(label.NewSet(1), label.NewSet(2))}
	merged := Merge(u1, u2)
	rank.ForEachPermutation(3, func(tau rank.Ranking) bool {
		want := u1.Matches(tau, lab) || u2.Matches(tau, lab)
		if got := merged.Matches(tau, lab); got != want {
			t.Fatalf("tau=%v: merged=%v, disjunction=%v", tau, got, want)
		}
		return true
	})
}

func TestUnionMaxNodes(t *testing.T) {
	u, _ := twoLabelUnionFixture()
	if got := u.MaxNodes(); got != 2 {
		t.Fatalf("MaxNodes = %d, want 2", got)
	}
	big := MustNew([]Node{
		{Labels: label.NewSet(0)},
		{Labels: label.NewSet(1)},
		{Labels: label.NewSet(2)},
	}, [][2]int{{0, 1}, {0, 2}})
	if got := append(u, big).MaxNodes(); got != 3 {
		t.Fatalf("MaxNodes = %d, want 3", got)
	}
	if got := (Union{}).MaxNodes(); got != 0 {
		t.Fatalf("empty MaxNodes = %d, want 0", got)
	}
}

func TestUnionClassification(t *testing.T) {
	u, _ := twoLabelUnionFixture()
	if !u.AllTwoLabel() || !u.AllBipartite() {
		t.Fatal("two-label union misclassified")
	}
	chain := MustNew([]Node{
		{Labels: label.NewSet(0)},
		{Labels: label.NewSet(1)},
		{Labels: label.NewSet(2)},
	}, [][2]int{{0, 1}, {1, 2}})
	mixed := append(u, chain)
	if mixed.AllTwoLabel() {
		t.Fatal("chain counted as two-label")
	}
	if mixed.AllBipartite() {
		t.Fatal("chain counted as bipartite")
	}
}

func TestPatternString(t *testing.T) {
	u, _ := twoLabelUnionFixture()
	s := u[0].String()
	for _, want := range []string{"pattern{", "0>1"} {
		if !strings.Contains(s, want) {
			t.Errorf("String() = %q missing %q", s, want)
		}
	}
}

func TestUnionMatchesConstraints(t *testing.T) {
	// Constraint semantics on a union: satisfied when any member's min/max
	// relaxation holds.
	lab := label.NewLabeling()
	lab.Add(0, 0)
	lab.Add(1, 1)
	lab.Add(2, 2)
	u := Union{
		TwoLabel(label.NewSet(0), label.NewSet(1)), // alpha(0) < beta(1)
		TwoLabel(label.NewSet(2), label.NewSet(1)), // alpha(2) < beta(1)
	}
	rank.ForEachPermutation(3, func(tau rank.Ranking) bool {
		want := tau.Prefers(0, 1) || tau.Prefers(2, 1)
		if got := u.MatchesConstraints(tau, lab); got != want {
			t.Fatalf("tau=%v: constraints=%v, want %v", tau, got, want)
		}
		return true
	})
	// For two-label singleton patterns, constraint semantics coincide with
	// matching semantics.
	rank.ForEachPermutation(3, func(tau rank.Ranking) bool {
		if u.MatchesConstraints(tau, lab) != u.Matches(tau, lab) {
			t.Fatalf("tau=%v: constraint and match semantics diverge on singleton two-label", tau)
		}
		return true
	})
}

func TestMustNewPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("MustNew did not panic on a cyclic pattern")
		}
	}()
	MustNew([]Node{{Labels: label.NewSet(0)}, {Labels: label.NewSet(1)}},
		[][2]int{{0, 1}, {1, 0}})
}

// Prefix stops at the last item of the reference that a node of a
// matchable member takes, and Matches gives the same answer on a ranking
// and on the relative order of its items in that prefix. A member with a
// node no item takes adds nothing to the prefix and never matches; a
// member with no nodes needs no item and matches every ranking.
func TestMatcherPrefix(t *testing.T) {
	rng := rand.New(rand.NewSource(44))
	for trial := 0; trial < 400; trial++ {
		m := 1 + rng.Intn(12)
		w := randomWorld(rng, m, 6)
		var u Union
		for n := 1 + rng.Intn(3); n > 0; n-- {
			u = append(u, randomPattern(rng, 1+rng.Intn(3), 6))
		}
		mt := CompileMatcher(u, w.lab, m)
		ref := make(rank.Ranking, m)
		for i, v := range rng.Perm(m) {
			ref[i] = rank.Item(v)
		}
		want := 0
		for i, x := range ref {
			for _, g := range u {
				if !allNodesTakeSome(g, w.lab, m) {
					continue
				}
				for _, n := range g.nodes {
					if w.lab.HasAll(x, n.Labels) {
						want = i + 1
					}
				}
			}
		}
		k := mt.Prefix(ref)
		if k != want {
			t.Fatalf("trial %d: Prefix = %d, want %d (union %v)", trial, k, want, u)
		}
		for draw := 0; draw < 10; draw++ {
			tau := make(rank.Ranking, m)
			for i, v := range rng.Perm(m) {
				tau[i] = rank.Item(v)
			}
			var head rank.Ranking
			for _, x := range tau {
				for _, y := range ref[:k] {
					if x == y {
						head = append(head, x)
					}
				}
			}
			matches := false
			for _, g := range u {
				matches = matches || matchByEnumeration(g, tau, w.lab)
			}
			if full, part := mt.Matches(tau), mt.Matches(head); full != matches || part != matches {
				t.Fatalf("trial %d: Matches %v on %v, %v on its prefix %v, enumeration %v", trial, full, tau, part, head, matches)
			}
		}
	}

	lab := label.NewLabeling()
	lab.Add(0, 0)
	lab.Add(1, 1)
	ref := rank.Ranking{1, 0, 2}
	dead := CompileMatcher(Union{TwoLabel(label.NewSet(0), label.NewSet(5))}, lab, 3)
	if k := dead.Prefix(ref); k != 0 || dead.Matches(rank.Ranking{0, 1, 2}) {
		t.Errorf("unmatchable node: Prefix %d, matches %v", k, dead.Matches(rank.Ranking{0, 1, 2}))
	}
	empty := CompileMatcher(Union{MustNew(nil, nil)}, lab, 3)
	if k := empty.Prefix(ref); k != 0 || !empty.Matches(nil) || !empty.Matches(ref) {
		t.Errorf("empty pattern: Prefix %d, matches %v, %v", k, empty.Matches(nil), empty.Matches(ref))
	}
}

// allNodesTakeSome reports whether every node of g has an item among
// 0..m-1 that carries its labels.
func allNodesTakeSome(g *Pattern, lab *label.Labeling, m int) bool {
	for _, n := range g.nodes {
		if len(lab.ItemsWith(n.Labels, m)) == 0 {
			return false
		}
	}
	return true
}
