package pattern

import (
	"math/rand"
	"testing"
	"testing/quick"

	"probpref/internal/label"
	"probpref/internal/rank"
)

// Property: matching is monotone under insertion — if a ranking matches a
// pattern, any ranking obtained by inserting one more item still matches
// (relative order of existing items is preserved and candidates only grow).
// This property underpins the absorbing-accept optimization of the
// relative-order solver.
func TestMatchingMonotoneUnderInsertion(t *testing.T) {
	rng := rand.New(rand.NewSource(51))
	for trial := 0; trial < 300; trial++ {
		m := 3 + rng.Intn(4)
		w := randomWorld(rng, m+1, 4)
		g := randomPattern(rng, 1+rng.Intn(3), 4)
		tau := make(rank.Ranking, m)
		for i, v := range rng.Perm(m) {
			tau[i] = rank.Item(v)
		}
		if !g.Matches(tau, w.lab) {
			continue
		}
		ext := tau.Insert(rank.Item(m), rng.Intn(m+1))
		if !g.Matches(ext, w.lab) {
			t.Fatalf("trial %d: match lost after insertion\n g=%v\n tau=%v ext=%v",
				trial, g, tau, ext)
		}
	}
}

// Property (testing/quick): union matching equals the disjunction of member
// matching.
func TestUnionMatchesQuick(t *testing.T) {
	rng := rand.New(rand.NewSource(52))
	w := randomWorld(rng, 5, 4)
	g1 := randomPattern(rng, 2, 4)
	g2 := randomPattern(rng, 2, 4)
	u := Union{g1, g2}
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		tau := make(rank.Ranking, 5)
		for i, v := range r.Perm(5) {
			tau[i] = rank.Item(v)
		}
		return u.Matches(tau, w.lab) == (g1.Matches(tau, w.lab) || g2.Matches(tau, w.lab))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: transitive closure never changes matching semantics.
func TestClosureSemanticsInvariant(t *testing.T) {
	rng := rand.New(rand.NewSource(53))
	for trial := 0; trial < 200; trial++ {
		m := 3 + rng.Intn(4)
		w := randomWorld(rng, m, 4)
		g := randomPattern(rng, 2+rng.Intn(3), 4)
		tc := g.TransitiveClosure()
		tau := make(rank.Ranking, m)
		for i, v := range rng.Perm(m) {
			tau[i] = rank.Item(v)
		}
		if g.Matches(tau, w.lab) != tc.Matches(tau, w.lab) {
			t.Fatalf("trial %d: closure changed semantics for %v on %v", trial, g, tau)
		}
	}
}

// Property: the pattern key is a faithful identity — equal keys imply equal
// structure, and key generation is deterministic.
func TestPatternKeyDeterministic(t *testing.T) {
	rng := rand.New(rand.NewSource(54))
	for trial := 0; trial < 100; trial++ {
		g := randomPattern(rng, 1+rng.Intn(4), 4)
		if g.Key() != g.Key() {
			t.Fatal("key not deterministic")
		}
		clone := MustNew(
			append([]Node(nil), mustNodes(g)...),
			append([][2]int(nil), g.Edges()...),
		)
		if clone.Key() != g.Key() {
			t.Fatalf("clone key differs: %q vs %q", clone.Key(), g.Key())
		}
	}
}

func mustNodes(g *Pattern) []Node {
	nodes := make([]Node, g.NumNodes())
	for i := range nodes {
		nodes[i] = g.Node(i)
	}
	return nodes
}

// Property: a pattern with an unmatchable node matches nothing.
func TestUnmatchableNode(t *testing.T) {
	rng := rand.New(rand.NewSource(55))
	w := randomWorld(rng, 5, 3)
	nodes := []Node{
		{Labels: label.NewSet(9)}, // label 9 exists on no item
		{Labels: label.NewSet(0)},
	}
	g := MustNew(nodes, [][2]int{{0, 1}})
	rank.ForEachPermutation(5, func(tau rank.Ranking) bool {
		if g.Matches(tau, w.lab) {
			t.Fatalf("pattern with unmatchable node matched %v", tau)
		}
		return true
	})
}

// refMatches is the uncompiled union test as it ran before CompileMatcher:
// per pattern, the greedy earliest embedding with every membership question
// put to the labeling (a map lookup and a sorted-set merge per position).
// The compiled matcher must answer as it does.
func refMatches(u Union, tau rank.Ranking, lab *label.Labeling) bool {
	for _, p := range u {
		pos := make([]int, len(p.nodes))
		ok := true
		for _, v := range p.topo {
			lowest := 0
			for _, w := range p.preds[v] {
				if pos[w]+1 > lowest {
					lowest = pos[w] + 1
				}
			}
			found := -1
			for q := lowest; q < len(tau); q++ {
				if lab.HasAll(tau[q], p.nodes[v].Labels) {
					found = q
					break
				}
			}
			if found < 0 {
				ok = false
				break
			}
			pos[v] = found
		}
		if ok {
			return true
		}
	}
	return false
}

// Property: a compiled Matcher, and the one-shot wrappers over it, answer
// every ranking as the uncompiled test did — on unions of small random
// patterns, on patterns wider than the matcher's 16-node stack buffer, with
// labels no item carries (numLabels above the world's) and empty label sets,
// over full rankings and sub-rankings.
func TestMatcherAgreesWithUncompiled(t *testing.T) {
	rng := rand.New(rand.NewSource(56))
	matched, wide := 0, 0
	for trial := 0; trial < 600; trial++ {
		m := 3 + rng.Intn(10)
		w := randomWorld(rng, m, 4)
		u := make(Union, 1+rng.Intn(3))
		for i := range u {
			q := 1 + rng.Intn(4)
			if trial%6 == 0 {
				q = 17 + rng.Intn(4)
			}
			// Two labels beyond the world's four: carried by no item.
			u[i] = randomPattern(rng, q, 4+2*(trial%2))
		}
		if trial%10 == 0 {
			u = append(u, MustNew([]Node{{}, {Labels: label.NewSet(1)}}, [][2]int{{0, 1}}))
		}
		if u.MaxNodes() > 16 {
			wide++
		}
		mt := CompileMatcher(u, w.lab, m)
		for draw := 0; draw < 20; draw++ {
			tau := make(rank.Ranking, m)
			for i, v := range rng.Perm(m) {
				tau[i] = rank.Item(v)
			}
			tau = tau[:1+rng.Intn(m)] // sub-rankings too
			want := refMatches(u, tau, w.lab)
			if want {
				matched++
			}
			if got := mt.Matches(tau); got != want {
				t.Fatalf("trial %d: Matcher.Matches(%v) = %v, uncompiled %v\n union %v", trial, tau, got, want, u)
			}
			if got := u.Matches(tau, w.lab); got != want {
				t.Fatalf("trial %d: Union.Matches(%v) = %v, uncompiled %v\n union %v", trial, tau, got, want, u)
			}
			if got, want := u[0].Matches(tau, w.lab), refMatches(u[:1], tau, w.lab); got != want {
				t.Fatalf("trial %d: Pattern.Matches(%v) = %v, uncompiled %v\n pattern %v", trial, tau, got, want, u[0])
			}
		}
	}
	if matched < 1000 || wide < 50 {
		t.Fatalf("weak coverage: %d matching rankings, %d unions wider than 16 nodes", matched, wide)
	}
}

// A compiled matcher never indexes past the universe it was compiled for:
// an item it has not seen matches nothing.
func TestMatcherItemOutOfRange(t *testing.T) {
	lab := label.NewLabeling()
	lab.Add(0, 0)
	lab.Add(5, 0)
	mt := CompileMatcher(Union{MustNew([]Node{{Labels: label.NewSet(0)}}, nil)}, lab, 3)
	if !mt.Matches(rank.Ranking{2, 0}) {
		t.Fatal("item 0 carries the label")
	}
	if mt.Matches(rank.Ranking{5, 2, -1}) {
		t.Fatal("items outside 0..2 must match nothing")
	}
}
