package rank

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
)

func TestIdentity(t *testing.T) {
	r := Identity(4)
	want := Ranking{0, 1, 2, 3}
	if !r.Equal(want) {
		t.Fatalf("Identity(4) = %v, want %v", r, want)
	}
	if !r.IsPermutation() {
		t.Fatal("identity should be a permutation")
	}
}

func TestPositionAndPrefers(t *testing.T) {
	r := Ranking{2, 0, 3, 1}
	if got := r.Position(3); got != 2 {
		t.Errorf("Position(3) = %d, want 2", got)
	}
	if got := r.Position(9); got != -1 {
		t.Errorf("Position(9) = %d, want -1", got)
	}
	if !r.Prefers(2, 1) {
		t.Error("2 should be preferred to 1")
	}
	if r.Prefers(1, 2) {
		t.Error("1 should not be preferred to 2")
	}
	if r.Prefers(2, 9) {
		t.Error("Prefers with unranked item should be false")
	}
}

func TestInsert(t *testing.T) {
	r := Ranking{0, 1}
	cases := []struct {
		j    int
		want Ranking
	}{
		{0, Ranking{5, 0, 1}},
		{1, Ranking{0, 5, 1}},
		{2, Ranking{0, 1, 5}},
	}
	for _, c := range cases {
		got := r.Insert(5, c.j)
		if !got.Equal(c.want) {
			t.Errorf("Insert(5,%d) = %v, want %v", c.j, got, c.want)
		}
	}
	if !r.Equal(Ranking{0, 1}) {
		t.Error("Insert must not modify the receiver")
	}
}

func TestInsertPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for out-of-range insert")
		}
	}()
	Ranking{0}.Insert(1, 5)
}

func TestRemoveRestrict(t *testing.T) {
	r := Ranking{3, 1, 4, 0}
	if got := r.Remove(4); !got.Equal(Ranking{3, 1, 0}) {
		t.Errorf("Remove(4) = %v", got)
	}
	if got := r.Remove(9); !got.Equal(r) {
		t.Errorf("Remove(absent) = %v", got)
	}
	sub := r.Restrict(map[Item]bool{1: true, 0: true})
	if !sub.Equal(Ranking{1, 0}) {
		t.Errorf("Restrict = %v", sub)
	}
}

func TestConsistentWith(t *testing.T) {
	tau := Ranking{2, 0, 3, 1}
	if !tau.ConsistentWith(Ranking{2, 3, 1}) {
		t.Error("tau should be consistent with <2,3,1>")
	}
	if tau.ConsistentWith(Ranking{1, 3}) {
		t.Error("tau should not be consistent with <1,3>")
	}
	// Items absent from tau are skipped.
	if !tau.ConsistentWith(Ranking{2, 9, 1}) {
		t.Error("unranked items must be ignored")
	}
}

func TestKendallTauBasics(t *testing.T) {
	a := Ranking{0, 1, 2, 3}
	if d := KendallTau(a, a); d != 0 {
		t.Errorf("d(a,a) = %d, want 0", d)
	}
	rev := Ranking{3, 2, 1, 0}
	if d := KendallTau(a, rev); d != 6 {
		t.Errorf("d(a,rev) = %d, want 6", d)
	}
	b := Ranking{1, 0, 2, 3}
	if d := KendallTau(a, b); d != 1 {
		t.Errorf("d = %d, want 1", d)
	}
}

func TestKendallTauSub(t *testing.T) {
	sigma := Ranking{0, 1, 2, 3, 4}
	psi := Ranking{3, 1}
	if d := KendallTauSub(psi, sigma); d != 1 {
		t.Errorf("d = %d, want 1", d)
	}
	if d := KendallTauSub(Ranking{1, 3}, sigma); d != 0 {
		t.Errorf("d = %d, want 0", d)
	}
}

// Property: Kendall tau is a metric (symmetry, identity, triangle
// inequality) on random permutations.
func TestKendallTauMetricProperties(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	randPerm := func(m int) Ranking {
		p := rng.Perm(m)
		r := make(Ranking, m)
		for i, v := range p {
			r[i] = Item(v)
		}
		return r
	}
	for trial := 0; trial < 200; trial++ {
		m := 2 + rng.Intn(7)
		a, b, c := randPerm(m), randPerm(m), randPerm(m)
		dab, dba := KendallTau(a, b), KendallTau(b, a)
		if dab != dba {
			t.Fatalf("symmetry violated: %d vs %d", dab, dba)
		}
		if (dab == 0) != a.Equal(b) {
			t.Fatalf("identity of indiscernibles violated for %v %v", a, b)
		}
		if KendallTau(a, c) > dab+KendallTau(b, c) {
			t.Fatalf("triangle inequality violated")
		}
		max := m * (m - 1) / 2
		if dab < 0 || dab > max {
			t.Fatalf("distance %d out of range [0,%d]", dab, max)
		}
	}
}

// Property: inversion counting agrees with the quadratic definition.
func TestCountInversionsQuick(t *testing.T) {
	f := func(raw []int8) bool {
		if len(raw) > 40 {
			raw = raw[:40]
		}
		seq := make([]int, len(raw))
		for i, v := range raw {
			seq[i] = int(v)
		}
		naive := 0
		for i := 0; i < len(seq); i++ {
			for j := i + 1; j < len(seq); j++ {
				if seq[i] > seq[j] {
					naive++
				}
			}
		}
		return countInversions(seq) == naive
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestForEachPermutation(t *testing.T) {
	for m := 0; m <= 5; m++ {
		seen := make(map[string]bool)
		count := 0
		ForEachPermutation(m, func(r Ranking) bool {
			if !r.IsPermutation() {
				t.Fatalf("not a permutation: %v", r)
			}
			seen[r.Key()] = true
			count++
			return true
		})
		if m == 0 {
			continue
		}
		if want := Factorial(m); count != want || len(seen) != want {
			t.Fatalf("m=%d: %d perms (%d distinct), want %d", m, count, len(seen), want)
		}
	}
}

func TestForEachPermutationEarlyStop(t *testing.T) {
	count := 0
	ForEachPermutation(4, func(Ranking) bool {
		count++
		return count < 3
	})
	if count != 3 {
		t.Fatalf("early stop after %d calls, want 3", count)
	}
}

func TestBinomial(t *testing.T) {
	cases := [][3]int{{5, 2, 10}, {10, 0, 1}, {10, 10, 1}, {10, 3, 120}, {4, 5, 0}}
	for _, c := range cases {
		if got := Binomial(c[0], c[1]); got != c[2] {
			t.Errorf("C(%d,%d) = %d, want %d", c[0], c[1], got, c[2])
		}
	}
}

func TestRankingKeyString(t *testing.T) {
	r := Ranking{2, 0, 1}
	if r.Key() != "2,0,1" {
		t.Errorf("Key = %q", r.Key())
	}
	if r.String() != "<2, 0, 1>" {
		t.Errorf("String = %q", r.String())
	}
	// Key strings are cache keys and String is printed into goldens: both
	// stay byte for byte what fmt's %d made of them, on any ranking —
	// empty, long, multi-digit and (never produced, still formatted)
	// negative items included.
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 200; trial++ {
		r := make(Ranking, rng.Intn(40))
		for i := range r {
			r[i] = Item(rng.Intn(3000) - 5)
		}
		var key, str strings.Builder
		str.WriteByte('<')
		for i, it := range r {
			if i > 0 {
				key.WriteByte(',')
				str.WriteString(", ")
			}
			fmt.Fprintf(&key, "%d", int(it))
			fmt.Fprintf(&str, "%d", int(it))
		}
		str.WriteByte('>')
		if r.Key() != key.String() || r.String() != str.String() {
			t.Fatalf("ranking %v: Key %q String %q, fmt gives %q and %q", []Item(r), r.Key(), r.String(), key.String(), str.String())
		}
	}
}
