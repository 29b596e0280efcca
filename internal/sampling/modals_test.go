package sampling

import (
	"math/rand"
	"testing"

	"probpref/internal/rank"
)

// Example 5.2 of the paper: for psi0 = <s3, s1> over sigma = <s1, s2, s3>,
// Algorithm 5 finds exactly the two modals <s3, s1, s2> and <s2, s3, s1>.
func TestGreedyModalsExample52(t *testing.T) {
	sigma := rank.Identity(3) // s1=0, s2=1, s3=2
	psi := rank.Ranking{2, 0} // <s3, s1>
	modals := GreedyModals(psi, sigma, 0)
	if len(modals) != 2 {
		t.Fatalf("got %d modals: %v, want 2", len(modals), modals)
	}
	keys := map[string]bool{}
	for _, m := range modals {
		keys[m.Key()] = true
		if !m.ConsistentWith(psi) {
			t.Fatalf("modal %v violates psi", m)
		}
	}
	if !keys["2,0,1"] || !keys["1,2,0"] {
		t.Fatalf("modals = %v, want {<2,0,1>, <1,2,0>}", modals)
	}
}

// Property: every greedy modal is a full permutation consistent with psi, and
// its distance to sigma is minimal among the frontier (no completion of psi
// found by exhaustive search is strictly closer).
func TestGreedyModalsOptimalOnSmall(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 100; trial++ {
		m := 3 + rng.Intn(3)
		sigma := make(rank.Ranking, m)
		for i, v := range rng.Perm(m) {
			sigma[i] = rank.Item(v)
		}
		// Random sub-ranking over 2..m-1 items.
		k := 2 + rng.Intn(m-1)
		if k > m {
			k = m
		}
		perm := rng.Perm(m)
		psi := make(rank.Ranking, k)
		for i := 0; i < k; i++ {
			psi[i] = rank.Item(perm[i])
		}
		modals := GreedyModals(psi, sigma, 0)
		if len(modals) == 0 {
			t.Fatal("no modals")
		}
		// Exhaustive minimum distance over all consistent completions.
		best := 1 << 30
		rank.ForEachPermutation(m, func(tau rank.Ranking) bool {
			if tau.ConsistentWith(psi) {
				if d := rank.KendallTau(tau, sigma); d < best {
					best = d
				}
			}
			return true
		})
		for _, modal := range modals {
			if !modal.IsPermutation() {
				t.Fatalf("modal %v is not a permutation", modal)
			}
			if !modal.ConsistentWith(psi) {
				t.Fatalf("modal %v inconsistent with %v", modal, psi)
			}
			d := rank.KendallTau(modal, sigma)
			// The greedy heuristic is not guaranteed optimal, but must be
			// within the frontier's own minimum; record gross violations.
			if d < best {
				t.Fatalf("modal closer than exhaustive optimum?!")
			}
		}
		// At least one modal should achieve the greedy-reachable minimum;
		// check greedy distance estimate is an upper bound of the optimum.
		if ApproximateDistance(psi, sigma) < best {
			t.Fatalf("ApproximateDistance below true optimum")
		}
	}
}

func TestApproximateDistanceExample(t *testing.T) {
	sigma := rank.Identity(3)
	psi := rank.Ranking{2, 0}
	// Best completions <2,0,1> and <1,2,0> are both at distance 2.
	if d := ApproximateDistance(psi, sigma); d != 2 {
		t.Fatalf("ApproximateDistance = %d, want 2", d)
	}
	// A consistent sub-ranking has distance equal to its own inversions.
	if d := ApproximateDistance(rank.Ranking{0, 2}, sigma); d != 0 {
		t.Fatalf("ApproximateDistance = %d, want 0", d)
	}
}

// Property: minInsertDistances agrees with brute-force recomputation.
func TestMinInsertDistances(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 200; trial++ {
		m := 3 + rng.Intn(4)
		sigma := make(rank.Ranking, m)
		for i, v := range rng.Perm(m) {
			sigma[i] = rank.Item(v)
		}
		k := 1 + rng.Intn(m-1)
		perm := rng.Perm(m)
		cur := make(rank.Ranking, k)
		for i := 0; i < k; i++ {
			cur[i] = rank.Item(perm[i])
		}
		x := rank.Item(perm[k])
		best, argmin := minInsertDistances(cur, x, positionsIn(sigma))
		wantBest := 1 << 30
		var wantArg []int
		for j := 0; j <= k; j++ {
			d := rank.KendallTauSub(cur.Insert(x, j), sigma)
			if d < wantBest {
				wantBest = d
				wantArg = []int{j}
			} else if d == wantBest {
				wantArg = append(wantArg, j)
			}
		}
		// minInsertDistances returns the delta, which differs from the
		// absolute sub-distance by the constant base; argmins must agree.
		if len(argmin) != len(wantArg) {
			t.Fatalf("trial %d: argmin %v, want %v (best=%d)", trial, argmin, wantArg, best)
		}
		for i := range argmin {
			if argmin[i] != wantArg[i] {
				t.Fatalf("trial %d: argmin %v, want %v", trial, argmin, wantArg)
			}
		}
	}
}

func TestGreedyModalsCap(t *testing.T) {
	sigma := rank.Identity(6)
	psi := rank.Ranking{5, 0}
	modals := GreedyModals(psi, sigma, 2)
	if len(modals) > 2 {
		t.Fatalf("cap exceeded: %d modals", len(modals))
	}
}

// approximateDistanceByCompletion is Algorithm 6 as it was written first, kept
// as the oracle: a fresh ranking per insertion at the first of all argmins,
// and the Kendall tau distance of the finished completion.
func approximateDistanceByCompletion(psi, sigma rank.Ranking) int {
	inPsi := psi.ItemSet()
	posSigma := positionsIn(sigma)
	tau := psi.Clone()
	for _, x := range sigma {
		if inPsi[x] {
			continue
		}
		_, argmin := minInsertDistances(tau, x, posSigma)
		tau = tau.Insert(x, argmin[0])
	}
	return rank.KendallTau(tau, sigma)
}

// The in-place sweep returns the oracle's integers for random sub-rankings,
// the empty one and whole permutations included, and firstMinInsert is the
// first of minInsertDistances' argmins at the same distance.
func TestApproximateDistanceMatchesCompletion(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	for trial := 0; trial < 500; trial++ {
		m := 1 + rng.Intn(24)
		sigma := make(rank.Ranking, m)
		for i, v := range rng.Perm(m) {
			sigma[i] = rank.Item(v)
		}
		perm := rng.Perm(m)
		psi := make(rank.Ranking, rng.Intn(m+1))
		for i := range psi {
			psi[i] = rank.Item(perm[i])
		}
		if got, want := ApproximateDistance(psi, sigma), approximateDistanceByCompletion(psi, sigma); got != want {
			t.Fatalf("trial %d: ApproximateDistance(%v, %v) = %d, completion %d", trial, psi, sigma, got, want)
		}
		if len(psi) < m {
			x := rank.Item(perm[len(psi)])
			best, at := firstMinInsert(psi, x, positionsIn(sigma))
			if wantBest, argmin := minInsertDistances(psi, x, positionsIn(sigma)); best != wantBest || at != argmin[0] {
				t.Fatalf("trial %d: firstMinInsert (%d, %d), minInsertDistances (%d, %v)", trial, best, at, wantBest, argmin)
			}
		}
	}
}
