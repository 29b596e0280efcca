package sampling

import (
	"probpref/internal/rank"
)

// GreedyModals implements Algorithm 5 of the paper: starting from the
// sub-ranking psi, insert every item of sigma not in psi at the positions
// that minimize the Kendall tau distance to sigma, branching on ties. The
// returned full rankings approximate the modals of the Mallows posterior
// conditioned on psi — the consistent completions closest to the center.
//
// maxModals caps the branching (0 means 64); the cap keeps the first
// candidates in deterministic insertion order.
func GreedyModals(psi rank.Ranking, sigma rank.Ranking, maxModals int) []rank.Ranking {
	if maxModals <= 0 {
		maxModals = 64
	}
	inPsi := psi.ItemSet()
	posSigma := positionsIn(sigma)
	frontier := []rank.Ranking{psi.Clone()}
	for _, x := range sigma {
		if inPsi[x] {
			continue
		}
		var next []rank.Ranking
		seen := make(map[string]bool)
		for _, cur := range frontier {
			_, argmin := minInsertDistances(cur, x, posSigma)
			for _, j := range argmin {
				cand := cur.Insert(x, j)
				k := cand.Key()
				if !seen[k] {
					seen[k] = true
					next = append(next, cand)
				}
				if len(next) >= maxModals {
					break
				}
			}
			if len(next) >= maxModals {
				break
			}
		}
		frontier = next
	}
	return frontier
}

// ApproximateDistance implements Algorithm 6 of the paper: complete psi to a
// full ranking by greedily inserting the missing items of sigma at
// distance-minimizing positions (taking the first position on ties), and
// return the Kendall tau distance of the completion to sigma. This estimates
// the distance between the sub-ranking and the Mallows center — the distance
// of the nearest modal contained in psi, whose exact computation is
// intractable.
//
// The completion grows in place in one buffer. Its distance is psi's own
// discordant pairs plus what each insertion adds: an inserted item's pairs
// with the items already in place are settled when it goes in, because no
// later insertion reorders them.
func ApproximateDistance(psi rank.Ranking, sigma rank.Ranking) int {
	posSigma := positionsIn(sigma)
	inPsi := make([]bool, len(sigma))
	d := 0
	for i, x := range psi {
		inPsi[x] = true
		for _, y := range psi[:i] {
			if posSigma[y] > posSigma[x] {
				d++
			}
		}
	}
	tau := make(rank.Ranking, len(psi), len(sigma))
	copy(tau, psi)
	for _, x := range sigma {
		if inPsi[x] {
			continue
		}
		best, j := firstMinInsert(tau, x, posSigma)
		d += best
		tau = tau[:len(tau)+1]
		copy(tau[j+1:], tau[j:])
		tau[j] = x
	}
	return d
}

// positionsIn returns sigma's position of every item, indexed by item, for
// a sigma that is a permutation of 0..m-1 (a Mallows center). The modal
// searches build it once and hand it to every minInsertDistances call — one
// per missing item per frontier entry.
func positionsIn(sigma rank.Ranking) []int {
	pos := make([]int, len(sigma))
	for p, it := range sigma {
		pos[it] = p
	}
	return pos
}

// minInsertDistances returns the minimal Kendall-tau-to-sigma distance over
// all insertion positions of x into cur, and every argmin position, given
// posSigma = positionsIn(sigma). The incremental distance of inserting at
// position j differs from inserting at j+1 by whether cur[j] and x agree
// with sigma, so a single O(k) sweep suffices.
func minInsertDistances(cur rank.Ranking, x rank.Item, posSigma []int) (int, []int) {
	px := posSigma[x]
	// delta[j] = number of disagreements x introduces when inserted at j:
	// items before it that sigma places after x, plus items after it that
	// sigma places before x.
	k := len(cur)
	// Start at j = 0: everything is after x.
	d := 0
	for _, y := range cur {
		if posSigma[y] < px {
			d++
		}
	}
	best := d
	argmin := []int{0}
	for j := 1; j <= k; j++ {
		y := cur[j-1] // item that moves from "after x" to "before x"
		if posSigma[y] < px {
			d--
		} else {
			d++
		}
		if d < best {
			best = d
			argmin = argmin[:0]
			argmin = append(argmin, j)
		} else if d == best {
			argmin = append(argmin, j)
		}
	}
	return best, argmin
}

// firstMinInsert is minInsertDistances keeping the first argmin only, the
// one Algorithm 6 inserts at: the same sweep, with no slice of ties.
func firstMinInsert(cur rank.Ranking, x rank.Item, posSigma []int) (best, at int) {
	px := posSigma[x]
	d := 0
	for _, y := range cur {
		if posSigma[y] < px {
			d++
		}
	}
	best = d
	for j, y := range cur {
		if posSigma[y] < px {
			d--
		} else {
			d++
		}
		if d < best {
			best, at = d, j+1
		}
	}
	return best, at
}
