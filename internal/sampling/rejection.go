package sampling

import (
	"math"
	"math/rand"

	"probpref/internal/label"
	"probpref/internal/pattern"
	"probpref/internal/rank"
	"probpref/internal/rim"
)

// Rejection estimates Pr(G | sigma, phi, lambda) by drawing n rankings from
// the Mallows model and counting matches. Unbiased but needs EXP(m) samples
// to resolve rare events (Section 5.1).
func Rejection(ml *rim.Mallows, lab *label.Labeling, u pattern.Union, n int, rng *rand.Rand) float64 {
	return RejectionModel(ml, lab, u, n, rng)
}

// RejectionUntil reproduces the stopping rule of the Figure 9 experiment:
// sample until the running estimate is within relTol relative error of the
// known exact probability (an optimistic stopping condition — a real run
// could not detect convergence), checking every checkEvery samples, up to
// maxN samples. It returns the estimate and the number of samples drawn.
func RejectionUntil(ml *rim.Mallows, lab *label.Labeling, u pattern.Union, truth, relTol float64, checkEvery, maxN int, rng *rand.Rand) (float64, int) {
	if checkEvery <= 0 {
		checkEvery = 1000
	}
	mt, draw := rejectionKernel(ml, lab, u)
	var tau rank.Ranking
	hits, n := 0, 0
	for n < maxN {
		for k := 0; k < checkEvery && n < maxN; k++ {
			n++
			tau = draw(rng, tau)
			if mt.Matches(tau) {
				hits++
			}
		}
		est := float64(hits) / float64(n)
		if truth > 0 && math.Abs(est-truth) <= relTol*truth {
			return est, n
		}
	}
	return float64(hits) / float64(n), n
}
