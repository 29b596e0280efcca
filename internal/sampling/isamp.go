package sampling

import (
	"context"
	"math"
	"math/rand"
	"sort"

	"probpref/internal/rank"
	"probpref/internal/rim"
)

// ISAMP estimates E[1(tau |= psi)] for a single sub-ranking psi over
// MAL(sigma, phi) by importance sampling with one AMP proposal centered at
// sigma (Section 5.3): samples always satisfy psi and are re-weighted by
// p(x)/q(x). Unbiased, but inefficient when the posterior is multi-modal
// (Example 5.1).
func ISAMP(ml *rim.Mallows, psi rank.Ranking, n int, rng *rand.Rand) (float64, error) {
	amp, err := rim.NewAMP(ml.Sigma, ml.Phi, rank.ChainOrder(psi))
	if err != nil {
		return 0, err
	}
	sc := rim.NewScratch(ml.M())
	sum := 0.0
	for i := 0; i < n; i++ {
		_, logq := amp.SampleInto(rng, sc)
		sum += math.Exp(ml.LogProbIndexed(sc) - logq)
	}
	return sum / float64(n), nil
}

// MISAMP estimates E[1(tau |= psi)] for a single sub-ranking by multiple
// importance sampling (Section 5.4): AMP proposals are centered at the
// greedy modals of the posterior (Algorithm 5), n samples are drawn from
// each, and weights follow the balance heuristic (Equation 6). d caps the
// number of modals used (0 means all found, up to 64).
func MISAMP(ml *rim.Mallows, psi rank.Ranking, d, n int, rng *rand.Rand) (float64, error) {
	modals := GreedyModals(psi, ml.Sigma, 64)
	if d > 0 && d < len(modals) {
		// Keep the d modals closest to sigma.
		sort.SliceStable(modals, func(i, j int) bool {
			return rank.KendallTau(modals[i], ml.Sigma) < rank.KendallTau(modals[j], ml.Sigma)
		})
		modals = modals[:d]
	}
	cons := rank.ChainOrder(psi)
	amps := make([]*rim.AMP, len(modals))
	for t, r := range modals {
		a, err := rim.NewAMP(r, ml.Phi, cons)
		if err != nil {
			return 0, err
		}
		amps[t] = a
	}
	return misEstimate(ml, amps, n, rng), nil
}

// misEstimate draws n samples from each proposal and applies the balance
// heuristic with equal sample counts (Equation 6):
//
//	E(f) = 1/(d*n) * sum_{t,j} p(x_tj) / ((1/d) * sum_t' q_t'(x_tj))
//
// with f == 1 because every proposal sample satisfies its conditioning
// sub-ranking and hence the target event.
func misEstimate(ml *rim.Mallows, amps []*rim.AMP, n int, rng *rand.Rand) float64 {
	est, _, _, _ := misEstimateCI(context.Background(), ml, amps, n, 0, rng)
	return est
}

// misEstimateCI is misEstimate with a stratified normal-approximation
// confidence interval and mid-run cancellation. The proposals are the
// strata: with per-proposal sample variances s_t^2 the estimator's variance
// is (1/d^2) * sum_t s_t^2 / n_t, and the half-width is z times its square
// root. When ctx is cancelled mid-run it returns the estimate over the
// samples drawn so far together with ctx's error; drawn reports the total
// number of samples used.
func misEstimateCI(ctx context.Context, ml *rim.Mallows, amps []*rim.AMP, n int, z float64, rng *rand.Rand) (est, halfWidth float64, drawn int, err error) {
	d := len(amps)
	if d == 0 || n <= 0 {
		return 0, 0, 0, nil
	}
	logD := math.Log(float64(d))
	logqs := make([]float64, d)
	// The weigh kernel: each sample is drawn into sc, which leaves it
	// indexed by position once; the other proposals' densities and the
	// target's Kendall tau distance are all read off that index, in sc's
	// memory. The drawing proposal's density is the one its draw returned:
	// the same sum over the same insertions as LogDensityIndexed's.
	sc := rim.NewScratch(ml.M())
	done := ctx.Done()
	var variance float64
	sumMeans := 0.0
	strata := 0
sampling:
	for ai, a := range amps {
		// Welford's online mean/M2 per stratum.
		mean, m2 := 0.0, 0.0
		nt := 0
		for j := 0; j < n; j++ {
			if done != nil && drawn&127 == 0 {
				if cerr := ctx.Err(); cerr != nil {
					err = context.Cause(ctx)
					if nt > 0 {
						sumMeans += mean
						if nt > 1 {
							variance += m2 / float64(nt-1) / float64(nt)
						}
						strata++
					}
					break sampling
				}
			}
			_, logqs[ai] = a.SampleInto(rng, sc)
			for t, other := range amps {
				if t != ai {
					logqs[t], _ = other.LogDensityIndexed(sc) // -Inf where unreachable
				}
			}
			logMix := logSumExp(logqs) - logD
			w := math.Exp(ml.LogProbIndexed(sc) - logMix)
			nt++
			drawn++
			delta := w - mean
			mean += delta / float64(nt)
			m2 += delta * (w - mean)
		}
		if nt > 0 {
			sumMeans += mean
			if nt > 1 {
				variance += m2 / float64(nt-1) / float64(nt)
			}
			strata++
		}
	}
	if strata == 0 {
		return 0, 0, 0, err
	}
	est = sumMeans / float64(strata)
	if z > 0 {
		halfWidth = z * math.Sqrt(variance) / float64(strata)
	}
	return est, halfWidth, drawn, err
}
