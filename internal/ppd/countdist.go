package ppd

import (
	"fmt"
	"math"
)

// CountDistribution is the exact distribution of the Count-Session query
// count(Q) under possible-world semantics: sessions satisfy Q independently,
// each with its own probability, so the number of satisfying sessions
// follows a Poisson-binomial distribution. The paper evaluates count(Q) as
// the expectation (Section 3.2); the full distribution extends that answer
// with variance, tails and quantiles at negligible extra cost.
type CountDistribution struct {
	// PMF[k] = Pr(exactly k sessions satisfy Q), k in [0, N].
	PMF []float64
	// Probs holds the per-session satisfaction probabilities (including the
	// structurally-zero sessions whose grounded union is empty).
	Probs []float64
}

// NewCountDistribution builds the Poisson-binomial distribution of the
// number of successes among independent trials with the given
// probabilities. O(n^2) convolution.
func NewCountDistribution(probs []float64) (*CountDistribution, error) {
	pmf := make([]float64, 1, len(probs)+1)
	pmf[0] = 1
	for i, p := range probs {
		if p < 0 || p > 1 || math.IsNaN(p) {
			return nil, fmt.Errorf("ppd: session probability %d = %v out of [0,1]", i, p)
		}
		pmf = append(pmf, 0)
		for k := len(pmf) - 1; k >= 1; k-- {
			pmf[k] = pmf[k]*(1-p) + pmf[k-1]*p
		}
		pmf[0] *= 1 - p
	}
	return &CountDistribution{PMF: pmf, Probs: append([]float64(nil), probs...)}, nil
}

// N returns the number of sessions (trials).
func (d *CountDistribution) N() int { return len(d.PMF) - 1 }

// Mean returns E[count(Q)] — the paper's Count-Session answer.
func (d *CountDistribution) Mean() float64 {
	e := 0.0
	for _, p := range d.Probs {
		e += p
	}
	return e
}

// Variance returns Var[count(Q)] = sum_i p_i (1 - p_i).
func (d *CountDistribution) Variance() float64 {
	v := 0.0
	for _, p := range d.Probs {
		v += p * (1 - p)
	}
	return v
}

// StdDev returns the standard deviation of count(Q).
func (d *CountDistribution) StdDev() float64 { return math.Sqrt(d.Variance()) }

// CDF returns Pr(count(Q) <= k). k below 0 gives 0; k at or above N gives 1.
func (d *CountDistribution) CDF(k int) float64 {
	if k < 0 {
		return 0
	}
	if k >= d.N() {
		return 1
	}
	c := 0.0
	for i := 0; i <= k; i++ {
		c += d.PMF[i]
	}
	if c > 1 {
		c = 1
	}
	return c
}

// Tail returns Pr(count(Q) >= k).
func (d *CountDistribution) Tail(k int) float64 {
	if k <= 0 {
		return 1
	}
	return 1 - d.CDF(k-1)
}

// Quantile returns the smallest k with CDF(k) >= alpha. alpha outside (0, 1]
// is clamped.
func (d *CountDistribution) Quantile(alpha float64) int {
	if alpha <= 0 {
		return 0
	}
	if alpha > 1 {
		alpha = 1
	}
	c := 0.0
	for k, p := range d.PMF {
		c += p
		if c >= alpha-1e-12 {
			return k
		}
	}
	return d.N()
}

// Mode returns the most probable count, breaking ties toward the smaller
// count.
func (d *CountDistribution) Mode() int {
	best, bestP := 0, -1.0
	for k, p := range d.PMF {
		if p > bestP {
			best, bestP = k, p
		}
	}
	return best
}
