package sampling

import (
	"context"
	"math"
	"math/rand"

	"probpref/internal/label"
	"probpref/internal/pattern"
	"probpref/internal/rank"
	"probpref/internal/rim"
)

// RejectionModel estimates the pattern-union probability Pr(G) for any
// ranking model by drawing n rankings and counting matches. It is the only
// generally applicable estimator for models that are not RIMs (e.g.
// Plackett-Luce); for Mallows models prefer the MIS-AMP estimators, which
// resolve rare events with far fewer samples.
func RejectionModel(mdl rim.Sampler, lab *label.Labeling, u pattern.Union, n int, rng *rand.Rand) float64 {
	est, _, _ := RejectionModelCICtx(context.Background(), mdl, lab, u, n, 1.96, rng)
	return est
}

// RejectionModelCI estimates Pr(G) as RejectionModel does and returns the
// half-width of the normal-approximation confidence interval at the given
// z-score (z = 1.96 for 95%). The half-width is conservative (Wald interval
// with a half-count continuity floor) so callers can report uncertainty next
// to the point estimate.
func RejectionModelCI(mdl rim.Sampler, lab *label.Labeling, u pattern.Union, n int, z float64, rng *rand.Rand) (est, halfWidth float64) {
	est, halfWidth, _ = RejectionModelCICtx(context.Background(), mdl, lab, u, n, z, rng)
	return est, halfWidth
}

// RejectionModelCICtx is RejectionModelCI with mid-run cancellation: the
// sampling loop checks ctx periodically and returns ctx's error with the
// partial estimate over the samples drawn so far. On success err is nil and
// the estimate covers all n samples.
func RejectionModelCICtx(ctx context.Context, mdl rim.Sampler, lab *label.Labeling, u pattern.Union, n int, z float64, rng *rand.Rand) (est, halfWidth float64, err error) {
	if n <= 0 {
		return 0, 1, nil
	}
	done := ctx.Done()
	// The draw kernel: the union compiled once, one ranking buffer, and a
	// loop that allocates nothing.
	mt, draw := rejectionKernel(mdl, lab, u)
	var tau rank.Ranking
	hits, drawn := 0, 0
	for i := 0; i < n; i++ {
		if done != nil && i&255 == 0 {
			if cerr := ctx.Err(); cerr != nil {
				err = context.Cause(ctx)
				break
			}
		}
		drawn++
		tau = draw(rng, tau)
		if mt.Matches(tau) {
			hits++
		}
	}
	if drawn == 0 {
		return 0, 1, err
	}
	est = float64(hits) / float64(drawn)
	p := est
	if hits == 0 || hits == drawn {
		p = (float64(hits) + 0.5) / (float64(drawn) + 1) // continuity floor
	}
	halfWidth = z * math.Sqrt(p*(1-p)/float64(drawn))
	return est, halfWidth, err
}

// rejectionKernel compiles u for a rejection loop over mdl and returns the
// draw the loop tests against it: a RIM-family model draws only the prefix
// of its reference ranking the matcher reads (rim.PrefixSampler), any other
// model a whole ranking. Both read the random stream as a whole draw does,
// so the hits of a seed are the same either way.
func rejectionKernel(mdl rim.Sampler, lab *label.Labeling, u pattern.Union) (*pattern.Matcher, func(*rand.Rand, rank.Ranking) rank.Ranking) {
	mt := pattern.CompileMatcher(u, lab, mdl.M())
	ps, ok := mdl.(rim.PrefixSampler)
	if !ok {
		return mt, mdl.SampleInto
	}
	k := mt.Prefix(ps.Reference())
	return mt, func(rng *rand.Rand, buf rank.Ranking) rank.Ranking {
		return ps.SamplePrefixInto(rng, buf, k)
	}
}
