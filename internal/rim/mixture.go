package rim

import (
	"fmt"
	"math"
	"math/rand"

	"probpref/internal/rank"
)

// Mixture is a finite mixture of Mallows models — the model class the paper
// mines from the MovieLens and CrowdRank rating data [26]. Component c is
// drawn with probability Weights[c], then a ranking is drawn from
// Components[c].
type Mixture struct {
	Components []*Mallows
	Weights    []float64
}

// NewMixture validates and constructs a mixture. Weights must be
// non-negative and sum to 1 (within tolerance); all components must rank
// the same number of items.
func NewMixture(components []*Mallows, weights []float64) (*Mixture, error) {
	if len(components) == 0 {
		return nil, fmt.Errorf("rim: mixture needs at least one component")
	}
	if len(weights) != len(components) {
		return nil, fmt.Errorf("rim: %d weights for %d components", len(weights), len(components))
	}
	m := components[0].M()
	sum := 0.0
	for i, w := range weights {
		if w < 0 || math.IsNaN(w) {
			return nil, fmt.Errorf("rim: weight %d = %v is invalid", i, w)
		}
		sum += w
		if components[i].M() != m {
			return nil, fmt.Errorf("rim: component %d ranks %d items, component 0 ranks %d",
				i, components[i].M(), m)
		}
	}
	if math.Abs(sum-1) > 1e-9 {
		return nil, fmt.Errorf("rim: weights sum to %v, want 1", sum)
	}
	return &Mixture{Components: components, Weights: weights}, nil
}

// UniformMixture builds a mixture with equal weights.
func UniformMixture(components ...*Mallows) (*Mixture, error) {
	w := make([]float64, len(components))
	for i := range w {
		w[i] = 1 / float64(len(components))
	}
	return NewMixture(components, w)
}

// M returns the number of items.
func (mx *Mixture) M() int { return mx.Components[0].M() }

// K returns the number of components.
func (mx *Mixture) K() int { return len(mx.Components) }

// Sample draws a component, then a ranking from it.
func (mx *Mixture) Sample(rng *rand.Rand) rank.Ranking { return mx.SampleInto(rng, nil) }

// SampleInto is Sample drawing the ranking into buf.
func (mx *Mixture) SampleInto(rng *rand.Rand, buf rank.Ranking) rank.Ranking {
	return mx.Components[mx.SampleComponent(rng)].SampleInto(rng, buf)
}

// SampleComponent draws a component index according to the weights.
func (mx *Mixture) SampleComponent(rng *rand.Rand) int {
	u := rng.Float64()
	acc := 0.0
	for c, w := range mx.Weights {
		acc += w
		if u < acc {
			return c
		}
	}
	return len(mx.Weights) - 1
}

// Prob returns the mixture probability of tau.
func (mx *Mixture) Prob(tau rank.Ranking) float64 {
	p := 0.0
	for c, ml := range mx.Components {
		p += mx.Weights[c] * ml.Prob(tau)
	}
	return p
}

// LogProb returns log Prob(tau) stably.
func (mx *Mixture) LogProb(tau rank.Ranking) float64 {
	max := math.Inf(-1)
	logs := make([]float64, len(mx.Components))
	for c, ml := range mx.Components {
		lp := ml.LogProb(tau)
		if mx.Weights[c] > 0 {
			lp += math.Log(mx.Weights[c])
		} else {
			lp = math.Inf(-1)
		}
		logs[c] = lp
		if lp > max {
			max = lp
		}
	}
	if math.IsInf(max, -1) {
		return max
	}
	sum := 0.0
	for _, lp := range logs {
		if !math.IsInf(lp, -1) {
			sum += math.Exp(lp - max)
		}
	}
	return max + math.Log(sum)
}

// Posterior returns the posterior distribution over components given an
// observed ranking (responsibilities), used when assigning sessions to
// components as the mixture-mining pipelines of [26] do.
func (mx *Mixture) Posterior(tau rank.Ranking) []float64 {
	post := make([]float64, len(mx.Components))
	total := 0.0
	for c, ml := range mx.Components {
		post[c] = mx.Weights[c] * ml.Prob(tau)
		total += post[c]
	}
	if total > 0 {
		for c := range post {
			post[c] /= total
		}
	}
	return post
}
