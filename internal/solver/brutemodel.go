package solver

import (
	"probpref/internal/label"
	"probpref/internal/pattern"
	"probpref/internal/rank"
	"probpref/internal/rim"
)

// BruteModel computes the exact pattern-union probability for any ranking
// model by enumerating every ranking of the universe and summing the
// probabilities of the matching ones. O(m! * m^2): ground truth for models
// outside the RIM family (e.g. Plackett-Luce) on tiny universes (m <= 8).
func BruteModel(mdl rim.Sampler, lab *label.Labeling, u pattern.Union) float64 {
	mt := pattern.CompileMatcher(u, lab, mdl.M())
	total := 0.0
	rank.ForEachPermutation(mdl.M(), func(tau rank.Ranking) bool {
		if mt.Matches(tau) {
			total += mdl.Prob(tau)
		}
		return true
	})
	return total
}
