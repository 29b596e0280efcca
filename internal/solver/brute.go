package solver

import (
	"probpref/internal/label"
	"probpref/internal/pattern"
	"probpref/internal/rank"
	"probpref/internal/rim"
)

// Brute computes Pr(G | sigma, Pi, lambda) by enumerating every ranking
// (Equation 2 verbatim). O(m! * m^2): intended as ground truth in tests and
// for tiny instances (m <= 8).
func Brute(model *rim.Model, lab *label.Labeling, u pattern.Union) float64 {
	return BruteModel(model, lab, u)
}

// BruteConstraints is Brute under min/max constraint semantics
// (MatchesConstraints); ground truth for the upper-bound solver.
func BruteConstraints(model *rim.Model, lab *label.Labeling, u pattern.Union) float64 {
	total := 0.0
	rank.ForEachPermutation(model.M(), func(tau rank.Ranking) bool {
		if u.MatchesConstraints(tau, lab) {
			total += model.Prob(tau)
		}
		return true
	})
	return total
}
