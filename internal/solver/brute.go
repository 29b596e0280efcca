package solver

import (
	"probpref/internal/label"
	"probpref/internal/pattern"
	"probpref/internal/rim"
)

// Brute computes Pr(G | sigma, Pi, lambda) by enumerating every ranking
// (Equation 2 verbatim). O(m! * m^2): intended as ground truth in tests and
// for tiny instances (m <= 8).
func Brute(model *rim.Model, lab *label.Labeling, u pattern.Union) float64 {
	return BruteModel(model, lab, u)
}
