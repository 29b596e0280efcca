package solver

import (
	"fmt"

	"probpref/internal/label"
	"probpref/internal/pattern"
	"probpref/internal/rim"
)

// General implements the paper's general solver (Section 4.1, Equation 3):
// inclusion-exclusion over all non-empty subsets of the union, where the
// conjunction of a subset is the pattern containing all nodes and edges of
// its members. Each conjunction is solved by the most specific
// single-pattern solver available: Bipartite when the conjunction is
// bipartite, RelOrder otherwise (substitution S1 of docs/ARCHITECTURE.md).
// Complexity is dominated by the largest conjunction, O((2m)^(qz)) in the
// paper's terms.
func General(model *rim.Model, lab *label.Labeling, u pattern.Union, opts Options) (float64, error) {
	if len(u) == 0 {
		return 0, nil
	}
	// Deduplicate identical members: Pr(g ∪ g) = Pr(g).
	seen := make(map[string]bool)
	dedup := make(pattern.Union, 0, len(u))
	for _, g := range u {
		k := g.Key()
		if !seen[k] {
			seen[k] = true
			dedup = append(dedup, g)
		}
	}
	u = dedup
	if len(u) > 16 {
		return 0, fmt.Errorf("%w: inclusion-exclusion over %d patterns (max 16)", ErrShape, len(u))
	}
	ctx := opts.ctx()
	total := 0.0
	// Conjoin-input scratch, allocated once and resliced per mask: the loop
	// runs up to 2^16 times and must not re-grow a nil slice each pass.
	members := make([]*pattern.Pattern, 0, len(u))
	for mask := 1; mask < 1<<uint(len(u)); mask++ {
		if err := ctx.Err(); err != nil {
			return 0, err
		}
		members = members[:0]
		for i := range u {
			if mask&(1<<uint(i)) != 0 {
				members = append(members, u[i])
			}
		}
		conj := pattern.Conjoin(members...)
		p, err := SinglePattern(model, lab, conj, opts)
		if err != nil {
			return 0, fmt.Errorf("conjunction of %d patterns: %w", len(members), err)
		}
		if opts.Stats != nil {
			opts.Stats.Subproblems++
		}
		if popcount(mask)%2 == 1 {
			total += p
		} else {
			total -= p
		}
	}
	if total < 0 {
		total = 0
	}
	if total > 1 {
		total = 1
	}
	return total, nil
}

// SinglePattern computes the exact marginal probability of one pattern,
// dispatching to Bipartite for bipartite patterns (where constraint
// semantics is exact) and to RelOrder otherwise.
func SinglePattern(model *rim.Model, lab *label.Labeling, g *pattern.Pattern, opts Options) (float64, error) {
	if g.IsBipartite() {
		return Bipartite(model, lab, pattern.Union{g}, opts)
	}
	return RelOrder(model, lab, pattern.Union{g}, opts)
}

func popcount(x int) int {
	n := 0
	for x != 0 {
		x &= x - 1
		n++
	}
	return n
}
