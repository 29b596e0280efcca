package solver_test

import (
	"testing"

	"probpref/internal/dataset"
	"probpref/internal/solver"
)

// BenchmarkAblationBipartiteBasic measures the Section 4.3.1 basic
// bipartite solver (no pruning, test-only) on the instance of the root
// package's tracker-drop ablation; together the three benchmarks quantify
// each optimization layer.
func BenchmarkAblationBipartiteBasic(b *testing.B) {
	in := dataset.BenchmarkCSlice(1, 3, 4, 3)[0]
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := solver.BipartiteBasic(in.Model.Model(), in.Lab, in.Union, solver.Options{}); err != nil {
			b.Fatal(err)
		}
	}
}
