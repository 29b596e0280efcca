package solver

import "testing"

// TestTwoLabelAllocsPerSolve: a one-lane TwoLabel solve allocates nothing
// once the arena pool is warm. Its plan is compiled into the pooled arena,
// its walk state and the expand method value runStep is handed live there
// too (see twoLabelWalk), and the step's emitter lives in the arena (a
// chunk's in its chunkBuf), not on the heap.
func TestTwoLabelAllocsPerSolve(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates and drops pooled arenas at random")
	}
	const m = 12
	mdl, lab, u := benchTwoLabel(m, 2, 3)
	solve := func() {
		if _, err := TwoLabel(mdl, lab, u, Options{}); err != nil {
			t.Fatal(err)
		}
	}
	solve() // warm the arena pool
	if n := testing.AllocsPerRun(50, solve); n > 0 {
		t.Fatalf("a one-lane TwoLabel solve at m = %d allocates %v times, want none", m, n)
	}
}

// TestCompilePlanAllocs: a two-label plan compiled onto the heap, as the
// plan cache keeps it, is two allocations — the Plan, which holds the
// two-label tables inline, and the one backing array of their slot sets.
// The compile's scratch (slot labels, last feeds and reads) stays on the
// stack.
func TestCompilePlanAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates and drops pooled arenas at random")
	}
	const m = 20
	mdl, lab, u := benchTwoLabel(m, 4, 3)
	compile := func() {
		if _, err := CompilePlan(AlgoTwoLabel, mdl.Sigma(), lab, u, Options{}); err != nil {
			t.Fatal(err)
		}
	}
	if n := testing.AllocsPerRun(50, compile); n > 2 {
		t.Fatalf("CompilePlan of a %d-pattern two-label union at m = %d allocates %v times, want at most 2", len(u), m, n)
	}
}
