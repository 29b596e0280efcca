package solver

import "testing"

// TestTwoLabelAllocsPerSolve: a one-lane TwoLabel solve allocates a fixed
// handful of times, for the expand closure and the step variables it
// captures, and nothing per insertion step: the step's emitter lives in the
// pooled arena (a chunk's in its chunkBuf), not on the heap.
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
	if n := testing.AllocsPerRun(50, solve); n > 4 {
		t.Fatalf("a one-lane TwoLabel solve at m = %d allocates %v times, want at most 4", m, n)
	}
}
