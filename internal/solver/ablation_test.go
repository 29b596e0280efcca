package solver

import (
	"math"
	"math/rand"
	"testing"
)

// The tracker-dropping optimization must not change results, only shrink
// state spaces.
func TestBipartiteTrackerDropAblation(t *testing.T) {
	rng := rand.New(rand.NewSource(200))
	for trial := 0; trial < 60; trial++ {
		m := 4 + rng.Intn(3)
		lab := randWorld(rng, m, 4)
		model := randModel(rng, m)
		u := randBipartiteUnion(rng, 1+rng.Intn(3), 4)

		var withDrop, noDrop Stats
		a, err := Bipartite(model, lab, u, Options{Stats: &withDrop})
		if err != nil {
			t.Fatal(err)
		}
		b, err := Bipartite(model, lab, u, Options{NoTrackerDrop: true, Stats: &noDrop})
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(a-b) > 1e-12 {
			t.Fatalf("trial %d: drop=%v nodrop=%v", trial, a, b)
		}
		if withDrop.TotalStates > noDrop.TotalStates {
			t.Fatalf("trial %d: dropping increased states (%d > %d)",
				trial, withDrop.TotalStates, noDrop.TotalStates)
		}
	}
}

// On larger instances, dropping must strictly shrink the DP.
func TestBipartiteTrackerDropShrinks(t *testing.T) {
	rng := rand.New(rand.NewSource(201))
	m := 10
	lab := randWorld(rng, m, 6)
	model := randModel(rng, m)
	u := randBipartiteUnion(rng, 3, 6)
	var withDrop, noDrop Stats
	if _, err := Bipartite(model, lab, u, Options{Stats: &withDrop}); err != nil {
		t.Fatal(err)
	}
	if _, err := Bipartite(model, lab, u, Options{NoTrackerDrop: true, Stats: &noDrop}); err != nil {
		t.Fatal(err)
	}
	if withDrop.TotalStates >= noDrop.TotalStates {
		t.Skipf("instance did not exercise dropping (%d vs %d)", withDrop.TotalStates, noDrop.TotalStates)
	}
}

// Tracker retirement in TwoLabel must not change results either: the
// NoTrackerDrop walk carries every tracker to the last step and is the
// reference.
func TestTwoLabelTrackerDropAblation(t *testing.T) {
	rng := rand.New(rand.NewSource(204))
	for trial := 0; trial < 60; trial++ {
		m := 4 + rng.Intn(3)
		lab := randWorld(rng, m, 4)
		model := randModel(rng, m)
		u := randTwoLabelUnion(rng, 1+rng.Intn(3), 4)

		a, b, withDrop, noDrop := solveBoth(t, "twolabel", TwoLabel, model, lab, u)
		if math.Abs(a-b) > 1e-12 {
			t.Fatalf("trial %d: drop=%v nodrop=%v", trial, a, b)
		}
		if withDrop.TotalStates > noDrop.TotalStates {
			t.Fatalf("trial %d: retiring increased states (%d > %d)",
				trial, withDrop.TotalStates, noDrop.TotalStates)
		}
	}
}

// On a larger instance, retirement must strictly shrink TwoLabel's DP.
func TestTwoLabelTrackerDropShrinks(t *testing.T) {
	rng := rand.New(rand.NewSource(205))
	m := 10
	lab := randWorld(rng, m, 6)
	model := randModel(rng, m)
	u := randTwoLabelUnion(rng, 3, 6)
	_, _, withDrop, noDrop := solveBoth(t, "twolabel", TwoLabel, model, lab, u)
	if withDrop.TotalStates >= noDrop.TotalStates {
		t.Fatalf("retirement did not shrink the DP: %d states vs %d without it",
			withDrop.TotalStates, noDrop.TotalStates)
	}
}

// The basic bipartite solver (Section 4.3.1, no pruning) must agree with
// both the optimized solver and brute force.
func TestBipartiteBasicAgainstBrute(t *testing.T) {
	rng := rand.New(rand.NewSource(202))
	for trial := 0; trial < 80; trial++ {
		m := 3 + rng.Intn(4)
		lab := randWorld(rng, m, 4)
		model := randModel(rng, m)
		u := randBipartiteUnion(rng, 1+rng.Intn(3), 4)
		want := Brute(model, lab, u)
		basic, err := BipartiteBasic(model, lab, u, Options{})
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(basic-want) > 1e-9 {
			t.Fatalf("trial %d: basic=%v brute=%v", trial, basic, want)
		}
		opt, err := Bipartite(model, lab, u, Options{})
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(basic-opt) > 1e-9 {
			t.Fatalf("trial %d: basic=%v optimized=%v", trial, basic, opt)
		}
	}
}

// The optimized solver must explore no more states than the basic version.
func TestBipartiteOptimizedSmaller(t *testing.T) {
	rng := rand.New(rand.NewSource(203))
	m := 9
	lab := randWorld(rng, m, 5)
	model := randModel(rng, m)
	u := randBipartiteUnion(rng, 2, 5)
	var basic, opt Stats
	if _, err := BipartiteBasic(model, lab, u, Options{Stats: &basic}); err != nil {
		t.Fatal(err)
	}
	if _, err := Bipartite(model, lab, u, Options{Stats: &opt}); err != nil {
		t.Fatal(err)
	}
	if opt.TotalStates > basic.TotalStates {
		t.Fatalf("optimized explored more states: %d vs %d", opt.TotalStates, basic.TotalStates)
	}
}
