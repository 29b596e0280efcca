package solver_test

import (
	"context"
	"errors"
	"testing"

	"probpref/internal/dataset"
	"probpref/internal/ppd"
	"probpref/internal/solver"
)

// Work guard for tracker retirement, as counts that repeat exactly: a fixed
// handful of hard-CQ queries of the benchmark pool's shape (the join
// variable j instantiated over its domain, every label set a conjunction of
// attribute values carried by a few of the 20 candidates) is grounded over a
// small polls relation, and Stats.Transitions is summed over the groups.
// The retiring TwoLabel walk must do at most a tenth of the work of its own
// NoTrackerDrop walk, and no more than Bipartite — the paper's ordering of
// the specialised solver against the more general one.
func TestRetirementWorkGuard(t *testing.T) {
	db, err := dataset.Polls(dataset.PollsConfig{Candidates: 20, Voters: 12, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	lab := db.Labeling()
	var two, twoNoDrop, bip solver.Stats
	for _, q := range []string{
		"P(_, _; l; r), C(l, j, M, _, _, NW), C(r, j, F, _, _, _)",
		"P(_, _; l; r), C(l, D, j, 20, _, _), C(r, D, j, 30, _, _)",
		"P(_, _; l; r), C(l, D, j, 20, _, _), C(r, D, j, _, JD, _)",
		"P(_, _; l; r), C(l, R, j, _, _, MW), C(r, _, j, _, _, S)",
		"P(_, _; l; r), C(l, j, M, _, _, W), C(r, j, M, _, MS, _)",
	} {
		gr, err := db.Ground(context.Background(), ppd.MustParseUnion(q))
		if err != nil {
			t.Fatalf("%s: %v", q, err)
		}
		if len(gr.Groups) == 0 {
			t.Fatalf("%s: no live group", q)
		}
		for _, g := range gr.Groups {
			mdl := g.Model.Model()
			_, err1 := solver.TwoLabel(mdl, lab, g.Union, solver.Options{Stats: &two})
			// MaxStates only bounds the memory of a fixture gone wrong.
			_, err2 := solver.TwoLabel(mdl, lab, g.Union, solver.Options{Stats: &twoNoDrop, NoTrackerDrop: true, MaxStates: 1 << 20})
			_, err3 := solver.Bipartite(mdl, lab, g.Union, solver.Options{Stats: &bip})
			if err := errors.Join(err1, err2, err3); err != nil {
				t.Fatalf("%s: %v", q, err)
			}
		}
	}
	if two.Transitions*10 > twoNoDrop.Transitions || two.Transitions > bip.Transitions {
		t.Fatalf("transitions over the fixture: TwoLabel %d, TwoLabel with NoTrackerDrop %d, Bipartite %d; "+
			"want TwoLabel <= NoTrackerDrop/10 and TwoLabel <= Bipartite",
			two.Transitions, twoNoDrop.Transitions, bip.Transitions)
	}
	t.Logf("transitions: TwoLabel %d, TwoLabel with NoTrackerDrop %d, Bipartite %d",
		two.Transitions, twoNoDrop.Transitions, bip.Transitions)
}
