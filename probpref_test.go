package probpref

import (
	"context"
	"math"
	"testing"
)

// The facade must expose a working end-to-end pipeline.
func TestFacadeEndToEnd(t *testing.T) {
	db, err := Figure1()
	if err != nil {
		t.Fatal(err)
	}
	eng := &Engine{DB: db, Method: MethodAuto}
	q, err := ParseQuery(`P(_, _; c1; c2), C(c1, _, F, _, _, _), C(c2, _, M, _, _, _)`)
	if err != nil {
		t.Fatal(err)
	}
	res, err := eng.Do(context.Background(), &Request{Kind: KindBool, Queries: []*Query{q}})
	if err != nil {
		t.Fatal(err)
	}
	if res.Prob <= 0 || res.Prob > 1 {
		t.Fatalf("Prob = %v", res.Prob)
	}
	if len(res.PerSession) != 3 {
		t.Fatalf("sessions = %d", len(res.PerSession))
	}
}

func TestFacadeModels(t *testing.T) {
	ml, err := NewMallows(Identity(4), 0.5)
	if err != nil {
		t.Fatal(err)
	}
	if ml.M() != 4 {
		t.Fatalf("M = %d", ml.M())
	}
	if _, err := NewMallows(Ranking{0, 0, 1, 2}, 0.5); err == nil {
		t.Fatal("invalid sigma accepted")
	}
	cons := NewPartialOrder()
	cons.Add(Item(3), Item(0))
	if _, err := NewAMP(ml.Sigma, ml.Phi, cons); err != nil {
		t.Fatal(err)
	}
	pi := [][]float64{{1}, {0.5, 0.5}}
	if _, err := NewRIM(Identity(2), pi); err != nil {
		t.Fatal(err)
	}
}

func TestFacadeSolvers(t *testing.T) {
	ml, err := NewMallows(Identity(4), 0.5)
	if err != nil {
		t.Fatal(err)
	}
	lab := NewLabeling()
	lab.Add(Item(3), Label(0))
	lab.Add(Item(0), Label(1))
	u := Union{TwoLabelPattern(LabelSet{0}, LabelSet{1})}
	var probs []float64
	for _, f := range []func(*RIMModel, *Labeling, Union, SolverOptions) (float64, error){
		SolveAuto, SolveTwoLabel, SolveBipartite, SolveGeneral, SolveRelOrder,
	} {
		p, err := f(ml.Model(), lab, u, SolverOptions{})
		if err != nil {
			t.Fatal(err)
		}
		probs = append(probs, p)
	}
	for _, p := range probs[1:] {
		if math.Abs(p-probs[0]) > 1e-9 {
			t.Fatalf("solvers disagree: %v", probs)
		}
	}
	if KendallTau(Identity(3), Ranking{2, 1, 0}) != 3 {
		t.Fatal("KendallTau via facade broken")
	}
}

func TestFacadeDatasets(t *testing.T) {
	if _, err := Polls(12, 20, 1); err != nil {
		t.Fatal(err)
	}
	if _, err := MovieLens(40, 1); err != nil {
		t.Fatal(err)
	}
	if _, err := CrowdRank(10, 1); err != nil {
		t.Fatal(err)
	}
}

func TestFacadePatternBuilding(t *testing.T) {
	nodes := []PatternNode{{Labels: LabelSet{0}}, {Labels: LabelSet{1}}}
	g, err := NewPattern(nodes, [][2]int{{0, 1}})
	if err != nil {
		t.Fatal(err)
	}
	if !g.IsTwoLabel() {
		t.Fatal("expected two-label pattern")
	}
	if _, err := NewPattern(nodes, [][2]int{{0, 1}, {1, 0}}); err == nil {
		t.Fatal("cycle accepted")
	}
}

func TestFacadeEstimator(t *testing.T) {
	ml, err := NewMallows(Identity(5), 0.3)
	if err != nil {
		t.Fatal(err)
	}
	lab := NewLabeling()
	lab.Add(Item(4), Label(0))
	lab.Add(Item(0), Label(1))
	u := Union{TwoLabelPattern(LabelSet{0}, LabelSet{1})}
	est, err := NewEstimator(ml, lab, u, EstimatorConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if est.NumSubRankings() != 1 {
		t.Fatalf("sub-rankings = %d", est.NumSubRankings())
	}
}
