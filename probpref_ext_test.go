package probpref

import (
	"context"
	"math"
	"math/rand"
	"testing"
)

// The extension surfaces of the facade must be wired correctly to the
// internal packages; these tests exercise every wrapper once with a
// correctness assertion (not just absence of error).

func TestFacadeExtendedModels(t *testing.T) {
	gm, err := NewGeneralizedMallows(Identity(4), []float64{0.5, 0.5, 0.5, 0.5})
	if err != nil {
		t.Fatal(err)
	}
	ml, err := NewMallows(Identity(4), 0.5)
	if err != nil {
		t.Fatal(err)
	}
	tau := Ranking{1, 0, 3, 2}
	if math.Abs(gm.Prob(tau)-ml.Prob(tau)) > 1e-12 {
		t.Fatal("equal-dispersion GM must equal Mallows")
	}
	if _, err := NewGeneralizedMallows(Identity(3), []float64{2, 0, 0}); err == nil {
		t.Fatal("invalid dispersion accepted")
	}

	pl, err := NewPlackettLuce([]float64{3, 1})
	if err != nil {
		t.Fatal(err)
	}
	if p := pl.PairwiseProb(0, 1); math.Abs(p-0.75) > 1e-12 {
		t.Fatalf("PL pairwise = %v, want 0.75", p)
	}
	if _, err := NewPlackettLuce([]float64{0}); err == nil {
		t.Fatal("zero weight accepted")
	}

	// Interface satisfaction through the facade alias.
	var models []RankModel = []RankModel{gm, pl, ml}
	rng := rand.New(rand.NewSource(1))
	for _, mdl := range models {
		if got := mdl.Sample(rng); len(got) != mdl.M() {
			t.Fatalf("sample length %d, want %d", len(got), mdl.M())
		}
	}
}

func TestFacadeAnalytics(t *testing.T) {
	ml, err := NewMallows(Identity(4), 0.3)
	if err != nil {
		t.Fatal(err)
	}
	mdl := ml.Model()

	q, err := PositionDistribution(mdl, 0)
	if err != nil {
		t.Fatal(err)
	}
	sum := 0.0
	for _, p := range q {
		sum += p
	}
	if math.Abs(sum-1) > 1e-9 {
		t.Fatalf("position distribution sums to %v", sum)
	}

	rm := RankMarginals(mdl)
	if len(rm) != 4 || math.Abs(rm[0][0]-q[0]) > 1e-12 {
		t.Fatal("RankMarginals disagrees with PositionDistribution")
	}

	pm := PairwiseMatrix(mdl)
	p01, err := PairwiseProb(mdl, 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(pm[0][1]-p01) > 1e-12 {
		t.Fatal("PairwiseMatrix disagrees with PairwiseProb")
	}

	top, err := TopKProb(mdl, 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(top-q[0]) > 1e-12 {
		t.Fatal("TopKProb disagrees with PositionDistribution")
	}

	er, err := ExpectedRank(mdl, 0)
	if err != nil {
		t.Fatal(err)
	}
	if er < 0 || er > 3 {
		t.Fatalf("expected rank %v out of range", er)
	}

	if w, ok := CondorcetWinner(pm); !ok || w != 0 {
		t.Fatalf("Condorcet winner = %v ok=%v, want item 0", w, ok)
	}
	cop := CopelandScores(pm)
	borda := BordaScores(pm)
	if cop[0] != 3 {
		t.Fatalf("Copeland of center head = %v, want 3", cop[0])
	}
	if math.Abs(borda[0]-(3-er)) > 1e-9 {
		t.Fatal("Borda and expected rank inconsistent")
	}

	ek, err := ExpectedKendall(mdl, Identity(4))
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(ek-ExpectedDistanceToReference(mdl)) > 1e-9 {
		t.Fatal("ExpectedKendall(sigma) differs from closed form")
	}

	mix, err := NewMixture([]*Mallows{ml}, []float64{1})
	if err != nil {
		t.Fatal(err)
	}
	mpm := MixturePairwiseMatrix(mix)
	if math.Abs(mpm[0][1]-pm[0][1]) > 1e-12 {
		t.Fatal("single-component mixture pairwise differs")
	}
	mrm := MixtureRankMarginals(mix)
	if math.Abs(mrm[0][0]-rm[0][0]) > 1e-12 {
		t.Fatal("single-component mixture marginals differ")
	}
}

func TestFacadeCountDistributionAndUnion(t *testing.T) {
	d, err := NewCountDistribution([]float64{0.5, 0.5})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(d.PMF[1]-0.5) > 1e-12 {
		t.Fatalf("PMF[1] = %v", d.PMF[1])
	}

	db, err := Figure1()
	if err != nil {
		t.Fatal(err)
	}
	eng := &Engine{DB: db, Method: MethodAuto}
	uq, err := ParseUnionQuery(
		`P(_, _; c1; c2), C(c1, _, F, _, _, _), C(c2, _, M, _, _, _)` +
			` | P(_, _; c1; c2), C(c1, D, _, _, _, _), C(c2, R, _, _, _, _)`)
	if err != nil {
		t.Fatal(err)
	}
	res, err := eng.Do(context.Background(), &Request{Kind: KindBool, Queries: uq.Disjuncts})
	if err != nil {
		t.Fatal(err)
	}
	if res.Prob <= 0 || res.Prob > 1 {
		t.Fatalf("union Prob = %v", res.Prob)
	}
	top, err := eng.Do(context.Background(), &Request{Kind: KindTopK, Queries: uq.Disjuncts, K: 1, BoundEdges: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(top.Top) != 1 {
		t.Fatalf("top-1 returned %d sessions", len(top.Top))
	}

	pm, err := PopulationPairwise(db, "P")
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(pm[0][1]+pm[1][0]-1) > 1e-9 {
		t.Fatal("population pairwise not antisymmetric")
	}
	rm, err := PopulationRankMarginals(db, "P")
	if err != nil {
		t.Fatal(err)
	}
	sum := 0.0
	for _, p := range rm[0] {
		sum += p
	}
	if math.Abs(sum-1) > 1e-9 {
		t.Fatalf("population marginals row sums to %v", sum)
	}
}

func TestFacadeLearning(t *testing.T) {
	truth, err := NewMallows(Ranking{2, 0, 3, 1}, 0.3)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(5))
	data := make([]Ranking, 600)
	for i := range data {
		data[i] = truth.Sample(rng)
	}
	fit, err := FitMallows(data, nil, 4)
	if err != nil {
		t.Fatal(err)
	}
	if !fit.Model.Sigma.Equal(truth.Sigma) {
		t.Fatalf("center %v, want %v", fit.Model.Sigma, truth.Sigma)
	}
	mixFit, err := FitMixture(data, 1, 4, MixtureConfig{})
	if err != nil {
		t.Fatal(err)
	}
	ll := MixtureLogLikelihood(mixFit.Mixture, data)
	if math.Abs(ll-mixFit.LogLikelihood) > math.Abs(ll)*0.01+1e-6 {
		t.Fatalf("MixtureLogLikelihood %v vs fit %v", ll, mixFit.LogLikelihood)
	}
}

func TestFacadeSolversAgree(t *testing.T) {
	ml, err := NewMallows(Identity(5), 0.4)
	if err != nil {
		t.Fatal(err)
	}
	lab := NewLabeling()
	lab.Add(Item(4), Label(0))
	lab.Add(Item(3), Label(0))
	lab.Add(Item(0), Label(1))
	u := Union{TwoLabelPattern(LabelSet{0}, LabelSet{1})}
	want, err := SolveTwoLabel(ml.Model(), lab, u, SolverOptions{})
	if err != nil {
		t.Fatal(err)
	}
	for name, f := range map[string]func(*RIMModel, *Labeling, Union, SolverOptions) (float64, error){
		"auto": SolveAuto, "bipartite": SolveBipartite, "general": SolveGeneral, "relorder": SolveRelOrder,
	} {
		got, err := f(ml.Model(), lab, u, SolverOptions{})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if math.Abs(got-want) > 1e-9 {
			t.Fatalf("%s = %v, two-label = %v", name, got, want)
		}
	}

	est, err := NewEstimator(ml, lab, u, EstimatorConfig{})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(2))
	p, err := est.Estimate(3, 3000, rng, true)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(p-want) > 0.05 {
		t.Fatalf("estimator %v, exact %v", p, want)
	}
}

func TestFacadeDatasetShapes(t *testing.T) {
	polls, err := Polls(8, 12, 3)
	if err != nil {
		t.Fatal(err)
	}
	if polls.M() != 8 {
		t.Fatalf("polls items = %d", polls.M())
	}
	mlens, err := MovieLens(30, 3)
	if err != nil {
		t.Fatal(err)
	}
	if mlens.M() != 30 {
		t.Fatalf("movielens items = %d", mlens.M())
	}
	cr, err := CrowdRank(50, 3)
	if err != nil {
		t.Fatal(err)
	}
	if cr.M() != 20 {
		t.Fatalf("crowdrank HIT size = %d, want the paper's 20", cr.M())
	}
	small, err := CrowdRankHIT(50, 8, 3)
	if err != nil {
		t.Fatal(err)
	}
	if small.M() != 8 {
		t.Fatalf("crowdrank HIT size = %d, want 8", small.M())
	}
	if _, err := CrowdRankHIT(50, 2, 3); err == nil {
		t.Fatal("HIT below minimum size accepted")
	}
}

func TestFacadeAMPAndPartialOrder(t *testing.T) {
	cons := NewPartialOrder()
	cons.Add(Item(2), Item(0))
	amp, err := NewAMP(Identity(3), 0.5, cons)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 50; i++ {
		tau, logq := amp.Sample(rng)
		if !tau.Prefers(Item(2), Item(0)) {
			t.Fatalf("AMP sample %v violates constraint", tau)
		}
		if logq > 0 {
			t.Fatalf("log-density %v above 0", logq)
		}
		if got, ok := amp.LogDensity(tau); !ok || math.Abs(got-logq) > 1e-9 {
			t.Fatalf("LogDensity %v ok=%v, sampling reported %v", got, ok, logq)
		}
	}
	if d := KendallTau(Identity(3), Ranking{2, 1, 0}); d != 3 {
		t.Fatalf("KendallTau = %d, want 3", d)
	}
	if _, err := NewRIM(Identity(2), [][]float64{{1}, {0.5, 0.5}}); err != nil {
		t.Fatal(err)
	}
	if _, err := NewPattern([]PatternNode{{Labels: LabelSet{0}}, {Labels: LabelSet{1}}}, [][2]int{{0, 1}, {1, 0}}); err == nil {
		t.Fatal("cyclic pattern accepted")
	}
}
