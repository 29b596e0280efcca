package ppd

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestCountDistributionHandComputed(t *testing.T) {
	d, err := NewCountDistribution([]float64{0.5, 0.5})
	if err != nil {
		t.Fatal(err)
	}
	want := []float64{0.25, 0.5, 0.25}
	for k, p := range want {
		if math.Abs(d.PMF[k]-p) > 1e-12 {
			t.Errorf("PMF[%d] = %v, want %v", k, d.PMF[k], p)
		}
	}
	if d.N() != 2 {
		t.Errorf("N = %d, want 2", d.N())
	}
	if m := d.Mean(); math.Abs(m-1) > 1e-12 {
		t.Errorf("Mean = %v, want 1", m)
	}
	if v := d.Variance(); math.Abs(v-0.5) > 1e-12 {
		t.Errorf("Variance = %v, want 0.5", v)
	}
}

func TestCountDistributionValidation(t *testing.T) {
	for _, bad := range [][]float64{{-0.1}, {1.5}, {math.NaN()}} {
		if _, err := NewCountDistribution(bad); err == nil {
			t.Errorf("probs %v: want error", bad)
		}
	}
	d, err := NewCountDistribution(nil)
	if err != nil {
		t.Fatal(err)
	}
	if d.N() != 0 || math.Abs(d.PMF[0]-1) > 1e-12 {
		t.Errorf("empty distribution: N=%d PMF=%v", d.N(), d.PMF)
	}
	if d.Mean() != 0 || d.Quantile(0.99) != 0 || d.Mode() != 0 {
		t.Error("empty distribution summaries must be zero")
	}
}

func TestCountDistributionPMFSumsToOneQuick(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(20)
		probs := make([]float64, n)
		for i := range probs {
			probs[i] = rng.Float64()
		}
		d, err := NewCountDistribution(probs)
		if err != nil {
			return false
		}
		sum := 0.0
		meanFromPMF := 0.0
		varFromPMF := 0.0
		for k, p := range d.PMF {
			if p < -1e-12 {
				return false
			}
			sum += p
			meanFromPMF += float64(k) * p
			varFromPMF += float64(k*k) * p
		}
		varFromPMF -= meanFromPMF * meanFromPMF
		return math.Abs(sum-1) < 1e-9 &&
			math.Abs(meanFromPMF-d.Mean()) < 1e-9 &&
			math.Abs(varFromPMF-d.Variance()) < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestCountDistributionMatchesBinomial(t *testing.T) {
	// Identical probabilities: Poisson-binomial reduces to binomial.
	const n, p = 10, 0.3
	probs := make([]float64, n)
	for i := range probs {
		probs[i] = p
	}
	d, err := NewCountDistribution(probs)
	if err != nil {
		t.Fatal(err)
	}
	binom := func(k int) float64 {
		c := 1.0
		for i := 0; i < k; i++ {
			c = c * float64(n-i) / float64(i+1)
		}
		return c * math.Pow(p, float64(k)) * math.Pow(1-p, float64(n-k))
	}
	for k := 0; k <= n; k++ {
		if math.Abs(d.PMF[k]-binom(k)) > 1e-10 {
			t.Errorf("PMF[%d] = %v, binomial %v", k, d.PMF[k], binom(k))
		}
	}
}

func TestCountDistributionCDFTailQuantile(t *testing.T) {
	d, err := NewCountDistribution([]float64{0.2, 0.9, 0.5})
	if err != nil {
		t.Fatal(err)
	}
	if c := d.CDF(-1); c != 0 {
		t.Errorf("CDF(-1) = %v, want 0", c)
	}
	if c := d.CDF(3); c != 1 {
		t.Errorf("CDF(3) = %v, want 1", c)
	}
	if tl := d.Tail(0); tl != 1 {
		t.Errorf("Tail(0) = %v, want 1", tl)
	}
	for k := 0; k <= 3; k++ {
		if diff := math.Abs(d.Tail(k) + d.CDF(k-1) - 1); diff > 1e-12 {
			t.Errorf("Tail(%d) + CDF(%d) - 1 = %v", k, k-1, diff)
		}
	}
	if q := d.Quantile(0); q != 0 {
		t.Errorf("Quantile(0) = %d, want 0", q)
	}
	if q := d.Quantile(1); q != 3 {
		// Pr(count <= 2) < 1 because all three sessions can hold jointly.
		t.Errorf("Quantile(1) = %d, want 3", q)
	}
	// Quantile is the generalized inverse of the CDF.
	for _, alpha := range []float64{0.05, 0.25, 0.5, 0.75, 0.95} {
		k := d.Quantile(alpha)
		if d.CDF(k) < alpha-1e-9 {
			t.Errorf("CDF(Quantile(%v)) = %v < alpha", alpha, d.CDF(k))
		}
		if k > 0 && d.CDF(k-1) >= alpha {
			t.Errorf("Quantile(%v) = %d not minimal", alpha, k)
		}
	}
}

func TestCountDistributionDegenerate(t *testing.T) {
	d, err := NewCountDistribution([]float64{1, 1, 0, 1})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(d.PMF[3]-1) > 1e-12 {
		t.Fatalf("deterministic count: PMF = %v, want point mass at 3", d.PMF)
	}
	if d.Mode() != 3 || d.Quantile(0.5) != 3 || d.Variance() != 0 {
		t.Errorf("Mode=%d Quantile(0.5)=%d Var=%v", d.Mode(), d.Quantile(0.5), d.Variance())
	}
}

func TestEngineCountDistribution(t *testing.T) {
	db := figure1DB(t)
	eng := &Engine{DB: db, Method: MethodAuto}
	q, err := Parse(`P(_, _; c1; c2), C(c1, _, "F", _, _, _), C(c2, _, "M", _, _, _)`)
	if err != nil {
		t.Fatal(err)
	}
	d, err := countDist(eng, q)
	if err != nil {
		t.Fatal(err)
	}
	if d.N() != 3 {
		t.Fatalf("support over %d sessions, want 3", d.N())
	}
	res, err := evalBool(eng, q)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(d.Mean()-res.Count) > 1e-9 {
		t.Fatalf("distribution mean %v != Count-Session expectation %v", d.Mean(), res.Count)
	}
	// Pr(count >= 1) must equal the Boolean confidence.
	if math.Abs(d.Tail(1)-res.Prob) > 1e-9 {
		t.Fatalf("Tail(1) = %v != Boolean Pr(Q) %v", d.Tail(1), res.Prob)
	}
	sum := 0.0
	for _, p := range d.PMF {
		sum += p
	}
	if math.Abs(sum-1) > 1e-9 {
		t.Fatalf("PMF sums to %v", sum)
	}
}

func TestEngineCountDistributionMonteCarlo(t *testing.T) {
	db := figure1DB(t)
	eng := &Engine{DB: db, Method: MethodAuto}
	q, err := Parse(`P(_, _; c1; c2), C(c1, "D", _, _, _, _), C(c2, "R", _, _, _, _)`)
	if err != nil {
		t.Fatal(err)
	}
	d, err := countDist(eng, q)
	if err != nil {
		t.Fatal(err)
	}
	g, err := NewGrounder(db, q)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(99))
	const worlds = 20000
	hist := make([]float64, d.N()+1)
	for w := 0; w < worlds; w++ {
		world := db.SampleWorld(rng)
		c, err := g.CountIn(world)
		if err != nil {
			t.Fatal(err)
		}
		hist[c]++
	}
	for k := range hist {
		got := hist[k] / worlds
		if math.Abs(got-d.PMF[k]) > 0.015 {
			t.Errorf("PMF[%d]: Monte Carlo %v, exact %v", k, got, d.PMF[k])
		}
	}
}

func TestEngineCountDistributionIncludesDeadSessions(t *testing.T) {
	db := figure1DB(t)
	eng := &Engine{DB: db, Method: MethodAuto}
	// Ann's 5/5 session only: the other two sessions cannot match the
	// session-key constant, so their grounded unions are empty; the support
	// must still cover all three sessions.
	q, err := Parse(`P("Ann", _; c1; c2), C(c1, _, "F", _, _, _), C(c2, _, "M", _, _, _)`)
	if err != nil {
		t.Fatal(err)
	}
	d, err := countDist(eng, q)
	if err != nil {
		t.Fatal(err)
	}
	if d.N() != 3 {
		t.Fatalf("support over %d sessions, want 3", d.N())
	}
	if d.PMF[2] != 0 || d.PMF[3] != 0 {
		t.Fatalf("counts above 1 must be impossible: PMF = %v", d.PMF)
	}
}
