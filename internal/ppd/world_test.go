package ppd

import (
	"math"
	"math/rand"
	"testing"
)

// End-to-end statistical validation of the whole engine: Monte Carlo over
// sampled possible worlds must converge to the exact Boolean and
// Count-Session answers. This exercises grounding, pattern matching, the
// session-independence semantics and the exact solvers together.
func TestPossibleWorldSemantics(t *testing.T) {
	db := figure1DB(t)
	for _, src := range []string{
		`P(_, _; c1; c2), C(c1, _, F, _, _, _), C(c2, _, M, _, _, _)`,
		`P(_, _; c1; c2), C(c1, D, _, _, e, _), C(c2, R, _, _, e, _)`,
		`P(Ann, "5/5"; Trump; Clinton), P(Ann, "5/5"; Trump; Rubio)`,
	} {
		q := MustParse(src)
		eng := &Engine{DB: db, Method: MethodAuto}
		res, err := evalBool(eng, q)
		if err != nil {
			t.Fatal(err)
		}
		g, err := NewGrounder(db, q)
		if err != nil {
			t.Fatal(err)
		}
		rng := rand.New(rand.NewSource(77))
		const n = 20000
		holds, countSum := 0, 0
		for i := 0; i < n; i++ {
			w := db.SampleWorld(rng)
			h, err := g.HoldsIn(w)
			if err != nil {
				t.Fatal(err)
			}
			if h {
				holds++
			}
			c, err := g.CountIn(w)
			if err != nil {
				t.Fatal(err)
			}
			countSum += c
		}
		empProb := float64(holds) / n
		empCount := float64(countSum) / n
		if math.Abs(empProb-res.Prob) > 0.015 {
			t.Fatalf("%s: empirical Pr %v, exact %v", src, empProb, res.Prob)
		}
		if math.Abs(empCount-res.Count) > 0.03 {
			t.Fatalf("%s: empirical count %v, exact %v", src, empCount, res.Count)
		}
	}
}

func TestSampleWorldShape(t *testing.T) {
	db := figure1DB(t)
	w := db.SampleWorld(rand.New(rand.NewSource(1)))
	rs := w.Rankings["P"]
	if len(rs) != 3 {
		t.Fatalf("rankings = %d", len(rs))
	}
	for _, r := range rs {
		if len(r) != 4 || !r.IsPermutation() {
			t.Fatalf("invalid world ranking %v", r)
		}
	}
}
