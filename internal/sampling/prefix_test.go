package sampling

import (
	"context"
	"fmt"
	"math/rand"
	"testing"

	"probpref/internal/label"
	"probpref/internal/pattern"
	"probpref/internal/rank"
	"probpref/internal/rim"
)

// fullDrawHits is the rejection loop before prefix draws, kept as the
// oracle: n whole draws of mdl, each tested against the compiled union.
func fullDrawHits(mdl rim.Sampler, mt *pattern.Matcher, n int, rng *rand.Rand) int {
	var tau rank.Ranking
	hits := 0
	for i := 0; i < n; i++ {
		tau = mdl.SampleInto(rng, tau)
		if mt.Matches(tau) {
			hits++
		}
	}
	return hits
}

// randomRejectionGroup returns the RIM-family models of a group over m
// items and a union of one to three random patterns over a sparse
// labeling: most items carry no label, so the prefix a union reads is
// often short, and a node may have no item at all.
func randomRejectionGroup(rng *rand.Rand, m int) ([]rim.PrefixSampler, *label.Labeling, pattern.Union) {
	const labels = 4
	lab := label.NewLabeling()
	for x := 0; x < m; x++ {
		for l := 0; l < labels; l++ {
			if rng.Intn(3*labels) == 0 {
				lab.Add(rank.Item(x), label.Label(l))
			}
		}
	}
	var u pattern.Union
	for n := 1 + rng.Intn(3); n > 0; n-- {
		nodes := make([]pattern.Node, 1+rng.Intn(3))
		var edges [][2]int
		for v := range nodes {
			nodes[v].Labels = label.NewSet(label.Label(rng.Intn(labels)))
			if v > 0 && rng.Intn(2) == 0 {
				edges = append(edges, [2]int{rng.Intn(v), v})
			}
		}
		u = append(u, pattern.MustNew(nodes, edges))
	}
	sigma := make(rank.Ranking, m)
	for i, v := range rng.Perm(m) {
		sigma[i] = rank.Item(v)
	}
	phis := make([]float64, m)
	for i := range phis {
		phis[i] = float64(rng.Intn(3)) / 2 // 0, 0.5 or 1
	}
	ml := rim.MustMallows(sigma, 0.6)
	return []rim.PrefixSampler{ml, rim.MustGeneralizedMallows(sigma, phis), ml.Model()}, lab, u
}

// A prefix draw tests like the whole draw it stands for: draw by draw the
// same match, the generator in the same state, and so the same hit count
// over a whole rejection loop, at every universe size of the rim oracle
// tests, for both loops that draw prefixes.
func TestPrefixRejectionMatchesFullDraws(t *testing.T) {
	ctx := context.Background()
	short := 0 // groups whose union reads a proper, non-empty prefix
	for _, m := range []int{1, 2, 20, 64, 65, 130} {
		for seed := int64(1); seed <= 6; seed++ {
			models, lab, u := randomRejectionGroup(rand.New(rand.NewSource(seed)), m)
			for mi, mdl := range models {
				name := fmt.Sprintf("m=%d seed=%d model %d (%T)", m, seed, mi, mdl)
				mt, draw := rejectionKernel(mdl, lab, u)
				if k := mt.Prefix(mdl.Reference()); k > 0 && k < m {
					short++
				}
				r1 := rand.New(rand.NewSource(seed))
				r2 := rand.New(rand.NewSource(seed))
				var tau, full rank.Ranking
				for d := 0; d < 100; d++ {
					tau = draw(r1, tau)
					full = mdl.SampleInto(r2, full)
					if got, want := mt.Matches(tau), mt.Matches(full); got != want {
						t.Fatalf("%s draw %d: prefix %v matches %v, whole %v matches %v", name, d, tau, got, full, want)
					}
					if a, b := r1.Int63(), r2.Int63(); a != b {
						t.Fatalf("%s draw %d: generators diverged (%d vs %d)", name, d, a, b)
					}
				}

				const n = 300
				r1.Seed(seed)
				r2.Seed(seed)
				est, _, err := RejectionModelCICtx(ctx, mdl, lab, u, n, 1.96, r1)
				if err != nil {
					t.Fatal(err)
				}
				hits := fullDrawHits(mdl, mt, n, r2)
				if want := float64(hits) / n; est != want {
					t.Errorf("%s: RejectionModelCICtx %v, whole draws %v", name, est, want)
				}
				if a, b := r1.Int63(), r2.Int63(); a != b {
					t.Errorf("%s: generators diverged after the loop", name)
				}
				if ml, ok := mdl.(*rim.Mallows); ok {
					r1.Seed(seed)
					r2.Seed(seed)
					est, drawn := RejectionUntil(ml, lab, u, 2, 0, 100, n, r1)
					hits := fullDrawHits(mdl, mt, n, r2)
					if want := float64(hits) / n; est != want || drawn != n {
						t.Errorf("%s: RejectionUntil %v after %d, whole draws %v", name, est, drawn, want)
					}
				}
			}
		}
	}
	if short == 0 {
		t.Error("no group drew a proper prefix")
	}
	t.Logf("%d model-groups drew a proper prefix", short)
}

// A union whose one member has a node no item takes reads no prefix and
// never matches; a member with no nodes reads no prefix and matches every
// draw. Either way the loop reads the stream as whole draws do.
func TestPrefixRejectionDegenerateUnions(t *testing.T) {
	ml, lab, _ := kernelGroup()
	unions := []struct {
		name string
		u    pattern.Union
		est  float64
	}{
		{"unmatchable node", pattern.Union{pattern.TwoLabel(label.NewSet(7), label.NewSet(42))}, 0},
		{"empty pattern", pattern.Union{pattern.MustNew(nil, nil)}, 1},
	}
	for _, c := range unions {
		mt := pattern.CompileMatcher(c.u, lab, ml.M())
		if k := mt.Prefix(ml.Sigma); k != 0 {
			t.Errorf("%s: prefix %d, want 0", c.name, k)
		}
		r1 := rand.New(rand.NewSource(3))
		r2 := rand.New(rand.NewSource(3))
		est, _, err := RejectionModelCICtx(context.Background(), ml, lab, c.u, 500, 1.96, r1)
		if err != nil {
			t.Fatal(err)
		}
		if hits := fullDrawHits(ml, mt, 500, r2); est != c.est || float64(hits)/500 != c.est {
			t.Errorf("%s: estimate %v, whole draws %d hits of 500, want %v", c.name, est, hits, c.est)
		}
		if r1.Int63() != r2.Int63() {
			t.Errorf("%s: generators diverged", c.name)
		}
	}
}
