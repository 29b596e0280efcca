package rim

import (
	"fmt"
	"math"
	"math/rand"
	"strings"
	"sync"

	"probpref/internal/rank"
)

// GeneralizedMallows is the distance-based ranking model of Fligner and
// Verducci ("Distance based ranking models", JRSS-B 1986), reference [9] of
// the paper and its first suggestion for preference models beyond plain
// Mallows. It generalizes MAL(sigma, phi) by giving every insertion step its
// own dispersion: item sigma[i] is inserted at position j in [0, i] with
// probability proportional to Phis[i]^(i-j).
//
// Equivalently, Pr(tau) is proportional to prod_i Phis[i]^(V_i(tau)) where
// V_i counts the items sigma[0..i-1] that tau ranks below sigma[i] — the
// stage-wise decomposition of the Kendall tau distance. All Phis equal to
// phi recovers MAL(sigma, phi) exactly.
//
// GeneralizedMallows is a RIM, so every exact solver of package solver
// applies to it unchanged through Model().
type GeneralizedMallows struct {
	Sigma rank.Ranking
	// Phis[i] is the dispersion of insertion step i (0-based). Phis[0] is
	// accepted for uniformity but has no effect: step 0 has one position.
	Phis []float64

	// cum[i][t] = 1 + Phis[i] + ... + Phis[i]^t for t <= i: the running sums
	// of step i's offset weights in the order a draw adds them up, so the
	// last entry of a row is the step's normalization constant.
	cum     [][]float64
	logZ    float64
	logPhis []float64

	modelOnce sync.Once // guards the lazy build of model
	model     *Model
}

// NewGeneralizedMallows validates and constructs a Generalized Mallows
// model. Phis must have one entry per item, each in [0, 1].
func NewGeneralizedMallows(sigma rank.Ranking, phis []float64) (*GeneralizedMallows, error) {
	if !sigma.IsPermutation() {
		return nil, fmt.Errorf("rim: sigma %v is not a permutation", sigma)
	}
	if len(phis) != len(sigma) {
		return nil, fmt.Errorf("rim: %d dispersions for %d items", len(phis), len(sigma))
	}
	for i, phi := range phis {
		if phi < 0 || phi > 1 || math.IsNaN(phi) {
			return nil, fmt.Errorf("rim: Phis[%d] = %v out of [0,1]", i, phi)
		}
	}
	gm := &GeneralizedMallows{
		Sigma:   sigma.Clone(),
		Phis:    append([]float64(nil), phis...),
		cum:     make([][]float64, len(sigma)),
		logPhis: make([]float64, len(sigma)),
	}
	flat := make([]float64, len(sigma)*(len(sigma)+1)/2)
	for i := range sigma {
		gm.cum[i], flat = flat[:i+1:i+1], flat[i+1:]
		g := 1.0
		w := 1.0
		gm.cum[i][0] = g
		for t := 1; t <= i; t++ {
			w *= phis[i]
			g += w
			gm.cum[i][t] = g
		}
		gm.logPhis[i] = math.Log(phis[i])
		gm.logZ += math.Log(g)
	}
	return gm, nil
}

// MustGeneralizedMallows is NewGeneralizedMallows but panics on error.
func MustGeneralizedMallows(sigma rank.Ranking, phis []float64) *GeneralizedMallows {
	gm, err := NewGeneralizedMallows(sigma, phis)
	if err != nil {
		panic(err)
	}
	return gm
}

// M returns the number of items.
func (gm *GeneralizedMallows) M() int { return len(gm.Sigma) }

// Model materializes the equivalent RIM(sigma, Pi) with
// Pi[i][j] = Phis[i]^(i-j) / (1 + Phis[i] + ... + Phis[i]^i). The result is
// built once and cached; concurrent first calls are safe.
func (gm *GeneralizedMallows) Model() *Model {
	gm.modelOnce.Do(gm.buildModel)
	return gm.model
}

func (gm *GeneralizedMallows) buildModel() {
	m := len(gm.Sigma)
	pi := make([][]float64, m)
	for i := 0; i < m; i++ {
		row := make([]float64, i+1)
		phi := gm.Phis[i]
		if phi == 0 {
			row[i] = 1
		} else {
			w := 1.0 // phi^(i-j) for j = i
			for j := i; j >= 0; j-- {
				row[j] = w / gm.cum[i][i]
				w *= phi
			}
		}
		pi[i] = row
	}
	gm.model = MustNew(gm.Sigma, pi)
}

// LogZ returns the log normalization constant
// Z = prod_i (1 + Phis[i] + ... + Phis[i]^i).
func (gm *GeneralizedMallows) LogZ() float64 { return gm.logZ }

// StageDistances returns the insertion-offset vector V with
// V[i] = i - j_i, the number of earlier reference items ranked below
// sigma[i] by tau, and ok=false when tau is not a permutation of the same
// items. sum(V) is the Kendall tau distance dist(sigma, tau).
func (gm *GeneralizedMallows) StageDistances(tau rank.Ranking) ([]int, bool) {
	js, ok := gm.Model().InsertionPositions(tau)
	if !ok {
		return nil, false
	}
	v := make([]int, len(js))
	for i, j := range js {
		v[i] = i - j
	}
	return v, true
}

// LogProb returns log Pr(tau | sigma, Phis).
func (gm *GeneralizedMallows) LogProb(tau rank.Ranking) float64 {
	v, ok := gm.StageDistances(tau)
	if !ok {
		return math.Inf(-1)
	}
	lp := -gm.logZ
	for i, vi := range v {
		if vi == 0 {
			continue
		}
		if gm.Phis[i] == 0 {
			return math.Inf(-1)
		}
		lp += float64(vi) * gm.logPhis[i]
	}
	return lp
}

// Prob returns Pr(tau | sigma, Phis).
func (gm *GeneralizedMallows) Prob(tau rank.Ranking) float64 {
	return math.Exp(gm.LogProb(tau))
}

// Sample draws a ranking without materializing the Pi matrix.
func (gm *GeneralizedMallows) Sample(rng *rand.Rand) rank.Ranking { return gm.SampleInto(rng, nil) }

// SampleInto draws into buf: step i inserts sigma[i] at offset t = i - j
// drawn from the truncated geometric distribution with ratio Phis[i]. A
// step with Phis[i] = 0 inserts at the end and reads nothing from rng.
func (gm *GeneralizedMallows) SampleInto(rng *rand.Rand, buf rank.Ranking) rank.Ranking {
	return gm.SamplePrefixInto(rng, buf, len(gm.Sigma))
}

// SamplePrefixInto is SampleInto keeping the first k reference items only
// (see PrefixSampler).
func (gm *GeneralizedMallows) SamplePrefixInto(rng *rand.Rand, buf rank.Ranking, k int) rank.Ranking {
	tau := drawBuf(buf, k)[:k]
	for i, item := range gm.Sigma[:k] {
		if gm.Phis[i] > 0 {
			offsetStep(tau[:i+1], item, rng.Float64()*gm.cum[i][i], gm.cum[i])
		} else {
			tau[i] = item
		}
	}
	for _, phi := range gm.Phis[k:] {
		if phi > 0 {
			rng.Float64()
		}
	}
	return tau
}

// Reference returns the reference ranking (shared; do not modify).
func (gm *GeneralizedMallows) Reference() rank.Ranking { return gm.Sigma }

// Rehash returns a deterministic content key for grouping identical models
// during query evaluation.
func (gm *GeneralizedMallows) Rehash() string {
	var b strings.Builder
	b.WriteString("gm|")
	b.WriteString(gm.Sigma.Key())
	for _, phi := range gm.Phis {
		b.WriteByte('|')
		writeParam(&b, phi)
	}
	return b.String()
}
