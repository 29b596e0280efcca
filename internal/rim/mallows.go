package rim

import (
	"fmt"
	"math"
	"math/rand"
	"strings"
	"sync"

	"probpref/internal/rank"
)

// Mallows is the Mallows model MAL(sigma, phi) with center ranking sigma and
// dispersion phi in [0, 1]. Pr(tau) is proportional to phi^dist(sigma, tau)
// where dist is the Kendall tau distance. phi = 0 concentrates all mass on
// sigma; phi = 1 is uniform over rankings.
type Mallows struct {
	Sigma rank.Ranking
	Phi   float64

	logZ   float64
	geom   []float64 // geom[k] = 1 + phi + ... + phi^k
	logPhi float64

	modelOnce sync.Once // guards the lazy build of model
	model     *Model
}

// NewMallows validates and constructs a Mallows model.
func NewMallows(sigma rank.Ranking, phi float64) (*Mallows, error) {
	if !sigma.IsPermutation() {
		return nil, fmt.Errorf("rim: sigma %v is not a permutation", sigma)
	}
	if phi < 0 || phi > 1 || math.IsNaN(phi) {
		return nil, fmt.Errorf("rim: phi = %v out of [0,1]", phi)
	}
	m := &Mallows{Sigma: sigma.Clone(), Phi: phi}
	m.geom = geometricSums(phi, len(sigma))
	m.logPhi = math.Log(phi)
	for i := 1; i < len(sigma); i++ {
		m.logZ += math.Log(m.geom[i])
	}
	return m, nil
}

// MustMallows is NewMallows but panics on error.
func MustMallows(sigma rank.Ranking, phi float64) *Mallows {
	m, err := NewMallows(sigma, phi)
	if err != nil {
		panic(err)
	}
	return m
}

// geometricSums returns s with s[k] = 1 + phi + ... + phi^k for k < n, each
// entry the previous one plus the next power: the running sums of the
// weights phi^t in the order a draw adds them up, which is what lets
// offsetStep scan the table instead (and what the recorded sample streams
// depend on, bit for bit).
func geometricSums(phi float64, n int) []float64 {
	s := make([]float64, n)
	if n == 0 {
		return s
	}
	s[0] = 1
	pk := 1.0
	for k := 1; k < n; k++ {
		pk *= phi
		s[k] = s[k-1] + pk
	}
	return s
}

// M returns the number of items.
func (ml *Mallows) M() int { return len(ml.Sigma) }

// Model materializes the equivalent RIM(sigma, Pi) with
// Pi[i][j] = phi^(i-j) / (1 + phi + ... + phi^i) (Doignon et al.).
// The result is built once and cached; concurrent first calls are safe
// (sessions share models, so two requests can reach a solver together).
func (ml *Mallows) Model() *Model {
	ml.modelOnce.Do(ml.buildModel)
	return ml.model
}

func (ml *Mallows) buildModel() {
	m := len(ml.Sigma)
	pi := make([][]float64, m)
	for i := 0; i < m; i++ {
		row := make([]float64, i+1)
		if ml.Phi == 0 {
			row[i] = 1
		} else {
			norm := ml.geom[i]
			w := 1.0 // phi^(i-j) for j=i
			for j := i; j >= 0; j-- {
				row[j] = w / norm
				w *= ml.Phi
			}
		}
		pi[i] = row
	}
	ml.model = MustNew(ml.Sigma, pi)
}

// LogZ returns the log of the Mallows normalization constant
// Z = prod_{i=1}^{m-1} (1 + phi + ... + phi^i).
func (ml *Mallows) LogZ() float64 { return ml.logZ }

// LogProb returns log Pr(tau | sigma, phi). For phi = 0 it returns 0 for
// tau = sigma and -Inf otherwise.
func (ml *Mallows) LogProb(tau rank.Ranking) float64 {
	return ml.logProbAt(rank.KendallTau(ml.Sigma, tau))
}

// LogProbIndexed is LogProb of the ranking sc is indexed on (see Scratch):
// the same value from the position index the proposal densities were
// evaluated on, without building one of its own.
func (ml *Mallows) LogProbIndexed(sc *Scratch) float64 {
	return ml.logProbAt(sc.distanceTo(ml.Sigma))
}

// logProbAt returns the log probability of a ranking at Kendall tau
// distance d from the center.
func (ml *Mallows) logProbAt(d int) float64 {
	if ml.Phi == 0 {
		if d == 0 {
			return 0
		}
		return math.Inf(-1)
	}
	return float64(d)*ml.logPhi - ml.logZ
}

// Prob returns Pr(tau | sigma, phi) = phi^dist(sigma,tau) / Z.
func (ml *Mallows) Prob(tau rank.Ranking) float64 {
	return math.Exp(ml.LogProb(tau))
}

// Sample draws a ranking via the RIM representation.
func (ml *Mallows) Sample(rng *rand.Rand) rank.Ranking { return ml.SampleInto(rng, nil) }

// SampleInto draws without materializing the Pi matrix: at step i the
// insertion offset t = i - j follows the truncated geometric distribution
// with weights phi^t / geom[i], whose running sums are geom[0..i] itself.
// phi = 0 returns the center and reads nothing from rng.
func (ml *Mallows) SampleInto(rng *rand.Rand, buf rank.Ranking) rank.Ranking {
	return ml.SamplePrefixInto(rng, buf, len(ml.Sigma))
}

// SamplePrefixInto is SampleInto keeping the first k center items only (see
// PrefixSampler).
func (ml *Mallows) SamplePrefixInto(rng *rand.Rand, buf rank.Ranking, k int) rank.Ranking {
	tau := drawBuf(buf, k)
	if ml.Phi == 0 {
		return append(tau, ml.Sigma[:k]...)
	}
	tau = tau[:k]
	for i, item := range ml.Sigma[:k] {
		offsetStep(tau[:i+1], item, rng.Float64()*ml.geom[i], ml.geom)
	}
	for range ml.Sigma[k:] {
		rng.Float64()
	}
	return tau
}

// Rehash returns a deterministic content key for grouping identical models
// (same center and dispersion) during query evaluation.
func (ml *Mallows) Rehash() string {
	var b strings.Builder
	b.WriteString(ml.Sigma.Key())
	b.WriteByte('|')
	writeParam(&b, ml.Phi)
	return b.String()
}

// Reference returns the center ranking (shared; do not modify).
func (ml *Mallows) Reference() rank.Ranking { return ml.Sigma }
