// Package rim implements the Repeated Insertion Model (RIM) of Doignon,
// Pekec and Regenwetter, the Mallows model as its special case, and the AMP
// sampler of Lu and Boutilier for drawing from a Mallows posterior
// conditioned on a partial order.
//
// A RIM(sigma, Pi) inserts the items of the reference ranking sigma one by
// one: item sigma[i] (0-based) is inserted into the current partial ranking
// at position j in [0, i] with probability Pi[i][j]. The Mallows model
// MAL(sigma, phi) is RIM with Pi[i][j] = phi^(i-j) / (1 + phi + ... + phi^i).
package rim

import (
	"fmt"
	"math"
	"math/rand"
	"strconv"
	"strings"
	"sync"

	"probpref/internal/rank"
)

// Model is a Repeated Insertion Model RIM(sigma, Pi).
type Model struct {
	sigma rank.Ranking
	pi    [][]float64

	cumOnce sync.Once   // guards the lazy build of cum
	cum     [][]float64 // cum[i][j] = Pi[i][0] + ... + Pi[i][j]
}

// New validates and constructs a RIM model. pi[i] must have i+1 entries that
// are non-negative and sum to 1 (within tolerance).
func New(sigma rank.Ranking, pi [][]float64) (*Model, error) {
	if !sigma.IsPermutation() {
		return nil, fmt.Errorf("rim: sigma %v is not a permutation of 0..%d", sigma, len(sigma)-1)
	}
	if len(pi) != len(sigma) {
		return nil, fmt.Errorf("rim: Pi has %d rows, want %d", len(pi), len(sigma))
	}
	for i, row := range pi {
		if len(row) != i+1 {
			return nil, fmt.Errorf("rim: Pi row %d has %d entries, want %d", i, len(row), i+1)
		}
		sum := 0.0
		for j, p := range row {
			if p < 0 || math.IsNaN(p) {
				return nil, fmt.Errorf("rim: Pi[%d][%d] = %v is invalid", i, j, p)
			}
			sum += p
		}
		if math.Abs(sum-1) > 1e-9 {
			return nil, fmt.Errorf("rim: Pi row %d sums to %v, want 1", i, sum)
		}
	}
	return &Model{sigma: sigma.Clone(), pi: pi}, nil
}

// NewUnchecked constructs a RIM around sigma and pi without validating the
// RIM invariants and without copying sigma: both slices are adopted as-is
// and must not be mutated afterwards. It exists for loaders that have
// already established the invariants out of band — the columnar snapshot
// reader of internal/store, whose checksummed format guarantees row shapes
// and stochasticity at write time — so that opening a large store does not
// re-validate (or copy) every session's insertion matrix. Every other
// caller should use New.
func NewUnchecked(sigma rank.Ranking, pi [][]float64) *Model {
	return &Model{sigma: sigma, pi: pi}
}

// MustNew is New but panics on error; for tests and literals.
func MustNew(sigma rank.Ranking, pi [][]float64) *Model {
	m, err := New(sigma, pi)
	if err != nil {
		panic(err)
	}
	return m
}

// M returns the number of items.
func (m *Model) M() int { return len(m.sigma) }

// Sigma returns the reference ranking (shared; do not modify).
func (m *Model) Sigma() rank.Ranking { return m.sigma }

// Reference returns the reference ranking; it makes *Model usable wherever
// a SessionModel is expected.
func (m *Model) Reference() rank.Ranking { return m.sigma }

// Model returns the model itself: a RIM is its own materialization.
func (m *Model) Model() *Model { return m }

// Rehash returns a deterministic content key over sigma and the full
// insertion matrix, for grouping identical models during query evaluation.
func (m *Model) Rehash() string {
	var b strings.Builder
	n := len(m.sigma)
	b.Grow(4 + 4*n + n + 8*n*(n+1)) // "rim|", sigma's key, per row a '|', 16 digits an entry
	b.WriteString("rim|")
	b.WriteString(m.sigma.Key())
	for _, row := range m.pi {
		b.WriteByte('|')
		for _, p := range row {
			writeBits(&b, p)
		}
	}
	return b.String()
}

// Rehash keys are exact: two models that differ in any bit of any parameter
// never share a key, and so never share an inference group. A generic RIM's
// key carries each of its m(m+1)/2 insertion probabilities as the 16 hex
// digits of its bits (writeBits), five times cheaper to write than decimal;
// a parametric model's key carries its few parameters in decimal
// (writeParam), the text a 12-digit key gave wherever 12 digits are exact.

// writeBits writes f's exact bits as 16 hex digits.
func writeBits(b *strings.Builder, f float64) {
	const hex = "0123456789abcdef"
	var d [16]byte
	u := math.Float64bits(f)
	for i := range d {
		d[i] = hex[u>>(60-4*i)&0xf]
	}
	b.Write(d[:])
}

// writeParam writes f as %.12g does when that text parses back to f, and
// as the shortest decimal that does otherwise.
func writeParam(b *strings.Builder, f float64) {
	var d [32]byte
	text := strconv.AppendFloat(d[:0], f, 'g', 12, 64)
	if back, err := strconv.ParseFloat(string(text), 64); err != nil || back != f {
		text = strconv.AppendFloat(d[:0], f, 'g', -1, 64)
	}
	b.Write(text)
}

// Pi returns the insertion probability Pi[i][j] (0-based).
func (m *Model) Pi(i, j int) float64 { return m.pi[i][j] }

// PiRow returns insertion row i, Pi[i][0..i]. The solvers hoist it out of
// their inner loops; callers must treat the row as read-only.
func (m *Model) PiRow(i int) []float64 { return m.pi[i] }

// Sample draws a ranking using Algorithm 1 of the paper.
func (m *Model) Sample(rng *rand.Rand) rank.Ranking { return m.SampleInto(rng, nil) }

// SampleInto is Algorithm 1 drawing into buf. The insertion position of
// step i is picked from the running sums of Pi[i], built on the first draw
// (loaders adopt Pi for thousands of sessions that are never sampled) and
// shared by concurrent samplers afterwards.
func (m *Model) SampleInto(rng *rand.Rand, buf rank.Ranking) rank.Ranking {
	return m.SamplePrefixInto(rng, buf, len(m.sigma))
}

// SamplePrefixInto is SampleInto keeping the first k reference items only
// (see PrefixSampler). Step i inserts at the first position j with
// u < cum[i][j] (the last when rounding leaves u at the total). The sums
// never decrease along a row, so that j is also where a scan from the end
// stops, and the scan shifts the tail as it goes.
func (m *Model) SamplePrefixInto(rng *rand.Rand, buf rank.Ranking, k int) rank.Ranking {
	m.cumOnce.Do(m.buildCum)
	tau := drawBuf(buf, k)[:k]
	for i, item := range m.sigma[:k] {
		u, row := rng.Float64(), m.cum[i]
		j := i
		for j > 0 && u < row[j-1] {
			tau[j] = tau[j-1]
			j--
		}
		tau[j] = item
	}
	for range m.sigma[k:] {
		rng.Float64()
	}
	return tau
}

// buildCum fills cum with the running sums of every Pi row, added up from
// position 0 as a draw would.
func (m *Model) buildCum() {
	total := 0
	for _, row := range m.pi {
		total += len(row)
	}
	flat := make([]float64, total)
	m.cum = make([][]float64, len(m.pi))
	for i, row := range m.pi {
		m.cum[i], flat = flat[:len(row):len(row)], flat[len(row):]
		acc := 0.0
		for j, p := range row {
			acc += p
			m.cum[i][j] = acc
		}
	}
}

// Prob returns the probability that the model generates tau. Every ranking
// has exactly one generating insertion sequence: item sigma[i] must be
// inserted at the position it occupies among sigma[0..i] in tau's relative
// order.
func (m *Model) Prob(tau rank.Ranking) float64 {
	js, ok := m.InsertionPositions(tau)
	if !ok {
		return 0
	}
	p := 1.0
	for i, j := range js {
		p *= m.pi[i][j]
	}
	return p
}

// LogProb returns log Prob(tau), or -Inf when tau is outside the support.
// It avoids the underflow of multiplying m per-step probabilities.
func (m *Model) LogProb(tau rank.Ranking) float64 {
	js, ok := m.InsertionPositions(tau)
	if !ok {
		return math.Inf(-1)
	}
	lp := 0.0
	for i, j := range js {
		p := m.pi[i][j]
		if p == 0 {
			return math.Inf(-1)
		}
		lp += math.Log(p)
	}
	return lp
}

// InsertionPositions returns, for each step i, the position at which
// sigma[i] was inserted to produce tau, or ok=false if tau is not a
// permutation of the same items.
func (m *Model) InsertionPositions(tau rank.Ranking) ([]int, bool) {
	if len(tau) != len(m.sigma) {
		return nil, false
	}
	pos := make([]int, len(tau))
	for i := range pos {
		pos[i] = -1
	}
	for p, it := range tau {
		if int(it) < 0 || int(it) >= len(pos) || pos[it] >= 0 {
			return nil, false
		}
		pos[it] = p
	}
	js := make([]int, len(m.sigma))
	for i, item := range m.sigma {
		j := 0
		for k := 0; k < i; k++ {
			if pos[m.sigma[k]] < pos[item] {
				j++
			}
		}
		js[i] = j
	}
	return js, true
}
