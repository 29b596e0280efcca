package server

import (
	"fmt"

	"probpref/internal/consensus"
)

// This file is the wire form of the consensus query kind: the JSON shape of
// a consensus answer in POST /v1/query responses, plus the re-solve helper
// the cluster coordinator uses to merge partition rows. Both the shard-local
// conversion and the coordinator merge build the answer through the same
// consensusJSON construction, so the two tiers serialize one way.

// ConsensusItemJSON is one entry of a consensus top-k answer on the wire.
type ConsensusItemJSON struct {
	// Item is the item's catalog key.
	Item string `json:"item"`
	// Prob is the population probability the item ranks within the top k.
	Prob float64 `json:"prob"`
	// Half is the 95% confidence half-width of Prob (omitted when exact).
	Half float64 `json:"half_width,omitempty"`
}

// ConsensusJSON is the wire form of a consensus answer. Which sections are
// present depends on the target: ranking and prob for map; ranking,
// expected_tau and pairwise (plus pair_half_width when sampled) for median;
// items for topk.
type ConsensusJSON struct {
	// Target echoes the requested consensus target.
	Target string `json:"target"`
	// Sampled reports whether the answer was rejection-sampled.
	Sampled bool `json:"sampled"`
	// LiveSessions counts sessions with positive conditioned mass.
	LiveSessions int `json:"live_sessions"`
	// Samples totals the Monte Carlo draws across sessions (sampled only).
	Samples int64 `json:"samples,omitempty"`
	// Accepts totals the accepted draws across sessions (sampled only).
	Accepts int64 `json:"accepts,omitempty"`
	// Ranking is the consensus ranking as item keys, best first (map and
	// median targets).
	Ranking []string `json:"ranking,omitempty"`
	// Prob is the population probability of Ranking (map target).
	Prob *float64 `json:"prob,omitempty"`
	// ExpectedTau is the expected Kendall tau distance of Ranking to the
	// population (median target).
	ExpectedTau *float64 `json:"expected_tau,omitempty"`
	// Pairwise is the population pairwise-marginal matrix indexed by item
	// id: Pairwise[a][b] = Pr(a before b) (median target).
	Pairwise [][]float64 `json:"pairwise,omitempty"`
	// PairHalf carries the 95% half-widths of sampled Pairwise entries.
	PairHalf [][]float64 `json:"pair_half_width,omitempty"`
	// Items is the consensus top-k, most certain first (topk target).
	Items []ConsensusItemJSON `json:"items,omitempty"`
	// Domain maps item ids to catalog keys (Domain[i] names item i), so
	// Pairwise rows and columns can be decoded.
	Domain []string `json:"domain"`
	// Rows holds the per-session sufficient statistics in session order;
	// included only with per_session set. A distributed coordinator refolds
	// concatenated partition rows through MergeConsensus, reproducing the
	// answer bit for bit.
	Rows []consensus.Row `json:"per_session,omitempty"`
}

// consensusJSON is the shared answer construction of the shard-local
// conversion and the coordinator merge; callers attach the per-session rows.
func consensusJSON(res *consensus.Result, domain []string) *ConsensusJSON {
	out := &ConsensusJSON{
		Target:       res.Target.String(),
		Sampled:      res.Sampled,
		LiveSessions: res.LiveSessions,
		Samples:      res.Samples,
		Accepts:      res.Accepts,
		Pairwise:     res.Pairwise,
		PairHalf:     res.PairHalf,
		Domain:       domain,
	}
	if res.Ranking != nil {
		keys := make([]string, len(res.Ranking))
		for i, it := range res.Ranking {
			keys[i] = domain[it]
		}
		out.Ranking = keys
		switch res.Target {
		case consensus.TargetMAP:
			p := res.Prob
			out.Prob = &p
		case consensus.TargetMedian:
			t := res.ExpectedTau
			out.ExpectedTau = &t
		}
	}
	for _, it := range res.Items {
		out.Items = append(out.Items, ConsensusItemJSON{Item: domain[it.Item], Prob: it.Prob, Half: it.Half})
	}
	return out
}

// MergeConsensus re-solves concatenated partition rows into the merged
// consensus answer: the cluster coordinator's counterpart of the engine's
// fold. consensus.Solve is a deterministic sequential pass over rows, and
// encoding/json round-trips the rows' float64 numerators and integer
// counters exactly, so rows concatenated in partition order (= session
// order) reproduce a single process's answer byte for byte. The returned
// form carries the full rows; the coordinator strips them when the client
// did not ask for per-session detail.
func MergeConsensus(target string, domain []string, k int, rows []consensus.Row) (*ConsensusJSON, error) {
	t, err := consensus.ParseTarget(target)
	if err != nil {
		return nil, fmt.Errorf("server: merging consensus: %w", err)
	}
	res, err := consensus.Solve(rows, consensus.Params{Target: t, M: len(domain), K: k})
	if err != nil {
		return nil, fmt.Errorf("server: merging consensus: %w", err)
	}
	out := consensusJSON(res, domain)
	out.Rows = rows
	return out, nil
}
