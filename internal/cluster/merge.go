package cluster

import (
	"fmt"
	"math"
	"sort"

	"probpref/internal/consensus"
	"probpref/internal/ppd"
	"probpref/internal/server"
)

// This file merges partition answers into the single-process answer. The
// invariant every merge rule preserves: the merged response must be
// byte-identical to one process serving the unsplit model. Because float
// addition is not associative, per-shard aggregates (a partition's Prob, Sum
// or PMF) are never combined directly; instead every partition's frame
// (server.RowsFrame) carries its per-session rows, the coordinator
// concatenates them in partition order — which is session order, partitions
// being contiguous ranges — and refolds the concatenation through the exact
// sequential aggregation code a single process runs (ppd.BoolAggregate,
// ppd.FoldAggregateRows, ppd.CountDistFromSessions). The probabilities and
// aggregate terms cross the hop as float64 bit patterns, so the rows refolded
// here are the rows the shards computed. (Consensus rows still travel inside
// the frame's JSON head, which encoding/json round-trips exactly.)

// mergeResults folds the partition answers (indexed by partition, nil =
// failed partition, skipped) of one request into the merged result. rows
// says the client asked for per-session rows — the shards were asked for
// session keys, and the result keeps its rows — and is otherwise false: the
// rows are folded and dropped.
func mergeResults(kind ppd.Kind, k int, rows bool, parts []*server.RowsResult) (*ResultJSON, error) {
	out := &ResultJSON{}
	out.Kind = kind.String()
	for _, p := range parts {
		if p == nil {
			continue
		}
		out.Solves += p.Head.Solves
		out.CacheHits += p.Head.CacheHits
	}
	switch kind {
	case ppd.KindBool, ppd.KindCount, ppd.KindCountDist:
		live, n := 0, 0
		for _, p := range parts {
			if p != nil {
				live += len(p.Probs)
			}
		}
		sps := make([]ppd.SessionProb, 0, live)
		if rows {
			out.PerSession = make([]server.SessionProbJSON, 0, live)
		}
		for _, p := range parts {
			if p == nil {
				continue
			}
			if rows && len(p.Keys) != len(p.Probs) {
				return nil, fmt.Errorf("cluster: partition answer carries %d session keys for %d rows", len(p.Keys), len(p.Probs))
			}
			for i, prob := range p.Probs {
				sps = append(sps, ppd.SessionProb{Prob: prob})
				if rows {
					out.PerSession = append(out.PerSession, server.SessionProbJSON{Session: p.Keys[i], Prob: prob})
				}
			}
			if kind == ppd.KindCountDist {
				if p.Head.CountDist == nil {
					return nil, fmt.Errorf("cluster: countdist partition answer missing countdist section")
				}
				n += p.Head.CountDist.N
			}
		}
		// The aggregation code reads only Prob, so the nil Sessions are safe.
		out.Prob, out.Count = ppd.BoolAggregate(sps)
		out.LiveSessions = len(sps)
		if kind == ppd.KindCountDist {
			dist, err := ppd.CountDistFromSessions(sps, n)
			if err != nil {
				return nil, fmt.Errorf("cluster: merging count distribution: %w", err)
			}
			out.CountDist = server.NewCountDistJSON(dist)
		}
	case ppd.KindTopK:
		// Concatenating in partition order and re-sorting stably reproduces
		// the single process's stable sort over the same session order, so
		// ties break identically.
		var tops []server.SessionProbJSON
		for _, p := range parts {
			if p == nil {
				continue
			}
			tops = append(tops, p.Top...)
			if d := p.Head.Diag; d != nil {
				if out.Diag == nil {
					out.Diag = &server.TopKDiagJSON{}
				}
				out.Diag.BoundSolves += d.BoundSolves
				out.Diag.BoundCacheHits += d.BoundCacheHits
				out.Diag.ExactSolves += d.ExactSolves
				out.Diag.SessionsEvaluated += d.SessionsEvaluated
				out.Diag.CacheHits += d.CacheHits
			}
			out.LiveSessions += p.Head.LiveSessions
		}
		sort.SliceStable(tops, func(i, j int) bool { return tops[i].Prob > tops[j].Prob })
		if len(tops) > k {
			tops = tops[:k]
		}
		out.Top = tops
	case ppd.KindConsensus:
		// Partition rows concatenate in partition order (= session order)
		// and the coordinator re-solves them through the same fold a single
		// process runs; the target and item domain are partition-invariant,
		// so the first surviving partition supplies them.
		var crows []consensus.Row
		var first *server.ConsensusJSON
		for _, p := range parts {
			if p == nil {
				continue
			}
			if p.Head.Consensus == nil {
				return nil, fmt.Errorf("cluster: consensus partition answer missing consensus section")
			}
			if first == nil {
				first = p.Head.Consensus
			}
			crows = append(crows, p.Head.Consensus.Rows...)
		}
		if first == nil {
			return nil, fmt.Errorf("cluster: consensus merge has no partition answers")
		}
		merged, err := server.MergeConsensus(first.Target, first.Domain, k, crows)
		if err != nil {
			return nil, fmt.Errorf("cluster: %w", err)
		}
		if !rows {
			merged.Rows = nil
		}
		out.Consensus = merged
	case ppd.KindAggregate:
		var terms []ppd.AggRow
		for _, p := range parts {
			if p == nil {
				continue
			}
			if p.Head.Aggregate == nil {
				return nil, fmt.Errorf("cluster: aggregate partition answer missing aggregate section")
			}
			terms = append(terms, p.Agg...)
		}
		fold := ppd.FoldAggregateRows(terms)
		out.Count = fold.Count
		out.Aggregate = server.NewAggregateJSON(fold, rows)
	default:
		return nil, fmt.Errorf("cluster: unknown kind %v", kind)
	}
	out.Plan = mergePlans(parts)
	return out, nil
}

// mergePlans combines adaptive-planner reports. Unlike the answer sections,
// a distributed plan is advisory, not bit-identical: group counts and
// samples sum exactly, but the merged half-widths are conservative
// combinations (max for the per-group bound, sums for the propagated ones)
// rather than a re-derivation.
func mergePlans(parts []*server.RowsResult) *server.PlanJSON {
	var out *server.PlanJSON
	for _, part := range parts {
		if part == nil || part.Head.Plan == nil {
			continue
		}
		p := &part.Head
		if out == nil {
			out = &server.PlanJSON{}
		}
		out.ExactGroups += p.Plan.ExactGroups
		out.SampledGroups += p.Plan.SampledGroups
		out.Samples += p.Plan.Samples
		out.MaxHalfWidth = math.Max(out.MaxHalfWidth, p.Plan.MaxHalfWidth)
		out.ProbHalfWidth += p.Plan.ProbHalfWidth
		out.CountHalfWidth += p.Plan.CountHalfWidth
		for m, n := range p.Plan.Methods {
			if out.Methods == nil {
				out.Methods = map[string]int{}
			}
			out.Methods[m] += n
		}
	}
	return out
}

// cachedCopy returns the cache hit rewritten the way the service layer
// reports its own cache hits: the work the original fan-out performed is
// reclassified as cache hits, and no fresh solves are claimed.
func cachedCopy(res *ResultJSON) *ResultJSON {
	out := *res
	out.CacheHits = out.Solves + out.CacheHits
	out.Solves = 0
	if out.Diag != nil {
		d := *out.Diag
		d.BoundCacheHits += d.BoundSolves
		d.CacheHits += d.ExactSolves
		d.BoundSolves = 0
		d.ExactSolves = 0
		out.Diag = &d
	}
	return &out
}
