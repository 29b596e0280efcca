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
// or PMF) are never combined directly; instead the coordinator always asks
// shards for per-session rows, concatenates them in partition order — which
// is session order, partitions being contiguous ranges — and refolds the
// concatenation through the exact sequential aggregation code a single
// process runs (ppd.BoolAggregate, ppd.FoldAggregateRows,
// ppd.CountDistFromSessions). encoding/json round-trips float64 exactly, so
// the wire hop does not perturb the rows.

// mergeResults folds the partition answers (indexed by partition, nil =
// failed partition, skipped) of one request into the merged result. The
// result always carries the full per-session form; emit strips rows the
// client did not ask for.
func mergeResults(kind ppd.Kind, k int, parts []*server.V1Result) (*ResultJSON, error) {
	out := &ResultJSON{}
	out.Kind = kind.String()
	for _, p := range parts {
		if p == nil {
			continue
		}
		out.Solves += p.Solves
		out.CacheHits += p.CacheHits
	}
	switch kind {
	case ppd.KindBool, ppd.KindCount, ppd.KindCountDist:
		rows := concatPerSession(parts)
		fold := ppd.BoolAggregate(sessionProbs(rows))
		out.Prob = fold.Prob
		out.Count = fold.Count
		out.LiveSessions = len(rows)
		out.PerSession = rows
		if kind == ppd.KindCountDist {
			n := 0
			for _, p := range parts {
				if p == nil {
					continue
				}
				if p.CountDist == nil {
					return nil, fmt.Errorf("cluster: countdist partition answer missing countdist section")
				}
				n += p.CountDist.N
			}
			dist, err := ppd.CountDistFromSessions(sessionProbs(rows), n)
			if err != nil {
				return nil, fmt.Errorf("cluster: merging count distribution: %w", err)
			}
			out.CountDist = &server.CountDistJSON{
				N:      dist.N(),
				Mean:   dist.Mean(),
				StdDev: dist.StdDev(),
				Mode:   dist.Mode(),
				Median: dist.Quantile(0.5),
				Lo95:   dist.Quantile(0.025),
				Hi95:   dist.Quantile(0.975),
				PMF:    dist.PMF,
			}
		}
		out.Plan = mergePlans(parts)
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
			if p.Diag != nil {
				if out.Diag == nil {
					out.Diag = &server.TopKDiagJSON{}
				}
				out.Diag.BoundSolves += p.Diag.BoundSolves
				out.Diag.BoundCacheHits += p.Diag.BoundCacheHits
				out.Diag.ExactSolves += p.Diag.ExactSolves
				out.Diag.SessionsEvaluated += p.Diag.SessionsEvaluated
				out.Diag.CacheHits += p.Diag.CacheHits
			}
			out.LiveSessions += p.LiveSessions
		}
		sort.SliceStable(tops, func(i, j int) bool { return tops[i].Prob > tops[j].Prob })
		if len(tops) > k {
			tops = tops[:k]
		}
		out.Top = tops
		out.Plan = mergePlans(parts)
	case ppd.KindConsensus:
		// Partition rows concatenate in partition order (= session order)
		// and the coordinator re-solves them through the same fold a single
		// process runs; the target and item domain are partition-invariant,
		// so the first surviving partition supplies them.
		var rows []consensus.Row
		var target string
		var domain []string
		found := false
		for _, p := range parts {
			if p == nil {
				continue
			}
			if p.Consensus == nil {
				return nil, fmt.Errorf("cluster: consensus partition answer missing consensus section")
			}
			if !found {
				found = true
				target = p.Consensus.Target
				domain = p.Consensus.Domain
			}
			rows = append(rows, p.Consensus.Rows...)
		}
		if !found {
			return nil, fmt.Errorf("cluster: consensus merge has no partition answers")
		}
		merged, err := server.MergeConsensus(target, domain, k, rows)
		if err != nil {
			return nil, fmt.Errorf("cluster: %w", err)
		}
		out.Consensus = merged
	case ppd.KindAggregate:
		var rows []ppd.AggRow
		for _, p := range parts {
			if p == nil {
				continue
			}
			if p.Aggregate == nil {
				return nil, fmt.Errorf("cluster: aggregate partition answer missing aggregate section")
			}
			for _, r := range p.Aggregate.Rows {
				rows = append(rows, ppd.AggRow{Prob: r.Prob, Value: r.Value})
			}
		}
		fold := ppd.FoldAggregateRows(rows)
		out.Count = fold.Count
		out.Aggregate = &server.AggregateJSON{Sum: fold.Sum, Count: fold.Count, Sessions: fold.Sessions}
		if !math.IsNaN(fold.Avg) {
			avg := fold.Avg
			out.Aggregate.Avg = &avg
		}
		for _, r := range rows {
			out.Aggregate.Rows = append(out.Aggregate.Rows, server.AggRowJSON{Prob: r.Prob, Value: r.Value})
		}
	default:
		return nil, fmt.Errorf("cluster: unknown kind %v", kind)
	}
	return out, nil
}

// concatPerSession concatenates the partitions' per-session rows in
// partition order (= session order, partitions being contiguous ranges).
func concatPerSession(parts []*server.V1Result) []server.SessionProbJSON {
	var rows []server.SessionProbJSON
	for _, p := range parts {
		if p == nil {
			continue
		}
		rows = append(rows, p.PerSession...)
	}
	return rows
}

// sessionProbs adapts wire rows to ppd.SessionProb for refolding. The
// aggregation code reads only Prob, so the nil Session is safe.
func sessionProbs(rows []server.SessionProbJSON) []ppd.SessionProb {
	sps := make([]ppd.SessionProb, len(rows))
	for i, r := range rows {
		sps[i].Prob = r.Prob
	}
	return sps
}

// mergePlans combines adaptive-planner reports. Unlike the answer sections,
// a distributed plan is advisory, not bit-identical: group counts and
// samples sum exactly, but the merged half-widths are conservative
// combinations (max for the per-group bound, sums for the propagated ones)
// rather than a re-derivation.
func mergePlans(parts []*server.V1Result) *server.PlanJSON {
	var out *server.PlanJSON
	for _, p := range parts {
		if p == nil || p.Plan == nil {
			continue
		}
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

// stripRows returns res shaped for emission: when the client did not ask
// for per-session rows, the merged form's rows are dropped from a shallow
// copy (the cached entry keeps them for the next caller).
func stripRows(res *ResultJSON, perSession bool) *ResultJSON {
	if perSession {
		return res
	}
	out := *res
	out.PerSession = nil
	if out.Aggregate != nil && out.Aggregate.Rows != nil {
		agg := *out.Aggregate
		agg.Rows = nil
		out.Aggregate = &agg
	}
	if out.Consensus != nil && out.Consensus.Rows != nil {
		cj := *out.Consensus
		cj.Rows = nil
		out.Consensus = &cj
	}
	return &out
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
