package ppd

import (
	"context"
	"fmt"
	"math/rand"

	"probpref/internal/consensus"
	"probpref/internal/label"
	"probpref/internal/pattern"
	"probpref/internal/rank"
)

// This file is the engine side of the consensus query kind (Kind:
// consensus, internal/consensus): it reduces the union-conditioned session
// population to one consensus.Row of sufficient statistics per live
// session — exact permutation enumeration when the item count (or an
// adaptive budget) allows, per-session-seeded rejection sampling otherwise
// — and folds the rows with consensus.Solve. Because rows are per-session
// and the fold is sequential in session order, the cluster coordinator
// reproduces this path byte-identically by concatenating per-partition
// rows and re-solving centrally (internal/cluster's merge).

// DefaultConsensusDraws is the per-session Monte Carlo draw count of a
// sampled consensus evaluation.
const DefaultConsensusDraws = 2000

// ConsensusResult is the consensus section of a Response: the folded
// answer plus the item-key domain (decoding the model-internal item ids of
// rankings and mode keys) and the per-session rows behind it. The rows
// make the answer mergeable: a coordinator concatenates partition rows in
// session order and re-solves, matching a single process bit for bit.
type ConsensusResult struct {
	// Result is the folded consensus answer.
	consensus.Result
	// Domain maps item ids to their catalog keys (Domain[i] names item i).
	Domain []string
	// Rows holds the per-session sufficient statistics in session order.
	Rows []consensus.Row
}

// consensusUnion answers a consensus request: route exact or sampled,
// build per-session rows, fold them. Sessions whose grounded union is
// empty (structurally unsatisfiable) or whose conditioned mass/accept
// count is zero are omitted — the population is "sessions that can
// satisfy the query", mirroring the PerSession semantics of the
// evaluation kinds.
func (e *Engine) consensusUnion(ctx context.Context, rn run, cr *CompiledRequest) (*Response, error) {
	gr, err := e.DB.Ground(ctx, cr.Union)
	if err != nil {
		return nil, err
	}
	m := e.DB.M()
	exact, err := e.consensusRoute(rn, m, gr.Sessions)
	if err != nil {
		return nil, err
	}
	var rows []consensus.Row
	if exact {
		rows, err = e.consensusExactRows(ctx, gr, cr)
	} else {
		rows, err = e.consensusSampledRows(ctx, e.baseSeed(rn.seed), gr, cr)
	}
	if err != nil {
		return nil, err
	}
	res, err := consensus.Solve(rows, consensus.Params{Target: cr.Target, M: m, K: cr.K})
	if err != nil {
		return nil, err
	}
	domain := make([]string, m)
	for i := range domain {
		domain[i] = e.DB.ItemKey(rank.Item(i))
	}
	return &Response{
		Kind:      KindConsensus,
		Consensus: &ConsensusResult{Result: *res, Domain: domain, Rows: rows},
	}, nil
}

// consensusRoute decides exact enumeration vs rejection sampling: a method
// that may sample samples, and an exact one enumerates. Exact consensus
// evaluates all m! rankings per session, so it is capped at
// consensus.MaxExactM items: an explicitly exact method beyond the cap is
// an error, MethodAuto degrades to sampling, and MethodAdaptive
// additionally compares EstimateConsensusCost against its budget: the
// priced deadline, or without one the price of the sampled rows the
// request would otherwise get (DefaultConsensusDraws draws for each
// session).
func (e *Engine) consensusRoute(rn run, m, sessions int) (bool, error) {
	r := rn.method.row()
	switch {
	case rn.method == MethodAdaptive:
		if m > consensus.MaxExactM {
			return false, nil
		}
		budget := rn.budget
		if !rn.priced {
			budget = e.adaptiveBudget(float64(sessions) * drawPrice(e.knobs().consensusN, m))
		}
		return EstimateConsensusCost(m, sessions).States <= budget, nil
	case r.sampled != nil:
		return false, nil
	case r.exact == nil:
		return false, rn.method.errUnknown()
	case m <= consensus.MaxExactM:
		return true, nil
	case rn.method == MethodAuto:
		return false, nil
	}
	return false, fmt.Errorf("ppd: exact consensus enumerates m! rankings and m = %d exceeds the exact limit %d; use a sampling method or adaptive", m, consensus.MaxExactM)
}

// consensusExactRows enumerates every ranking of every live session,
// accumulating the requested target's probability-mass numerators over
// the rankings matching the session's grounded union.
func (e *Engine) consensusExactRows(ctx context.Context, gr *Grounded, cr *CompiledRequest) ([]consensus.Row, error) {
	m := e.DB.M()
	matchers := groupMatchers(gr, e.DB.Labeling(), m)
	var rows []consensus.Row
	for li, ls := range gr.Live {
		if li&7 == 0 {
			if ctx.Err() != nil {
				return nil, context.Cause(ctx)
			}
		}
		s, mt := ls.Session, matchers[ls.Group]
		row := consensus.Row{Session: s.Key}
		switch cr.Target {
		case consensus.TargetMedian:
			row.Pair = make([]float64, m*m)
		case consensus.TargetTopK:
			row.Top = make([]float64, m)
		case consensus.TargetMAP:
			row.Mode = make(map[string]float64)
		}
		var stop error
		count := 0
		rank.ForEachPermutation(m, func(tau rank.Ranking) bool {
			if count&1023 == 0 {
				if ctx.Err() != nil {
					stop = context.Cause(ctx)
					return false
				}
			}
			count++
			if !mt.Matches(tau) {
				return true
			}
			p := s.Model.Prob(tau)
			if p == 0 {
				return true
			}
			row.Weight += p
			switch cr.Target {
			case consensus.TargetMedian:
				for i := 0; i < m; i++ {
					for j := i + 1; j < m; j++ {
						row.Pair[int(tau[i])*m+int(tau[j])] += p
					}
				}
			case consensus.TargetTopK:
				for pos := 0; pos < cr.K && pos < m; pos++ {
					row.Top[tau[pos]] += p
				}
			case consensus.TargetMAP:
				row.Mode[tau.Key()] += p
			}
			return true
		})
		if stop != nil {
			return nil, stop
		}
		if row.Weight > 0 {
			rows = append(rows, row)
		}
	}
	return rows, nil
}

// consensusSampledRows estimates each live session's statistics by
// rejection sampling: DefaultConsensusDraws draws per session from the
// session's model, accepting rankings that match its grounded union. Each
// session draws from its own stream, seeded from the evaluation's base
// seed and the session key (streamSeed), so the counters depend only on
// (base seed, session key) — not on which process, partition or iteration
// order evaluates the session. That is what makes sampled consensus answers byte-identical
// between a single process and the sharded coordinator.
func (e *Engine) consensusSampledRows(ctx context.Context, base int64, gr *Grounded, cr *CompiledRequest) ([]consensus.Row, error) {
	m := e.DB.M()
	matchers := groupMatchers(gr, e.DB.Labeling(), m)
	draws := e.knobs().consensusN
	var rows []consensus.Row
	var tau rank.Ranking // one draw buffer for every session
	for _, ls := range gr.Live {
		if ctx.Err() != nil {
			return nil, context.Cause(ctx)
		}
		s, mt := ls.Session, matchers[ls.Group]
		rng := rand.New(rand.NewSource(streamSeed(base, s.Key...)))
		row := consensus.Row{Session: s.Key, Sampled: true, Draws: int64(draws)}
		switch cr.Target {
		case consensus.TargetMedian:
			row.PairN = make([]int64, m*m)
		case consensus.TargetTopK:
			row.TopN = make([]int64, m)
		case consensus.TargetMAP:
			row.ModeN = make(map[string]int64)
		}
		for d := 0; d < draws; d++ {
			if d&511 == 0 {
				if ctx.Err() != nil {
					return nil, context.Cause(ctx)
				}
			}
			tau = s.Model.SampleInto(rng, tau)
			if !mt.Matches(tau) {
				continue
			}
			row.Accepts++
			switch cr.Target {
			case consensus.TargetMedian:
				for i, x := range tau {
					ahead := row.PairN[int(x)*m : int(x)*m+m]
					for _, y := range tau[i+1:] {
						ahead[y]++
					}
				}
			case consensus.TargetTopK:
				for pos := 0; pos < cr.K && pos < m; pos++ {
					row.TopN[tau[pos]]++
				}
			case consensus.TargetMAP:
				row.ModeN[tau.Key()]++
			}
		}
		if row.Accepts > 0 {
			rows = append(rows, row)
		}
	}
	return rows, nil
}

// groupMatchers compiles the union of every group of gr against lab, once
// per request: the row builders test thousands of rankings per session, a
// group's sessions share its matcher, and so do the groups that differ in
// their model alone.
func groupMatchers(gr *Grounded, lab *label.Labeling, m int) []*pattern.Matcher {
	mts := make([]*pattern.Matcher, len(gr.Groups))
	byUnion := make(map[string]*pattern.Matcher)
	for g, grp := range gr.Groups {
		mt, ok := byUnion[grp.id.union]
		if !ok {
			mt = pattern.CompileMatcher(grp.Union, lab, m)
			byUnion[grp.id.union] = mt
		}
		mts[g] = mt
	}
	return mts
}
