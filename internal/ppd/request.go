package ppd

import (
	"context"
	"fmt"
	"iter"
	"strings"
	"time"

	"probpref/internal/consensus"
)

// This file defines the unified request/response pair of the query API:
// every query class of the paper — Boolean, Count-Session,
// Most-Probable-Session, plus the aggregation and count-distribution
// extensions — is one Request, validated by Compile and answered by
// Engine.Do (or, with model routing, batching and caching, by
// internal/server's Service.Do / Service.DoBatch and the daemon's
// POST /v1/query).

// Kind selects the query class of a Request.
type Kind int

const (
	// KindBool asks for the Boolean confidence Pr(Q | D).
	KindBool Kind = iota
	// KindCount asks for the Count-Session expectation count(Q).
	KindCount
	// KindTopK asks for the Most-Probable-Session answer top(Q, k).
	KindTopK
	// KindAggregate asks for sum/avg of a numeric attribute over the
	// satisfying sessions (Request.AggRel / Request.AggAttr).
	KindAggregate
	// KindCountDist asks for the exact Poisson-binomial distribution of
	// count(Q).
	KindCountDist
	// KindConsensus asks for a consensus answer over the union-conditioned
	// session population — a MAP ranking, an expected-Kendall-tau median
	// ranking, or consensus top-k membership with certainty bands —
	// selected by Request.ConsensusTarget (internal/consensus).
	KindConsensus
)

// String returns the canonical kind name (the form ParseKind accepts and
// the HTTP API serves).
func (k Kind) String() string {
	switch k {
	case KindBool:
		return "bool"
	case KindCount:
		return "count"
	case KindTopK:
		return "topk"
	case KindAggregate:
		return "aggregate"
	case KindCountDist:
		return "countdist"
	case KindConsensus:
		return "consensus"
	}
	return fmt.Sprintf("kind(%d)", int(k))
}

// KindNames lists the canonical kind names ParseKind accepts, in the order
// the CLIs and the HTTP API document them.
func KindNames() []string {
	return []string{"bool", "count", "topk", "aggregate", "countdist", "consensus"}
}

// ParseKind resolves a kind name (as printed by Kind.String) to its Kind;
// it is the shared parser of the CLI -mode flag and the HTTP "kind" field.
// The error of an unknown name enumerates the valid names, mirroring
// ParseMethod.
func ParseKind(s string) (Kind, error) {
	switch strings.ToLower(s) {
	case "bool", "boolean":
		return KindBool, nil
	case "count":
		return KindCount, nil
	case "topk", "top-k":
		return KindTopK, nil
	case "aggregate", "agg":
		return KindAggregate, nil
	case "countdist", "count-dist":
		return KindCountDist, nil
	case "consensus":
		return KindConsensus, nil
	}
	return 0, fmt.Errorf("unknown kind %q (valid: %s)", s, strings.Join(KindNames(), " | "))
}

// Request is the single typed request shape of the query API: one value
// describes any query the engine can answer, and every layer — Engine.Do,
// the service layer's Do/DoBatch, the daemon's POST /v1/query — speaks it.
// Compile validates the field combination and produces the executable form.
type Request struct {
	// Kind selects the query class.
	Kind Kind
	// Query is the textual query: a conjunctive query in the paper's
	// datalog notation, or a "|"-separated union of CQs (see ParseUnion).
	// Exactly one of Query and Queries must be set.
	Query string
	// Queries is the pre-parsed alternative to Query: the disjuncts of the
	// union (a single-element slice for a plain CQ).
	Queries []*Query
	// Model names the registry model to run against; "" selects the
	// service's default. Engine.Do serves whatever database the engine
	// holds — model routing happens in the service layer.
	Model string
	// Method forces the per-session inference solver. The zero value
	// (MethodAuto) keeps the engine's (or service's) configured method,
	// which dispatches to the most specific exact solver by default.
	Method Method
	// K is how many sessions a topk request returns (required, >= 1, for
	// KindTopK; must stay zero for every other kind).
	K int
	// BoundEdges is the number of upper-bound edges of the topk
	// optimization (0 = the naive strategy; only valid for KindTopK).
	BoundEdges int
	// Deadline arms a per-request deadline: with MethodAdaptive it is the
	// planner's work budget, priced once at AdaptiveStatesPerSecond, so groups
	// it cannot buy are sampled with error bars and the clock changes nothing;
	// with every other method the evaluation aborts when it expires. 0 means
	// the caller's context governs alone.
	Deadline time.Duration
	// Seed reseeds the sampling methods for this request; 0 keeps the
	// engine's (or service's) configured seed.
	Seed int64
	// AggRel names the o-relation providing the aggregated attribute
	// (required for KindAggregate, rejected otherwise).
	AggRel string
	// AggAttr names the numeric attribute of AggRel to aggregate
	// (required for KindAggregate, rejected otherwise).
	AggAttr string
	// ConsensusTarget selects the consensus answer of a KindConsensus
	// request — consensus.TargetMAP, TargetMedian or TargetTopK (required
	// for KindConsensus, rejected otherwise; TargetTopK also requires K).
	ConsensusTarget consensus.Target
}

// Compile validates the request and resolves it into its executable form.
// Contradictory field combinations — an unknown Kind, both or neither of
// Query/Queries, K on a non-topk request, aggregation fields on a
// non-aggregate request, negative K/BoundEdges/Deadline — are rejected with
// errors that enumerate the valid values where a closed set exists.
func (r *Request) Compile() (*CompiledRequest, error) {
	if r.Kind < KindBool || r.Kind > KindConsensus {
		return nil, fmt.Errorf("ppd: unknown kind %d (valid: %s)", int(r.Kind), strings.Join(KindNames(), " | "))
	}
	if r.Method.row().name == "" {
		return nil, fmt.Errorf("ppd: unknown method %d (valid: %s)", int(r.Method), strings.Join(MethodNames(), " | "))
	}
	var uq *UnionQuery
	switch {
	case r.Query != "" && len(r.Queries) > 0:
		return nil, fmt.Errorf("ppd: request sets both Query and Queries; pick one")
	case r.Query != "":
		var err error
		if uq, err = ParseUnion(r.Query); err != nil {
			return nil, err
		}
	case len(r.Queries) == 1:
		// Validate the lone query directly so single-query errors keep the
		// exact text of the per-kind entry points (no "disjunct 1" prefix).
		if err := r.Queries[0].Validate(); err != nil {
			return nil, err
		}
		uq = &UnionQuery{Disjuncts: r.Queries}
	case len(r.Queries) > 1:
		uq = &UnionQuery{Disjuncts: r.Queries}
		if err := uq.Validate(); err != nil {
			return nil, err
		}
	default:
		return nil, fmt.Errorf("ppd: request has no query (set Query or Queries)")
	}
	if r.Kind == KindConsensus {
		if r.ConsensusTarget == consensus.TargetNone {
			return nil, fmt.Errorf("ppd: kind consensus requires a consensus target (valid: %s)", strings.Join(consensus.TargetNames(), " | "))
		}
		if r.ConsensusTarget < consensus.TargetMAP || r.ConsensusTarget > consensus.TargetTopK {
			return nil, fmt.Errorf("ppd: unknown consensus target %d (valid: %s)", int(r.ConsensusTarget), strings.Join(consensus.TargetNames(), " | "))
		}
	} else if r.ConsensusTarget != consensus.TargetNone {
		return nil, fmt.Errorf("ppd: ConsensusTarget is only valid for kind consensus, not %s", r.Kind)
	}
	switch {
	case r.Kind == KindTopK:
		if r.K < 1 {
			return nil, fmt.Errorf("ppd: kind topk requires K >= 1, got %d", r.K)
		}
		if r.BoundEdges < 0 {
			return nil, fmt.Errorf("ppd: BoundEdges must be non-negative, got %d", r.BoundEdges)
		}
	case r.Kind == KindConsensus && r.ConsensusTarget == consensus.TargetTopK:
		if r.K < 1 {
			return nil, fmt.Errorf("ppd: consensus target topk requires K >= 1, got %d", r.K)
		}
		if r.BoundEdges != 0 {
			return nil, fmt.Errorf("ppd: BoundEdges is only valid for kind topk, not %s", r.Kind)
		}
	default:
		if r.K != 0 {
			if r.Kind == KindConsensus {
				return nil, fmt.Errorf("ppd: K is only valid for consensus target topk, not %s", r.ConsensusTarget)
			}
			return nil, fmt.Errorf("ppd: K is only valid for kind topk, not %s", r.Kind)
		}
		if r.BoundEdges != 0 {
			return nil, fmt.Errorf("ppd: BoundEdges is only valid for kind topk, not %s", r.Kind)
		}
	}
	if r.Kind == KindAggregate {
		if r.AggRel == "" || r.AggAttr == "" {
			return nil, fmt.Errorf("ppd: kind aggregate requires AggRel and AggAttr")
		}
		if len(uq.Disjuncts) > 1 {
			return nil, fmt.Errorf("ppd: kind aggregate does not support union queries (%d disjuncts)", len(uq.Disjuncts))
		}
	} else if r.AggRel != "" || r.AggAttr != "" {
		return nil, fmt.Errorf("ppd: AggRel/AggAttr are only valid for kind aggregate, not %s", r.Kind)
	}
	if r.Deadline < 0 {
		return nil, fmt.Errorf("ppd: Deadline must be non-negative, got %v", r.Deadline)
	}
	return &CompiledRequest{
		Kind:       r.Kind,
		Union:      uq,
		Model:      r.Model,
		Method:     r.Method,
		K:          r.K,
		BoundEdges: r.BoundEdges,
		Deadline:   r.Deadline,
		Seed:       r.Seed,
		AggRel:     r.AggRel,
		AggAttr:    r.AggAttr,
		Target:     r.ConsensusTarget,
	}, nil
}

// MustCompile is Compile but panics on error; it is a convenience for tests
// and examples with literal requests.
func (r *Request) MustCompile() *CompiledRequest {
	cr, err := r.Compile()
	if err != nil {
		panic(err)
	}
	return cr
}

// CompiledRequest is the validated, executable form of a Request: the query
// text is parsed into its union, the field combination is known to be
// consistent, and Key gives a canonical identity for request-level caching
// and deduplication. Build one with Request.Compile.
type CompiledRequest struct {
	// Kind is the validated query class.
	Kind Kind
	// Union holds the parsed disjuncts (one for a plain CQ).
	Union *UnionQuery
	// Model is the registry model name ("" = default); routing happens in
	// the service layer.
	Model string
	// Method is the forced solver (MethodAuto = keep the configured one).
	Method Method
	// K and BoundEdges carry the topk parameters (zero otherwise).
	K, BoundEdges int
	// Deadline is the per-request deadline (0 = none; see Request.Deadline).
	Deadline time.Duration
	// Seed reseeds the samplers (0 = keep the configured seed).
	Seed int64
	// AggRel and AggAttr carry the aggregation target (empty otherwise).
	AggRel, AggAttr string
	// Target carries the consensus target (TargetNone otherwise).
	Target consensus.Target
}

// Key returns the canonical identity of the compiled request: two requests
// with equal keys ask for the same computation against the same model, so
// batch planners deduplicate on it and caches may key response entries off
// it. The query part uses the union's canonical printed form.
func (cr *CompiledRequest) Key() string {
	return fmt.Sprintf("%s|%s|%s|k=%d|b=%d|d=%d|s=%d|t=%s|%s.%s|%s",
		cr.Kind, cr.Model, cr.Method, cr.K, cr.BoundEdges, cr.Deadline, cr.Seed,
		cr.Target, cr.AggRel, cr.AggAttr, cr.Union)
}

// Response is the unified answer of the query API: one struct carries the
// result of any Kind, with the unused sections left zero.
type Response struct {
	// Kind echoes the request's query class.
	Kind Kind
	// Prob is the Boolean confidence Pr(Q | D) (bool, count and countdist
	// kinds).
	Prob float64
	// Count is the Count-Session expectation (bool, count, countdist and
	// aggregate kinds).
	Count float64
	// PerSession holds the per-session probabilities in p-relation order
	// (bool, count and countdist kinds; empty-union sessions are omitted).
	PerSession []SessionProb
	// Top lists the k most probable sessions, best first (topk kind).
	Top []SessionProb
	// Agg is the aggregation answer (aggregate kind).
	Agg *AggregateResult
	// Dist is the exact count distribution (countdist kind).
	Dist *CountDistribution
	// Solves counts fresh solver invocations behind the answer.
	Solves int
	// CacheHits counts inference groups answered through a solve cache:
	// found in it, or read off the query's grounding, where an earlier
	// request through the same cache left the answer (see SolveCache).
	CacheHits int
	// Plan reports MethodAdaptive's routing decisions and confidence
	// half-widths; nil for every other method.
	Plan *PlanStats
	// Diag reports the work of a topk evaluation (topk kind).
	Diag *TopKDiag
	// Consensus is the consensus answer (consensus kind).
	Consensus *ConsensusResult
}

// Sessions streams the response's per-session rows — the top-k answers for
// a topk response, the per-session probabilities otherwise — as a pull
// iterator. Consumers that forward rows one at a time (the daemon's NDJSON
// streaming, pagination layers) iterate instead of materializing; a done
// ctx stops the stream between rows, yielding the context's cause as the
// final error.
func (r *Response) Sessions(ctx context.Context) iter.Seq2[SessionProb, error] {
	rows := r.PerSession
	if r.Kind == KindTopK {
		rows = r.Top
	}
	return func(yield func(SessionProb, error) bool) {
		for _, sp := range rows {
			if err := ctx.Err(); err != nil {
				yield(SessionProb{}, context.Cause(ctx))
				return
			}
			if !yield(sp, nil) {
				return
			}
		}
	}
}
