package ppd

import (
	"context"
	"fmt"
)

// Do is the engine's single entry point: it validates the request with
// Compile and answers it according to its Kind.
//
// Request.Method and Request.Seed, when set, choose the method and the
// sampler seed of this call in place of the engine's Method and default
// base seed (see Engine.Rng); Request.Deadline arms a context deadline on
// top of ctx, or under MethodAdaptive a work budget priced once (see
// Engine.start). The Model field is ignored at this layer: the engine
// serves whatever database it holds, and model routing happens in
// internal/server.
func (e *Engine) Do(ctx context.Context, req *Request) (*Response, error) {
	cr, err := req.Compile()
	if err != nil {
		return nil, err
	}
	return e.DoCompiled(ctx, cr)
}

// DoCompiled is Do for an already-compiled request; batch planners compile
// once and execute many times (possibly against several engines).
func (e *Engine) DoCompiled(ctx context.Context, cr *CompiledRequest) (*Response, error) {
	rn, ctx, cancel := e.start(ctx, cr.Method, cr.Seed, cr.Deadline)
	defer cancel()
	switch cr.Kind {
	case KindBool, KindCount, KindCountDist, KindAggregate:
		res, err := e.doGrouped(ctx, rn, []*CompiledRequest{cr})
		if err != nil {
			return nil, err
		}
		return res.Responses[0], nil
	case KindTopK:
		return e.topKUnion(ctx, rn, cr)
	case KindConsensus:
		return e.consensusUnion(ctx, rn, cr)
	}
	return nil, fmt.Errorf("ppd: unknown kind %v", cr.Kind)
}

// CountDistFromSessions builds the exact count(Q) distribution from the
// live per-session probabilities of an evaluation, padding the
// structurally-unsatisfiable sessions (empty grounded union, absent from
// PerSession) with probability zero so the support is the full session
// count of the queried p-relation. It is the shared construction of the
// engine's countdist kind and the coordinator's merge (internal/cluster).
func CountDistFromSessions(per []SessionProb, sessions int) (*CountDistribution, error) {
	probs := make([]float64, 0, sessions)
	for _, sp := range per {
		probs = append(probs, sp.Prob)
	}
	for len(probs) < sessions {
		probs = append(probs, 0) // structurally-unsatisfiable sessions
	}
	return NewCountDistribution(probs)
}
