package server

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"time"

	"probpref/internal/consensus"
	"probpref/internal/ppd"
)

// This file is the versioned HTTP surface: POST /v1/query accepts the wire
// form of the unified ppd.Request — one endpoint for every query kind,
// single or batch, with NDJSON streaming of session rows. DecodeV1Query is
// its front half — body in, validated compiled requests out — shared with
// POST /v1/rows and with the cluster coordinator's /v1/query, so every tier
// rejects a malformed body with the same first error.

// V1Request is the wire form of one unified query request (the body of
// POST /v1/query, or one element of its "requests" batch).
type V1Request struct {
	// Kind is the query class:
	// bool | count | topk | aggregate | countdist | consensus.
	Kind string `json:"kind"`
	// Query is the conjunctive query, or a "|"-union of CQs.
	Query string `json:"query"`
	// Model names the catalog model to run against ("" = default).
	Model string `json:"model,omitempty"`
	// Method forces the inference solver ("" keeps the daemon's -method).
	Method string `json:"method,omitempty"`
	// Target selects the consensus answer for kind consensus:
	// map | median | topk (required for that kind).
	Target string `json:"target,omitempty"`
	// K is how many sessions a topk request returns (required for topk),
	// or the cutoff of consensus target topk.
	K int `json:"k,omitempty"`
	// Bound is the number of topk upper-bound edges (0 = naive).
	Bound int `json:"bound,omitempty"`
	// TimeoutMS arms a per-request deadline: the adaptive planner prices it
	// once as a work budget (degrading to sampling with error bars, and the
	// same answer on any box); otherwise the evaluation aborts when it expires.
	TimeoutMS int `json:"timeout_ms,omitempty"`
	// Seed reseeds the sampling methods for this request (0 keeps the
	// daemon's -seed).
	Seed int64 `json:"seed,omitempty"`
	// AggRel names the o-relation providing the aggregated attribute
	// (aggregate kind only).
	AggRel string `json:"agg_rel,omitempty"`
	// AggAttr names the numeric attribute of AggRel to aggregate
	// (aggregate kind only).
	AggAttr string `json:"agg_attr,omitempty"`
	// PerSession includes per-session probabilities in the result.
	PerSession bool `json:"per_session,omitempty"`
	// Stream switches a single request to an NDJSON response that emits one
	// session row per line: the topk rows for kind topk, the per-session
	// probabilities for kinds bool, count and countdist (not valid in a
	// batch, or for kind aggregate).
	Stream bool `json:"stream,omitempty"`
}

// V1Body is the body of POST /v1/query: either one request inline, or a
// batch of requests under "requests".
type V1Body struct {
	V1Request
	// Requests is the batch form; when set, the inline fields must be
	// empty.
	Requests []V1Request `json:"requests,omitempty"`
}

// AggregateJSON is the wire form of an aggregation answer.
type AggregateJSON struct {
	// Sum is E[sum of the attribute over satisfying sessions].
	Sum float64 `json:"sum"`
	// Count is E[number of satisfying sessions].
	Count float64 `json:"count"`
	// Avg is Sum / Count; omitted when Count is 0 (undefined).
	Avg *float64 `json:"avg,omitempty"`
	// Sessions counts sessions with a defined attribute value.
	Sessions int `json:"sessions"`
	// Rows lists the per-session (probability, value) terms the aggregates
	// fold over, in session order; included only with per_session set. A
	// distributed coordinator refolds concatenated partition rows through
	// ppd.FoldAggregateRows, reproducing Sum/Count/Avg bit-for-bit.
	Rows []AggRowJSON `json:"rows,omitempty"`
}

// AggRowJSON is the wire form of one session's aggregation term.
type AggRowJSON struct {
	// Prob is the session's satisfaction probability.
	Prob float64 `json:"prob"`
	// Value is the session's numeric attribute value.
	Value float64 `json:"value"`
}

// CountDistJSON is the wire form of an exact count distribution.
type CountDistJSON struct {
	// N is the number of sessions (the distribution's support is 0..N).
	N int `json:"n"`
	// Mean is the expected count (the Count-Session answer).
	Mean float64 `json:"mean"`
	// StdDev is the standard deviation of the count.
	StdDev float64 `json:"stddev"`
	// Mode is the most probable count.
	Mode int `json:"mode"`
	// Median is the 0.5-quantile of the count.
	Median int `json:"median"`
	// Lo95 is the lower bound of the central 95% interval.
	Lo95 int `json:"lo95"`
	// Hi95 is the upper bound of the central 95% interval.
	Hi95 int `json:"hi95"`
	// PMF[k] = Pr(exactly k sessions satisfy Q).
	PMF []float64 `json:"pmf"`
}

// V1Result is the unified wire form of one /v1/query answer: the sections
// a kind does not produce are omitted.
type V1Result struct {
	// Kind echoes the request's query class.
	Kind string `json:"kind"`
	// Prob is the Boolean confidence Pr(Q|D).
	Prob float64 `json:"prob"`
	// Count is the Count-Session expectation.
	Count float64 `json:"count"`
	// LiveSessions counts sessions with a non-empty grounded union.
	LiveSessions int `json:"live_sessions"`
	// Solves counts fresh solver invocations behind the answer.
	Solves int `json:"solves"`
	// CacheHits counts inference groups answered from the shared cache.
	CacheHits int `json:"cache_hits"`
	// Top lists the k most probable sessions, best first (topk kind).
	Top []SessionProbJSON `json:"top,omitempty"`
	// PerSession lists per-session probabilities (with per_session set).
	PerSession []SessionProbJSON `json:"per_session,omitempty"`
	// Diag reports the work of a topk evaluation.
	Diag *TopKDiagJSON `json:"diag,omitempty"`
	// Plan reports the adaptive planner's routing and confidence
	// half-widths (method "adaptive" only).
	Plan *PlanJSON `json:"plan,omitempty"`
	// Aggregate is the aggregation answer (aggregate kind).
	Aggregate *AggregateJSON `json:"aggregate,omitempty"`
	// CountDist is the exact count distribution (countdist kind).
	CountDist *CountDistJSON `json:"countdist,omitempty"`
	// Consensus is the consensus answer (consensus kind).
	Consensus *ConsensusJSON `json:"consensus,omitempty"`
}

// V1Response is the JSON (non-streaming) response of POST /v1/query.
type V1Response struct {
	// Result is the single-request answer.
	Result *V1Result `json:"result,omitempty"`
	// Results holds the batch answers, in request order.
	Results []V1Result `json:"results,omitempty"`
	// Batch reports the grouped path's dedup accounting (batch form only;
	// zeroes when the batch fanned out request-by-request).
	Batch *BatchJSON `json:"batch,omitempty"`
}

// ToRequest converts the wire request into the typed ppd.Request: the first
// validation stage of DecodeV1Query (names and ranges the wire form can get
// wrong; Compile checks the field combination).
func (vr *V1Request) ToRequest() (*ppd.Request, error) {
	kind, err := ppd.ParseKind(vr.Kind)
	if err != nil {
		return nil, err
	}
	req := &ppd.Request{
		Kind:       kind,
		Query:      vr.Query,
		Model:      vr.Model,
		K:          vr.K,
		BoundEdges: vr.Bound,
		Seed:       vr.Seed,
		AggRel:     vr.AggRel,
		AggAttr:    vr.AggAttr,
	}
	if vr.Method != "" {
		if req.Method, err = ppd.ParseMethod(vr.Method); err != nil {
			return nil, err
		}
	}
	if vr.Target != "" {
		if req.ConsensusTarget, err = consensus.ParseTarget(vr.Target); err != nil {
			return nil, err
		}
	}
	if vr.TimeoutMS < 0 {
		return nil, fmt.Errorf("timeout_ms must be non-negative")
	}
	req.Deadline = time.Duration(vr.TimeoutMS) * time.Millisecond
	return req, nil
}

// NewV1Result converts a unified response into its wire form; the cluster
// coordinator's merge shares its countdist and aggregate converters.
func NewV1Result(resp *ppd.Response, perSession bool) V1Result {
	out := v1Head(resp)
	for _, sp := range resp.Top {
		out.Top = append(out.Top, SessionProbJSON{Session: sp.Session.Key, Prob: sp.Prob})
	}
	if perSession {
		for _, sp := range resp.PerSession {
			out.PerSession = append(out.PerSession, SessionProbJSON{Session: sp.Session.Key, Prob: sp.Prob})
		}
		if a := resp.Agg; a != nil {
			out.Aggregate = NewAggregateJSON(a, true)
		}
		if c := resp.Consensus; c != nil {
			out.Consensus.Rows = c.Rows
		}
	}
	if d := resp.Dist; d != nil {
		out.CountDist = NewCountDistJSON(d)
	}
	return out
}

// NewCountDistJSON converts a count distribution into its wire form.
func NewCountDistJSON(d *ppd.CountDistribution) *CountDistJSON {
	return &CountDistJSON{
		N:      d.N(),
		Mean:   d.Mean(),
		StdDev: d.StdDev(),
		Mode:   d.Mode(),
		Median: d.Quantile(0.5),
		Lo95:   d.Quantile(0.025),
		Hi95:   d.Quantile(0.975),
		PMF:    d.PMF,
	}
}

// NewAggregateJSON converts an aggregation answer into its wire form, with
// its per-session terms when rows is set.
func NewAggregateJSON(a *ppd.AggregateResult, rows bool) *AggregateJSON {
	out := &AggregateJSON{Sum: a.Sum, Count: a.Count, Sessions: a.Sessions}
	if !math.IsNaN(a.Avg) {
		avg := a.Avg
		out.Avg = &avg
	}
	if rows {
		for _, r := range a.Rows {
			out.Rows = append(out.Rows, AggRowJSON{Prob: r.Prob, Value: r.Value})
		}
	}
	return out
}

// v1Head converts everything of a unified response but its rows and its
// count distribution — counters, diagnostics, plan, aggregate sums, the
// consensus answer — into the wire form: the part the /v1/query JSON and the
// head of a /v1/rows frame (rows.go) have in common.
func v1Head(resp *ppd.Response) V1Result {
	out := V1Result{
		Kind:         resp.Kind.String(),
		Prob:         resp.Prob,
		Count:        resp.Count,
		LiveSessions: len(resp.PerSession),
		Solves:       resp.Solves,
		CacheHits:    resp.CacheHits,
	}
	if d := resp.Diag; d != nil {
		out.Diag = &TopKDiagJSON{
			BoundSolves:       d.BoundSolves,
			BoundCacheHits:    d.BoundCacheHits,
			ExactSolves:       d.ExactSolves,
			SessionsEvaluated: d.SessionsEvaluated,
			CacheHits:         d.CacheHits,
		}
	}
	if p := resp.Plan; p != nil {
		out.Plan = &PlanJSON{
			ExactGroups:    p.ExactGroups,
			SampledGroups:  p.SampledGroups,
			Samples:        p.Samples,
			MaxHalfWidth:   p.MaxHalfWidth,
			ProbHalfWidth:  p.ProbHalfWidth,
			CountHalfWidth: p.CountHalfWidth,
			Methods:        p.Methods,
		}
	}
	if a := resp.Agg; a != nil {
		out.Aggregate = NewAggregateJSON(a, false)
	}
	if c := resp.Consensus; c != nil {
		out.Consensus = consensusJSON(&c.Result, c.Domain)
	}
	return out
}

// V1Query is a POST /v1/query body decoded, validated and compiled.
type V1Query struct {
	// Body is the decoded body.
	Body V1Body
	// Compiled holds the compiled requests in request order: the elements of
	// Body.Requests for the batch form, the one inline request otherwise.
	Compiled []*ppd.CompiledRequest
}

// Batch reports whether the body used the "requests" form.
func (q *V1Query) Batch() bool { return len(q.Body.Requests) > 0 }

// Wire returns the wire form of request i.
func (q *V1Query) Wire(i int) *V1Request {
	if q.Batch() {
		return &q.Body.Requests[i]
	}
	return &q.Body.V1Request
}

// DecodeV1Query is the one front half of POST /v1/query: it decodes the body
// (unknown fields rejected), checks the batch shape, and takes every request
// through ToRequest, the stream allowlist and Compile, in request order. The
// shard's /v1/query and /v1/rows routes and the cluster coordinator all call
// it, so the first error of a malformed body is the same bytes on every
// tier, and each request is compiled exactly once. Errors of a batch element
// carry a "query N: " prefix (N counts from 1).
func DecodeV1Query(body io.Reader) (*V1Query, error) {
	dec := json.NewDecoder(body)
	dec.DisallowUnknownFields()
	q := &V1Query{}
	if err := dec.Decode(&q.Body); err != nil {
		return nil, fmt.Errorf("decoding body: %w", err)
	}
	if !q.Batch() {
		cr, err := q.Body.V1Request.compile()
		if err != nil {
			return nil, err
		}
		q.Compiled = []*ppd.CompiledRequest{cr}
		return q, nil
	}
	// Any inline request field alongside "requests" is rejected rather than
	// silently ignored: a top-level model or timeout_ms that did not apply
	// would return well-formed but wrong answers.
	if q.Body.V1Request != (V1Request{}) {
		return nil, fmt.Errorf("batch body must not mix inline request fields with requests; set fields per request")
	}
	q.Compiled = make([]*ppd.CompiledRequest, len(q.Body.Requests))
	for i := range q.Body.Requests {
		vr := &q.Body.Requests[i]
		if vr.Stream {
			return nil, fmt.Errorf("query %d: stream is only valid for a single request", i+1)
		}
		cr, err := vr.compile()
		if err != nil {
			return nil, fmt.Errorf("query %d: %w", i+1, err)
		}
		q.Compiled[i] = cr
	}
	return q, nil
}

// compile validates one wire request: ToRequest, then the stream allowlist,
// then Compile.
func (vr *V1Request) compile() (*ppd.CompiledRequest, error) {
	req, err := vr.ToRequest()
	if err != nil {
		return nil, err
	}
	if vr.Stream {
		switch req.Kind {
		case ppd.KindTopK, ppd.KindBool, ppd.KindCount, ppd.KindCountDist:
		default:
			return nil, fmt.Errorf("stream is not valid for kind %s (topk, bool, count and countdist stream session rows)", req.Kind)
		}
	}
	return req.Compile()
}

// v1Answer is an executed /v1/query body: what the JSON response and the
// /v1/rows frame are both rendered from.
type v1Answer struct {
	// q is the decoded body.
	q *V1Query
	// resps holds the answers in request order (one for the inline form).
	resps []*ppd.Response
	// batch is the grouped path's dedup accounting; nil for the inline form.
	batch *BatchJSON
}

// answer executes a decoded non-streaming body: a "requests" batch through
// the DoBatch path, an inline request through the Do path.
func (s *Service) answer(ctx context.Context, q *V1Query) (*v1Answer, error) {
	if !q.Batch() {
		resp, err := s.do(ctx, q.Compiled[0])
		if err != nil {
			return nil, err
		}
		return &v1Answer{q: q, resps: []*ppd.Response{resp}}, nil
	}
	br, err := s.doBatch(ctx, q.Compiled)
	if err != nil {
		return nil, err
	}
	return &v1Answer{q: q, resps: br.Responses, batch: &BatchJSON{
		Groups:    br.Groups,
		Instances: br.Instances,
		Solved:    br.Solved,
		CacheHits: br.CacheHits,
	}}, nil
}

// handleV1Query serves POST /v1/query: the unified query endpoint. A body
// with "requests" answers the batch; an inline request answers alone, as
// NDJSON when "stream" is set.
func (s *Service) handleV1Query(w http.ResponseWriter, r *http.Request) {
	q, err := DecodeV1Query(r.Body)
	if err == nil && q.Body.Stream {
		s.v1Stream(w, r, q.Compiled[0])
		return
	}
	serveJSON(w, func() (any, error) {
		if err != nil {
			return nil, err
		}
		ans, err := s.answer(r.Context(), q)
		if err != nil {
			return nil, err
		}
		if ans.batch == nil {
			res := NewV1Result(ans.resps[0], q.Body.PerSession)
			return &V1Response{Result: &res}, nil
		}
		out := &V1Response{Batch: ans.batch}
		for i, resp := range ans.resps {
			out.Results = append(out.Results, NewV1Result(resp, q.Wire(i).PerSession))
		}
		return out, nil
	})
}

// v1Stream answers one request through StreamNDJSON: the summary with its
// rows elided, then the topk or per-session rows one per line.
func (s *Service) v1Stream(w http.ResponseWriter, r *http.Request, cr *ppd.CompiledRequest) {
	// One deadline covers evaluation and emission, so it is armed here too:
	// do's would end with the evaluation. The request keeps it, budget and all.
	ctx := r.Context()
	if cr.Deadline > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, cr.Deadline)
		defer cancel()
	}
	resp, err := s.do(ctx, cr)
	if err != nil {
		serveJSON(w, func() (any, error) { return nil, err })
		return
	}
	head := NewV1Result(resp, true)
	rows := head.PerSession
	if resp.Kind == ppd.KindTopK {
		rows = head.Top
	}
	head.Top, head.PerSession = nil, nil // rows follow line by line
	StreamNDJSON(ctx, w, head, rows, s.streamRowHook)
}

// StreamNDJSON writes the NDJSON answer of shard and coordinator alike: head,
// then one session row per line, each flushed as written. Once ctx ends
// (client gone, deadline) it stops between rows with a final {"error": ...}
// line. hook, when non-nil, runs after every row.
func StreamNDJSON(ctx context.Context, w http.ResponseWriter, head any, rows []SessionProbJSON, hook func(context.Context)) {
	w.Header().Set("Content-Type", "application/x-ndjson")
	enc, rc := json.NewEncoder(w), http.NewResponseController(w)
	enc.Encode(head)
	rc.Flush()
	for _, row := range rows {
		if ctx.Err() != nil {
			enc.Encode(map[string]string{"error": context.Cause(ctx).Error()})
			rc.Flush()
			return
		}
		if err := enc.Encode(row); err != nil {
			return // client gone; stop emitting
		}
		rc.Flush()
		if hook != nil {
			hook(ctx)
		}
	}
}
