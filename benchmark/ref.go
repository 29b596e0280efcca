package main

import (
	"context"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"sort"
	"strings"
	"sync"

	"probpref/internal/cluster"
	"probpref/internal/ppd"
	"probpref/internal/server"
	"probpref/internal/solver"
)

// This file is the in-process reference every daemon answer is checked
// against: a bare ppd.Engine{Method: MethodAuto} over the same generated
// database — no Service, no HTTP, no sharded LRU, no registry. Exact
// answers must equal it bit for bit; sampled count estimates must land
// within a frozen tolerance of the exact count.

// memoMap is the reference's private memo of solved groups (and of compiled
// plans). Exact solves are pure functions of their content-addressed key, so
// the memo changes the reference's cost, never its answers; it shares no
// code with server.Cache / server.PlanCache, whose eviction, namespacing and
// purging are among the things being checked. It implements ppd.SolveCache
// and ppd.PlanCache.
type memoMap[V any] struct {
	mu sync.Mutex
	m  map[string]V
}

func newMemoMap[V any]() *memoMap[V] { return &memoMap[V]{m: make(map[string]V)} }

func (c *memoMap[V]) Get(key string) (V, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	v, ok := c.m[key]
	return v, ok
}

func (c *memoMap[V]) Put(key string, v V) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.m[key] = v
}

// daemonSeed and daemonWorkers are the stock -seed and -parallel values the
// daemons run with; the reference mirrors them so seeded sampled answers
// (consensus) reproduce exactly.
const (
	daemonSeed    = 1
	daemonWorkers = 4
)

// reference answers requests in-process over one database version.
type reference struct {
	db    *ppd.DB
	probs *memoMap[float64]
	plans *memoMap[*solver.Plan]
}

func newReference(db *ppd.DB) *reference {
	return &reference{db: db, probs: newMemoMap[float64](), plans: newMemoMap[*solver.Plan]()}
}

// grown returns the reference over the database with sessions appended,
// sharing the memos (group keys embed the session model, so entries stay
// valid across versions).
func (r *reference) grown(req *server.IngestRequest) (*reference, error) {
	parsed, err := ppd.ParseSessionsJSON(req.Sessions)
	if err != nil {
		return nil, err
	}
	ndb, err := r.db.AppendSessions(req.Pref, parsed)
	if err != nil {
		return nil, err
	}
	return &reference{db: ndb, probs: r.probs, plans: r.plans}, nil
}

func (r *reference) engine() *ppd.Engine {
	return &ppd.Engine{
		DB:      r.db,
		Method:  ppd.MethodAuto,
		Rng:     rand.New(rand.NewSource(daemonSeed)),
		Workers: daemonWorkers,
		Cache:   r.probs,
		Plans:   r.plans,
	}
}

// do evaluates one wire request and returns the engine's response.
func (r *reference) do(ctx context.Context, vr server.V1Request) (*ppd.Response, error) {
	req, err := vr.ToRequest()
	if err != nil {
		return nil, err
	}
	return r.engine().Do(ctx, req)
}

// answer evaluates one wire request and returns the expected wire result,
// normalized through the same JSON round trip a daemon answer takes.
func (r *reference) answer(ctx context.Context, vr server.V1Request) (*server.V1Result, error) {
	resp, err := r.do(ctx, vr)
	if err != nil {
		return nil, err
	}
	res := server.NewV1Result(resp, vr.PerSession)
	return roundTrip(&res)
}

// exactCount returns the exact Count-Session answer of a sampled request's
// query (its truth).
func (r *reference) exactCount(ctx context.Context, query string) (float64, error) {
	resp, err := r.do(ctx, server.V1Request{Kind: "count", Query: query})
	if err != nil {
		return 0, err
	}
	return resp.Count, nil
}

func roundTrip(res *server.V1Result) (*server.V1Result, error) {
	b, err := json.Marshal(res)
	if err != nil {
		return nil, err
	}
	var out server.V1Result
	if err := json.Unmarshal(b, &out); err != nil {
		return nil, err
	}
	return &out, nil
}

// sameAnswer compares the answer sections of two results — prob, count,
// top, per-session, aggregate, countdist, consensus — ignoring the work
// accounting (solves, cache_hits, diag, plan), which legitimately differs
// between a warm daemon and a fresh reference.
func sameAnswer(got, want *server.V1Result) bool {
	g, w := *got, *want
	g.Solves, g.CacheHits, g.Diag, g.Plan = 0, 0, nil, nil
	w.Solves, w.CacheHits, w.Diag, w.Plan = 0, 0, nil, nil
	return reflect.DeepEqual(g, w)
}

// topKSlack is how far a returned top-k probability may sit below the true
// i-th largest one. The bound-1 strategy prunes a session when the k-th
// answer so far is >= its computed upper bound, and the bound solve and the
// exact solve round differently: a session whose exact probability is
// 0.9999999999999999 against a computed bound of 0.999999999999998 is
// pruned by a single process and returned by a shard that saw fewer rivals.
// Both answers are right to 1e-15, so the check is on values, not on order.
const topKSlack = 1e-9

// sameTopK checks a top-k answer for what it claims rather than against one
// evaluation order: k distinct sessions, each carrying exactly its own
// exact probability, in non-increasing order, the i-th within topKSlack of
// the i-th largest probability of the whole relation. Tied sessions (those
// sharing a model tie exactly) may come in any order: a single process
// breaks ties by bound order, the coordinator's merge by partition order.
func sameTopK(got *server.V1Result, k int, exp *expectation) string {
	if want := min(k, len(exp.sortedProbs)); got.Kind != "topk" || len(got.Top) != want {
		return fmt.Sprintf("top-k has %d rows of kind %s, want %d", len(got.Top), got.Kind, want)
	}
	seen := make(map[string]bool)
	for i, row := range got.Top {
		key := strings.Join(row.Session, "\x00")
		if p, ok := exp.sessionProb[key]; !ok || p != row.Prob || seen[key] {
			return fmt.Sprintf("top-k row %d: session %v does not have prob %v in the reference", i, row.Session, row.Prob)
		}
		seen[key] = true
		if i > 0 && row.Prob > got.Top[i-1].Prob {
			return fmt.Sprintf("top-k row %d is out of order", i)
		}
		if row.Prob < exp.sortedProbs[i]-topKSlack {
			return fmt.Sprintf("top-k row %d has prob %v, but the relation's %d-th largest is %v", i, row.Prob, i+1, exp.sortedProbs[i])
		}
	}
	return ""
}

// sampledTolerance is how far a sampled count estimate may sit from the
// exact count, in Count-Session units per sqrt(live session). Over the
// calibration seeds the stock samplers' worst normalized errors were 0.007
// (rejection, 10 000 draws a group), 0.0065 (adaptive, 20 000) and 0.32
// (mis-lite, whose 5 x 500 weighted draws are far noisier); the tolerances
// sit 3-4x above those, so a change that buys speed with accuracy fails ops
// instead of looking fast.
func sampledTolerance(c opClass, liveSessions int) float64 {
	per := 0.025
	if c == classMISLite {
		per = 1.0
	}
	return per * math.Sqrt(float64(max(liveSessions, 1)))
}

// expectation is what the verifier holds for one op.
type expectation struct {
	// results are the expected answers (one per request of the op); nil
	// entries are not compared exactly (sampled estimates).
	results []*server.V1Result
	// exact is the exact count a sampled estimate is held against (sampled
	// classes only).
	exact float64
	// sessionProb maps every live session key to its exact probability and
	// sortedProbs lists the probabilities in descending order (top-k ops
	// only); see sameTopK.
	sessionProb map[string]float64
	sortedProbs []float64
}

// parseAnswers decodes a daemon (or coordinator) response body into its
// results. A coordinator answer carrying a "cluster" diagnostic is a
// degraded merge and is reported as an error.
func parseAnswers(o *op, body []byte) ([]server.V1Result, error) {
	var resp cluster.ResponseJSON
	if err := json.Unmarshal(body, &resp); err != nil {
		return nil, fmt.Errorf("decoding response: %w", err)
	}
	var rs []cluster.ResultJSON
	if o.isBatch() {
		rs = resp.Results
	} else if resp.Result != nil {
		rs = []cluster.ResultJSON{*resp.Result}
	}
	if len(rs) != len(o.reqs) {
		return nil, fmt.Errorf("response has %d results, want %d", len(rs), len(o.reqs))
	}
	out := make([]server.V1Result, len(rs))
	for i, r := range rs {
		if r.Cluster != nil {
			return nil, fmt.Errorf("degraded answer: partitions %v failed", r.Cluster.FailedPartitions)
		}
		out[i] = r.V1Result
	}
	return out, nil
}

// isSampledCount reports whether the class's answer is a sampled count
// estimate (checked by tolerance against the exact count).
func isSampledCount(c opClass) bool {
	return c == classRejection || c == classMISLite || c == classAdaptive
}

// check verifies one response body against its expectation and returns a
// description of the first mismatch ("" when the answer is right).
func check(o *op, body []byte, exp *expectation) string {
	got, err := parseAnswers(o, body)
	if err != nil {
		return err.Error()
	}
	for i := range got {
		if isSampledCount(o.class) {
			tol := sampledTolerance(o.class, got[i].LiveSessions)
			if d := math.Abs(got[i].Count - exp.exact); d > tol {
				return fmt.Sprintf("sampled count %.4f is %.4f from exact %.4f (tolerance %.4f)", got[i].Count, d, exp.exact, tol)
			}
			continue
		}
		if o.class == classTopK {
			if why := sameTopK(&got[i], o.reqs[i].K, exp); why != "" {
				return why
			}
			continue
		}
		if !sameAnswer(&got[i], exp.results[i]) {
			return fmt.Sprintf("result %d differs from the in-process reference (kind %s: prob %v/%v count %v/%v)",
				i, got[i].Kind, got[i].Prob, exp.results[i].Prob, got[i].Count, exp.results[i].Count)
		}
	}
	return ""
}

// expect computes an op's expectation on reference r.
func expect(ctx context.Context, r *reference, o *op) (*expectation, error) {
	exp := &expectation{results: make([]*server.V1Result, len(o.reqs))}
	for i, vr := range o.reqs {
		if isSampledCount(o.class) {
			c, err := r.exactCount(ctx, vr.Query)
			if err != nil {
				return nil, err
			}
			exp.exact = c
			continue
		}
		if o.class == classTopK {
			all, err := r.do(ctx, server.V1Request{Kind: "bool", Query: vr.Query})
			if err != nil {
				return nil, err
			}
			exp.sessionProb = make(map[string]float64, len(all.PerSession))
			for _, sp := range all.PerSession {
				exp.sessionProb[strings.Join(sp.Session.Key, "\x00")] = sp.Prob
				exp.sortedProbs = append(exp.sortedProbs, sp.Prob)
			}
			sort.Sort(sort.Reverse(sort.Float64Slice(exp.sortedProbs)))
			continue
		}
		res, err := r.answer(ctx, vr)
		if err != nil {
			return nil, err
		}
		exp.results[i] = res
	}
	return exp, nil
}
