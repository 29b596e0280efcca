package main

import (
	"bytes"
	_ "embed"
	"encoding/json"
	"fmt"
	"math/rand"
	"sort"
	"sync"

	"probpref/internal/dataset"
	"probpref/internal/ppd"
	"probpref/internal/server"
)

// This file generates the benchmark's inputs. Everything a workload sends is
// a pure function of (workload, seed, op count): the daemon receives only
// the generated requests, never the seed.

// opClass names what one operation exercises; latency is reported per class
// where the issue asks for it (topk, ingest) and the trace keys its ladders
// off it.
type opClass string

const (
	classBool       opClass = "bool"
	classCount      opClass = "count"
	classCountDist  opClass = "countdist"
	classAggregate  opClass = "aggregate"
	classTopK       opClass = "topk"
	classPerSession opClass = "bool+per_session"
	classBatch      opClass = "batch8"
	classIngest     opClass = "ingest"
	classRejection  opClass = "rejection"
	classMISLite    opClass = "mis-lite"
	classAdaptive   opClass = "adaptive"
	classConsMedian opClass = "consensus-median"
	classConsTopK   opClass = "consensus-topk"
)

// op is one generated operation: the body POSTed to path, plus the typed
// form the in-process reference and the trace ladders evaluate.
type op struct {
	class opClass
	path  string // "/v1/query" or "/v1/sessions"
	body  []byte
	// reqs holds the request (one element) or the batch (several).
	reqs []server.V1Request
	// ingest is set for classIngest only.
	ingest *server.IngestRequest
}

func (o *op) isBatch() bool { return o.class == classBatch }

// queryOp builds a single-request /v1/query op.
func queryOp(class opClass, vr server.V1Request) *op {
	body, err := json.Marshal(vr)
	if err != nil {
		panic(err) // V1Request is plain data
	}
	return &op{class: class, path: "/v1/query", body: body, reqs: []server.V1Request{vr}}
}

// batchOp builds a {"requests":[...]} /v1/query op.
func batchOp(reqs []server.V1Request) *op {
	body, err := json.Marshal(map[string]any{"requests": reqs})
	if err != nil {
		panic(err)
	}
	return &op{class: classBatch, path: "/v1/query", body: body, reqs: reqs}
}

// pollsDB builds the database every daemon of the benchmark serves
// (-dataset polls -candidates 20 -seed 1), with the workload's voter count.
func pollsDB(voters int) (*ppd.DB, error) {
	db, _, err := dataset.Build(dataset.BuildConfig{Name: "polls", Seed: 1, Candidates: 20, Voters: voters})
	return db, err
}

//go:embed queries.json
var queriesJSON []byte

// queryPool is the frozen, calibrated pool of hard queries (calibrate.go).
var queryPool = sync.OnceValues(func() ([]poolQuery, error) {
	var pool []poolQuery
	if err := json.Unmarshal(queriesJSON, &pool); err != nil {
		return nil, fmt.Errorf("generator: queries.json: %w", err)
	}
	return pool, nil
})

// band is a workload's slice of the pool. Solver work per session spans
// four orders of magnitude over the query space (19 to 430 000 transitions
// at m = 20): drawn unfiltered, one query decides a run's throughput and a
// single heavy one costs seconds. Each workload therefore draws from the
// queries whose calibrated work lies in a fixed band, one per stratum of
// the band, so two seeds get different queries of the same cost mix.
type band struct {
	// minWork..maxWork bounds poolQuery.Work.
	minWork, maxWork int
	// minBound..maxBound bounds poolQuery.Bound (0, 0 = any).
	minBound, maxBound int
	// byBound stratifies the band by Bound instead of Work: where the
	// queries stay warm, the top-k bound solves are the cost that varies.
	byBound bool
	// minHead..maxHead bounds poolQuery.Head (0, 0 = any).
	minHead, maxHead float64
	// sampled keeps only queries with poolQuery.Sampled set.
	sampled bool
}

var (
	// coldBand: 5k-60k transitions is 0.2-2 ms per group, so one cold query
	// over ~55 groups costs 10-110 ms.
	coldBand = band{minWork: 5000, maxWork: 60000}
	// The hot bands pin the bound-solve work, which sets the hot top-k
	// latency. Solver work in that slice of the pool has two modes, 10k-20k
	// (140 queries) and 32k-40k (78) with nothing between, and it moves the
	// warm-up's cold solves (setup_s) and the warm top-k latency alike: hot
	// sets drawn from the whole slice held 0 to 5 heavy queries, and their
	// p95 ranged 35-46 ms with the count. Every hot set therefore holds
	// hotHeavy queries of the upper mode and the rest of the lower, each
	// stratified by bound. The heavy band starts at bound 3300: a heavy
	// query's top-k costs 45-55 ms from there on and 30-41 ms below, as
	// much as a light query's (see hotHeavy).
	hotLightBand = band{minWork: 10000, maxWork: 20000, minBound: 2500, maxBound: 4500, byBound: true}
	hotHeavyBand = band{minWork: 32000, maxWork: 40000, minBound: 3300, maxBound: 4500, byBound: true}
	// sampledBand keeps exact truth cheap and the probability over
	// serve_sampled's five sessions away from 0 and 1, where every
	// estimator is trivially right; and it keeps the queries on which method
	// adaptive samples every session, so that the exact solvers stay idle.
	sampledBand = band{minWork: 500, maxWork: 60000, minHead: 0.05, maxHead: 0.95, sampled: true}
	// ingestBand keeps a post-purge read (every group re-solved) near 10 ms,
	// so a run fits 300 ingest cycles. Every ack purges the caches, so the
	// reads' cost is the re-solve work: the band is stratified by Work. Its
	// queries' Bound has two modes, 1000-1500 (130 queries) and 2250-2850
	// (30), and one of the upper mode costs half as much again in every
	// kind: a set of six held one or none, and that one query's reads were
	// the run's slowest 5 % (latency_p95_ms read 16 ms on one seed and 24 ms
	// on the next). The band keeps the lower mode.
	ingestBand = band{minWork: 6000, maxWork: 10000, minBound: 1000, maxBound: 1600}
)

func (b band) holds(q poolQuery) bool {
	return q.Work >= b.minWork && q.Work <= b.maxWork &&
		(b.maxBound == 0 || q.Bound >= b.minBound && q.Bound <= b.maxBound) &&
		(b.maxHead == 0 || q.Head >= b.minHead && q.Head <= b.maxHead) &&
		(!b.sampled || q.Sampled)
}

// drawStrata returns n distinct queries of the band for the seed, in cost
// order: the band's queries are ordered by cost and cut into n equal strata,
// and rng picks one query from each.
func drawStrata(rng *rand.Rand, b band, n int) ([]poolQuery, error) {
	all, err := queryPool()
	if err != nil {
		return nil, err
	}
	var in []poolQuery
	for _, q := range all {
		if b.holds(q) {
			in = append(in, q)
		}
	}
	if len(in) < n {
		return nil, fmt.Errorf("generator: the band holds %d queries, %d wanted", len(in), n)
	}
	cost := func(q poolQuery) int {
		if b.byBound {
			return q.Bound
		}
		return q.Work
	}
	sort.SliceStable(in, func(i, j int) bool { return cost(in[i]) < cost(in[j]) }) // ties stay in text order
	out := make([]poolQuery, n)
	for i := range out {
		lo, hi := i*len(in)/n, (i+1)*len(in)/n
		out[i] = in[lo+rng.Intn(hi-lo)]
	}
	return out, nil
}

// drawQueries is drawStrata in shuffled order.
func drawQueries(rng *rand.Rand, b band, n int) ([]poolQuery, error) {
	out, err := drawStrata(rng, b, n)
	rng.Shuffle(len(out), func(i, j int) { out[i], out[j] = out[j], out[i] })
	return out, err
}

// drawWithTouch draws n+k strata and sets k of them, evenly spaced over the
// cost order, aside for the first-touch pass: the workloads that issue every
// query once have no warm-up to speak of, and a bare process boot (4 ms) is
// too short to hold a relative bound. Their set-up instead ends when a
// fresh daemon has answered its first k requests (lazily built session
// models and all). The touch queries are never part of the measured
// sequence, and taking them evenly over the strata keeps the pass's cost
// nearly the same from seed to seed. The other n come back as n/onceLapOps
// laps: the strata are dealt to the laps in turn, so that every lap holds
// the band's whole cost range, and each lap is shuffled.
func drawWithTouch(rng *rand.Rand, b band, n, k int) (touch, rest []poolQuery, err error) {
	qs, err := drawStrata(rng, b, n+k)
	if err != nil {
		return nil, nil, err
	}
	next := 0
	for i, q := range qs {
		if next < k && i == (2*next+1)*len(qs)/(2*k) {
			touch = append(touch, q)
			next++
		} else {
			rest = append(rest, q)
		}
	}
	laps := make([][]poolQuery, max(n/onceLapOps, 1))
	for i, q := range rest {
		laps[i%len(laps)] = append(laps[i%len(laps)], q)
	}
	rest = rest[:0]
	for _, l := range laps {
		rng.Shuffle(len(l), func(i, j int) { l[i], l[j] = l[j], l[i] })
		rest = append(rest, l...)
	}
	return touch, rest, nil
}

// hotCycle is serve_hot's request cycle over one query: the six single
// kinds in the order the issue lists them. withBatch appends the batch of 8
// (bool, count, countdist and per-session bool over the query and its
// neighbour in the hot set).
func hotCycle(qs []poolQuery, qi int, withBatch bool) []*op {
	q := qs[qi].Text
	ops := []*op{
		queryOp(classBool, server.V1Request{Kind: "bool", Query: q}),
		queryOp(classCount, server.V1Request{Kind: "count", Query: q}),
		queryOp(classCountDist, server.V1Request{Kind: "countdist", Query: q}),
		queryOp(classAggregate, server.V1Request{Kind: "aggregate", Query: q, AggRel: "V", AggAttr: "age"}),
		queryOp(classTopK, server.V1Request{Kind: "topk", Query: q, K: 5, Bound: 1}),
		queryOp(classPerSession, server.V1Request{Kind: "bool", Query: q, PerSession: true}),
	}
	if withBatch {
		var reqs []server.V1Request
		for _, text := range []string{q, qs[(qi+1)%len(qs)].Text} {
			reqs = append(reqs,
				server.V1Request{Kind: "bool", Query: text},
				server.V1Request{Kind: "count", Query: text},
				server.V1Request{Kind: "countdist", Query: text},
				server.V1Request{Kind: "bool", Query: text, PerSession: true},
			)
		}
		ops = append(ops, batchOp(reqs))
	}
	return ops
}

// hotPass returns the distinct requests of a hot set: every query's cycle.
func hotPass(qs []poolQuery, withBatch bool) []*op {
	var pass []*op
	for qi := range qs {
		pass = append(pass, hotCycle(qs, qi, withBatch)...)
	}
	return pass
}

// repeatPasses cycles pass until n ops are emitted, reshuffling the order
// of every repetition from rng so the two clients do not fall into a fixed
// interleaving.
func repeatPasses(rng *rand.Rand, pass []*op, n int) []*op {
	out := make([]*op, 0, n)
	for len(out) < n {
		perm := rng.Perm(len(pass))
		for _, pi := range perm {
			if len(out) == n {
				break
			}
			out = append(out, pass[pi])
		}
	}
	return out
}

// hotQueries is the size of serve_hot's hot set, hotHeavy how many of them
// come from hotHeavyBand. Half are heavy so that the run's 95th percentile
// lies inside the heavy queries' top-k latencies (1/14 of the ops, 45-60 ms)
// and not in the gap between them and the light queries' (30-40 ms), where
// one op more or less on either side moved it by 10 ms. A lap is one pass
// over the set's 56 distinct requests.
const (
	hotQueries = 8
	hotHeavy   = 4
	hotLapOps  = 7 * hotQueries
)

// genHot generates serve_hot's (and cluster_hot's) sequence: 8 hot queries,
// 56 distinct requests, repeated.
func genHot(seed int64, db *ppd.DB, n int) (warm, seq []*op, err error) {
	rng := rand.New(rand.NewSource(seed))
	qs, err := drawStrata(rng, hotLightBand, hotQueries-hotHeavy)
	if err != nil {
		return nil, nil, err
	}
	heavy, err := drawStrata(rng, hotHeavyBand, hotHeavy)
	if err != nil {
		return nil, nil, err
	}
	qs = append(qs, heavy...)
	rng.Shuffle(len(qs), func(i, j int) { qs[i], qs[j] = qs[j], qs[i] })
	pass := hotPass(qs, true)
	return pass, repeatPasses(rng, pass, n), nil
}

// Sizes of the first-touch passes (see drawWithTouch), about half a second
// of set-up each: 16 cold queries, three cycles of the sampled methods; and
// the lap size of the two workloads that issue every query once (4 cycles
// of the sampled methods).
const (
	coldTouch    = 16
	sampledTouch = 15
	onceLapOps   = 20
)

// genCold generates serve_cold's sequence: n distinct queries, each issued
// once, alternating count and bool, after a first-touch pass of coldTouch
// other queries.
func genCold(seed int64, db *ppd.DB, n int) (warm, seq []*op, err error) {
	rng := rand.New(rand.NewSource(seed))
	touch, qs, err := drawWithTouch(rng, coldBand, n, coldTouch)
	if err != nil {
		return nil, nil, err
	}
	ops := func(qs []poolQuery) []*op {
		out := make([]*op, len(qs))
		for i, q := range qs {
			if i%2 == 0 {
				out[i] = queryOp(classCount, server.V1Request{Kind: "count", Query: q.Text})
			} else {
				out[i] = queryOp(classBool, server.V1Request{Kind: "bool", Query: q.Text})
			}
		}
		return out
	}
	return ops(touch), ops(qs), nil
}

// sampledCycle is serve_sampled's method cycle.
var sampledCycle = []opClass{classRejection, classMISLite, classAdaptive, classConsMedian, classConsTopK}

// genSampled generates serve_sampled's sequence: n distinct queries, each
// issued once with an explicit sampler seed, cycling the three sampling
// methods and the two consensus targets, after a first-touch pass of
// sampledTouch other queries in the same cycle. No timeout_ms is set, so the
// code under test sets the latency, not a deadline.
func genSampled(seed int64, db *ppd.DB, n int) (warm, seq []*op, err error) {
	rng := rand.New(rand.NewSource(seed))
	touch, qs, err := drawWithTouch(rng, sampledBand, n, sampledTouch)
	if err != nil {
		return nil, nil, err
	}
	ops := func(qs []poolQuery) []*op {
		out := make([]*op, len(qs))
		for i, q := range qs {
			class := sampledCycle[i%len(sampledCycle)]
			vr := server.V1Request{Kind: "count", Query: q.Text, Seed: 1 + rng.Int63n(1<<31)}
			switch class {
			case classRejection:
				vr.Method = "rejection"
			case classMISLite:
				vr.Method = "mis-lite"
			case classAdaptive:
				vr.Method = "adaptive"
			case classConsMedian:
				vr.Kind, vr.Target = "consensus", "median"
			case classConsTopK:
				vr.Kind, vr.Target, vr.K = "consensus", "topk", 3
			}
			out[i] = queryOp(class, vr)
		}
		return out
	}
	seq = ops(qs)
	return ops(touch), seq, nil
}

// Ingest shape: every ingestEvery-th op appends ingestBatch sessions whose
// (sigma, phi) come from a fixed pool of ingestPool models, so sessions grow
// without bound while distinct inference groups stay bounded. A lap is 6
// ingests with the 42 reads between them (the 36 distinct reads and 6 over).
const (
	ingestEvery  = 8
	ingestBatch  = 8
	ingestPool   = 16
	ingestLapOps = 6 * ingestEvery
)

// genIngest generates ingest_mixed's sequence: serve_hot's cycle without
// the batch over a 6-query hot set, with every 8th op an ingest batch.
func genIngest(seed int64, db *ppd.DB, n int) (warm, seq []*op, err error) {
	rng := rand.New(rand.NewSource(seed))
	qs, err := drawQueries(rng, ingestBand, 6)
	if err != nil {
		return nil, nil, err
	}
	type model struct {
		sigma []int
		phi   float64
	}
	pool := make([]model, ingestPool)
	for i := range pool {
		pool[i] = model{sigma: rng.Perm(db.M()), phi: []float64{0.2, 0.5, 0.8}[rng.Intn(3)]}
	}
	voters := db.Relations["V"].Tuples
	pass := hotPass(qs, false)
	reads := repeatPasses(rng, pass, n)
	seq = make([]*op, 0, n)
	ri, batch := 0, 0
	for len(seq) < n {
		if len(seq)%ingestEvery == ingestEvery-1 {
			req := &server.IngestRequest{Pref: "P"}
			for i := 0; i < ingestBatch; i++ {
				m := pool[rng.Intn(len(pool))]
				// Existing voter names keep the appended sessions visible
				// to the aggregate kind's join on V; the date makes every
				// session key unique.
				req.Sessions = append(req.Sessions, ppd.SessionJSON{
					Key:   []string{voters[rng.Intn(len(voters))][0], fmt.Sprintf("7/%d.%d", batch, i)},
					Sigma: m.sigma,
					Phi:   m.phi,
				})
			}
			body, err := json.Marshal(req)
			if err != nil {
				return nil, nil, err
			}
			seq = append(seq, &op{class: classIngest, path: "/v1/sessions", body: body, ingest: req})
			batch++
			continue
		}
		seq = append(seq, reads[ri])
		ri++
	}
	return pass, seq, nil
}

// encodeOps renders a sequence as the bytes that go on the wire, one op per
// line; the determinism test compares these.
func encodeOps(seq []*op) []byte {
	var b bytes.Buffer
	for _, o := range seq {
		b.WriteString(o.path)
		b.WriteByte(' ')
		b.Write(o.body)
		b.WriteByte('\n')
	}
	return b.Bytes()
}
