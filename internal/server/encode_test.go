package server_test

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"probpref/internal/cluster"
	"probpref/internal/consensus"
	"probpref/internal/server"
)

// The /v1/query appender (encode.go) is held to the bytes encoding/json
// writes for the same value: json.Encoder with SetIndent("", "  "), what
// ServeJSON wrote for every answer before the appender existed.

// indentJSON is the reference encoding.
func indentJSON(v any) ([]byte, error) {
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetIndent("", "  ")
	err := enc.Encode(v)
	return buf.Bytes(), err
}

// appender is what ServeJSON dispatches /v1/query answers through.
type appender interface {
	AppendJSON(dst []byte) ([]byte, error)
}

// checkAppend compares v's appended bytes, written after a prefix that must
// survive, against the reference; an unencodable value must fail both.
func checkAppend(t *testing.T, v appender) {
	t.Helper()
	want, wantErr := indentJSON(v)
	const prefix = "prefix"
	got, err := v.AppendJSON([]byte(prefix))
	if (err != nil) != (wantErr != nil) {
		t.Fatalf("appender error %v, encoding/json error %v", err, wantErr)
	}
	if wantErr != nil {
		return
	}
	if !bytes.HasPrefix(got, []byte(prefix)) {
		t.Fatalf("appender clobbered dst: %q", got[:min(len(got), len(prefix))])
	}
	if got = got[len(prefix):]; !bytes.Equal(got, want) {
		t.Fatalf("appender bytes differ from encoding/json\n-- appender --\n%s\n-- encoding/json --\n%s", got, want)
	}
}

// edgeFloats are the values where encoding/json's float format switches:
// zeros, the 'e' cutoffs at 1e-6 and 1e21 on both sides, a subnormal, the
// largest float, and an e-09 exponent it rewrites to e-9.
var edgeFloats = []float64{
	0, math.Copysign(0, -1), 1e-7, 1e-6, 9.99999e-7, 1e20, 1e21, 9.99999e20, 5e-324, 2.2250738585072e-310,
	math.MaxFloat64, -math.MaxFloat64, 1e-9, -2.5e-8, 0.1, 1.0 / 3, 123456789, 0.9999996743463603, -1.5,
}

// edgeStrings are the strings encoding/json escapes: HTML characters,
// control bytes, the JavaScript line separators, invalid UTF-8.
var edgeStrings = []string{
	"", "voter17", "<a&b>", "\x00\x01\x07\x1f\b\f\n\r\t", "line\u2028sep\u2029", "\xff\xfebad\xc3", "\u00e9\u65e5\u672c\U0001F600",
	`quote"back\slash`, "\x7fdel", "trunc\xe2\x80",
}

func TestAppendJSONEdgeValues(t *testing.T) {
	var rows []server.SessionProbJSON
	for i, f := range edgeFloats {
		rows = append(rows, server.SessionProbJSON{Session: []string{edgeStrings[i%len(edgeStrings)]}, Prob: f})
	}
	rows = append(rows, server.SessionProbJSON{Session: nil, Prob: 1}, server.SessionProbJSON{Session: []string{}, Prob: 2})
	avg := 2.5
	res := server.V1Result{
		Kind: "count<>", Prob: 1e-7, Count: 1e21, Top: rows, PerSession: rows,
		Diag: &server.TopKDiagJSON{BoundSolves: -3, CacheHits: math.MaxInt64},
		Plan: &server.PlanJSON{MaxHalfWidth: 5e-324, Methods: map[string]int{"bipartite": 2, "<mis-lite>": 1, "auto": 7, "": 0}},
		Aggregate: &server.AggregateJSON{Sum: 1, Count: 2, Avg: &avg, Sessions: 2,
			Rows: []server.AggRowJSON{{Prob: 0.5, Value: 1e-9}}},
		CountDist: &server.CountDistJSON{N: 2, PMF: edgeFloats},
		Consensus: &server.ConsensusJSON{Target: "median", Ranking: []string{"b", "a"}, ExpectedTau: &avg,
			Pairwise: [][]float64{{0, 0.25}, {0.75, 0}}, Domain: []string{"a", "<b>"},
			Rows: []consensus.Row{{Session: []string{"v\u2028"}, Weight: 0.5, Mode: map[string]float64{"1,0": 0.5, "0,1": 0.25}}}},
	}
	for _, resp := range []*server.V1Response{
		{},
		{Result: &res},
		{Result: &server.V1Result{Kind: "bool"}},
		{Result: &server.V1Result{CountDist: &server.CountDistJSON{}, Aggregate: &server.AggregateJSON{}, Plan: &server.PlanJSON{Methods: map[string]int{}}}},
		{Results: []server.V1Result{res, {Kind: "topk", Top: []server.SessionProbJSON{}}}, Batch: &server.BatchJSON{Groups: 3}},
		{Results: []server.V1Result{}, Batch: &server.BatchJSON{}},
	} {
		checkAppend(t, resp)
	}
	degraded := &cluster.ResultJSON{V1Result: res, Cluster: &cluster.ClusterDiagJSON{
		Partial: true, FailedPartitions: []int{0, 2}, Errors: []string{"shard <s0>: 502", "timeout\n"}}}
	for _, resp := range []*cluster.ResponseJSON{
		{Result: degraded},
		{Result: &cluster.ResultJSON{V1Result: res}},
		{Result: &cluster.ResultJSON{Cluster: &cluster.ClusterDiagJSON{}}},
		{Results: []cluster.ResultJSON{*degraded, {Cluster: &cluster.ClusterDiagJSON{FailedPartitions: []int{}, Errors: []string{}}}}, Batch: &server.BatchJSON{Solved: 1}},
	} {
		checkAppend(t, resp)
	}
}

// TestServeJSONUnencodable: an answer holding a NaN or infinite float is a
// 500 naming the field, on the appender path and on the generic one, not a
// 200 with an empty body.
func TestServeJSONUnencodable(t *testing.T) {
	for _, tc := range []struct {
		name string
		v    any
		want string
	}{
		{"appender", &server.V1Response{Result: &server.V1Result{Kind: "count", Count: math.NaN()}}, `field \"count\"`},
		{"appender batch", &server.V1Response{Results: []server.V1Result{{CountDist: &server.CountDistJSON{PMF: []float64{0.5, math.Inf(1)}}}}}, `field \"pmf\"`},
		{"coordinator", &cluster.ResponseJSON{Result: &cluster.ResultJSON{V1Result: server.V1Result{Prob: math.Inf(-1)}}}, `field \"prob\"`},
		{"generic", map[string]float64{"x": math.NaN()}, "unsupported value"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			rec := httptest.NewRecorder()
			server.ServeJSON(rec, func() (any, error) { return tc.v, nil })
			if rec.Code != http.StatusInternalServerError {
				t.Fatalf("status %d, body %q; want 500", rec.Code, rec.Body)
			}
			if body := rec.Body.String(); !strings.Contains(body, `"error"`) || !strings.Contains(body, tc.want) {
				t.Fatalf("body %q does not name %s", body, tc.want)
			}
		})
	}
}

// TestServeJSONContentLength: a JSON answer is one write with its length
// set, not a chunked stream.
func TestServeJSONContentLength(t *testing.T) {
	resp := hotBatch(150)
	want, _ := indentJSON(resp)
	rec := httptest.NewRecorder()
	server.ServeJSON(rec, func() (any, error) { return resp, nil })
	if rec.Code != http.StatusOK || rec.Header().Get("Content-Length") != fmt.Sprint(len(want)) || !bytes.Equal(rec.Body.Bytes(), want) {
		t.Fatalf("status %d, Content-Length %q, %d body bytes; want 200, %d", rec.Code, rec.Header().Get("Content-Length"), rec.Body.Len(), len(want))
	}
}

// TestAppendJSONAllocsFlat: the appender's allocations do not grow with the
// number of rows it writes.
func TestAppendJSONAllocsFlat(t *testing.T) {
	buf := make([]byte, 0, 1<<20)
	allocs := func(voters int) float64 {
		resp := hotBatch(voters)
		return testing.AllocsPerRun(20, func() { resp.AppendJSON(buf[:0]) })
	}
	if small, large := allocs(10), allocs(1000); large > small {
		t.Fatalf("allocs/op grow with rows: %v at 10 voters, %v at 1000", small, large)
	}
}

// hotSessions is a per-session row list shaped like the polls model's:
// (voter, date) keys.
func hotSessions(voters int) []server.SessionProbJSON {
	rows := make([]server.SessionProbJSON, voters)
	for i := range rows {
		rows[i] = server.SessionProbJSON{
			Session: []string{fmt.Sprintf("voter%d", i), fmt.Sprintf("%d/%d", i%12+1, i%28+1)},
			Prob:    1 / (1 + float64(i)*0.37),
		}
	}
	return rows
}

// hotCountDist is a countdist answer over voters sessions.
func hotCountDist(voters int) server.V1Result {
	pmf := make([]float64, voters+1)
	for i := range pmf {
		pmf[i] = math.Exp(-math.Abs(float64(i)-float64(voters)/3)) / 2.3
	}
	return server.V1Result{Kind: "countdist", Prob: 0.9999996743463603, Count: float64(voters) / 3, LiveSessions: voters,
		CacheHits: 28, CountDist: &server.CountDistJSON{N: voters, Mean: float64(voters) / 3, StdDev: 1.2345, Mode: voters / 3,
			Median: voters / 3, Lo95: voters/3 - 2, Hi95: voters/3 + 2, PMF: pmf}}
}

// hotBatch is a batch of eight serve_hot-shaped answers: bool, count and
// countdist with and without rows, a top-k, an aggregate.
func hotBatch(voters int) *server.V1Response {
	rows := hotSessions(voters)
	avg := 41.5
	return &server.V1Response{Results: []server.V1Result{
		{Kind: "bool", Prob: 0.9999996743463603, Count: 51.9109033364719, LiveSessions: voters, CacheHits: 28},
		{Kind: "bool", Prob: 0.9999996743463603, Count: 51.9109033364719, LiveSessions: voters, CacheHits: 28, PerSession: rows},
		{Kind: "count", Prob: 0.75, Count: 12.25, LiveSessions: voters, CacheHits: 14},
		hotCountDist(voters),
		{Kind: "topk", LiveSessions: voters, Top: rows[:5], Diag: &server.TopKDiagJSON{BoundCacheHits: 12, CacheHits: 5, SessionsEvaluated: 9}},
		{Kind: "aggregate", Prob: 0.5, Count: 3.25, LiveSessions: voters, Aggregate: &server.AggregateJSON{Sum: 134.875, Count: 3.25, Avg: &avg, Sessions: voters}},
		{Kind: "count", Prob: 0.75, Count: 12.25, LiveSessions: voters, CacheHits: 14, PerSession: rows},
		{Kind: "bool", Prob: 0.125, Count: 1e-7, LiveSessions: voters, CacheHits: 3},
	}, Batch: &server.BatchJSON{Groups: 40, Instances: 120, CacheHits: 40}}
}

// BenchmarkEncodeV1Response times the three serve_hot answer shapes at 150
// voters — a per-session bool (~19 KB), a countdist (~5 KB), a batch of
// eight (~52 KB) — through encoding/json as ServeJSON ran it before the
// appender, and through the appender into a reused buffer.
func BenchmarkEncodeV1Response(b *testing.B) {
	const voters = 150
	batch := hotBatch(voters)
	cd := hotCountDist(voters)
	for _, c := range []struct {
		name string
		resp *server.V1Response
	}{
		{"per_session", &server.V1Response{Result: &batch.Results[1]}},
		{"countdist", &server.V1Response{Result: &cd}},
		{"batch8", batch},
	} {
		b.Run(c.name+"/encoding_json", func(b *testing.B) {
			b.ReportAllocs()
			for range b.N {
				var buf bytes.Buffer
				enc := json.NewEncoder(&buf)
				enc.SetIndent("", "  ")
				if err := enc.Encode(c.resp); err != nil {
					b.Fatal(err)
				}
				b.SetBytes(int64(buf.Len()))
			}
		})
		b.Run(c.name+"/append", func(b *testing.B) {
			b.ReportAllocs()
			var buf []byte
			for range b.N {
				var err error
				if buf, err = c.resp.AppendJSON(buf[:0]); err != nil {
					b.Fatal(err)
				}
				b.SetBytes(int64(len(buf)))
			}
		})
	}
}

// fuzzGen turns fuzz bytes into V1Response and cluster.ResponseJSON values;
// every choice consumes input, and an exhausted input reads zeros.
type fuzzGen struct{ data []byte }

func (g *fuzzGen) byte() byte {
	if len(g.data) == 0 {
		return 0
	}
	b := g.data[0]
	g.data = g.data[1:]
	return b
}

func (g *fuzzGen) bit() bool { return g.byte()&1 == 1 }

func (g *fuzzGen) int() int {
	n := int(int8(g.byte()))
	if g.bit() {
		n *= 1 << 40
	}
	return n
}

// float is an edge value, or raw bits (NaN and ±Inf among them).
func (g *fuzzGen) float() float64 {
	if b := g.byte(); b < 0xe0 {
		return edgeFloats[int(b)%len(edgeFloats)]
	}
	var bits uint64
	for range 8 {
		bits = bits<<8 | uint64(g.byte())
	}
	return math.Float64frombits(bits)
}

func (g *fuzzGen) floats() []float64 {
	if b := g.byte(); b < 0x20 {
		return nil
	}
	xs := make([]float64, g.byte()%5)
	for i := range xs {
		xs[i] = g.float()
	}
	return xs
}

// str is an edge string, or raw bytes.
func (g *fuzzGen) str() string {
	if b := g.byte(); b < 0xc0 {
		return edgeStrings[int(b)%len(edgeStrings)]
	}
	s := make([]byte, g.byte()%12)
	for i := range s {
		s[i] = g.byte()
	}
	return string(s)
}

func (g *fuzzGen) strs() []string {
	if b := g.byte(); b < 0x20 {
		return nil
	}
	ss := make([]string, g.byte()%4)
	for i := range ss {
		ss[i] = g.str()
	}
	return ss
}

func (g *fuzzGen) rows() []server.SessionProbJSON {
	if g.bit() {
		return nil
	}
	rows := make([]server.SessionProbJSON, g.byte()%4)
	for i := range rows {
		rows[i] = server.SessionProbJSON{Session: g.strs(), Prob: g.float()}
	}
	return rows
}

func (g *fuzzGen) result() server.V1Result {
	r := server.V1Result{Kind: g.str(), Prob: g.float(), Count: g.float(), LiveSessions: g.int(), Solves: g.int(), CacheHits: g.int()}
	sections := g.byte()
	if sections&1 != 0 {
		r.Top = g.rows()
	}
	if sections&2 != 0 {
		r.PerSession = g.rows()
	}
	if sections&4 != 0 {
		r.Diag = &server.TopKDiagJSON{BoundSolves: g.int(), BoundCacheHits: g.int(), ExactSolves: g.int(), SessionsEvaluated: g.int(), CacheHits: g.int()}
	}
	if sections&8 != 0 {
		p := &server.PlanJSON{ExactGroups: g.int(), SampledGroups: g.int(), Samples: g.int(),
			MaxHalfWidth: g.float(), ProbHalfWidth: g.float(), CountHalfWidth: g.float()}
		if g.bit() {
			p.Methods = map[string]int{}
			for range g.byte() % 4 {
				p.Methods[g.str()] = g.int()
			}
		}
		r.Plan = p
	}
	if sections&16 != 0 {
		a := &server.AggregateJSON{Sum: g.float(), Count: g.float(), Sessions: g.int()}
		if g.bit() {
			avg := g.float()
			a.Avg = &avg
		}
		if g.bit() {
			a.Rows = []server.AggRowJSON{}
			for range g.byte() % 3 {
				a.Rows = append(a.Rows, server.AggRowJSON{Prob: g.float(), Value: g.float()})
			}
		}
		r.Aggregate = a
	}
	if sections&32 != 0 {
		r.CountDist = &server.CountDistJSON{N: g.int(), Mean: g.float(), StdDev: g.float(), Mode: g.int(),
			Median: g.int(), Lo95: g.int(), Hi95: g.int(), PMF: g.floats()}
	}
	if sections&64 != 0 {
		c := &server.ConsensusJSON{Target: g.str(), Sampled: g.bit(), LiveSessions: g.int(), Ranking: g.strs(), Domain: g.strs()}
		if g.bit() {
			c.Pairwise = [][]float64{g.floats(), g.floats()}
		}
		if g.bit() {
			c.Rows = []consensus.Row{{Session: g.strs(), Weight: g.float(), Top: g.floats(), Mode: map[string]float64{g.str(): g.float()}}}
		}
		r.Consensus = c
	}
	return r
}

func (g *fuzzGen) results() []server.V1Result {
	if g.bit() {
		return nil
	}
	rs := make([]server.V1Result, g.byte()%3)
	for i := range rs {
		rs[i] = g.result()
	}
	return rs
}

func (g *fuzzGen) batch() *server.BatchJSON {
	if g.bit() {
		return nil
	}
	return &server.BatchJSON{Groups: g.int(), Instances: g.int(), Solved: g.int(), CacheHits: g.int()}
}

func (g *fuzzGen) diag() *cluster.ClusterDiagJSON {
	if g.bit() {
		return nil
	}
	d := &cluster.ClusterDiagJSON{Partial: g.bit(), Errors: g.strs()}
	if g.bit() {
		d.FailedPartitions = []int{}
		for range g.byte() % 3 {
			d.FailedPartitions = append(d.FailedPartitions, g.int())
		}
	}
	return d
}

// FuzzV1ResponseJSON is the appender's differential test: on random shard
// and coordinator envelopes it must write encoding/json's bytes, and fail
// exactly where encoding/json fails.
func FuzzV1ResponseJSON(f *testing.F) {
	f.Add([]byte{})
	f.Add(bytes.Repeat([]byte{0x7f}, 64))
	f.Add(bytes.Repeat([]byte{0xff, 0x21, 0x02, 0x7e}, 64))
	f.Fuzz(func(t *testing.T, data []byte) {
		g := &fuzzGen{data: data}
		resp := &server.V1Response{Results: g.results(), Batch: g.batch()}
		if g.bit() {
			r := g.result()
			resp.Result = &r
		}
		checkAppend(t, resp)
		cresp := &cluster.ResponseJSON{Batch: g.batch()}
		for _, r := range g.results() {
			cresp.Results = append(cresp.Results, cluster.ResultJSON{V1Result: r, Cluster: g.diag()})
		}
		if g.bit() {
			cresp.Result = &cluster.ResultJSON{V1Result: g.result(), Cluster: g.diag()}
		}
		checkAppend(t, cresp)
	})
}
