package server

import (
	"bytes"
	"context"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"math"
	"net/http/httptest"
	"reflect"
	"runtime"
	"strings"
	"testing"

	"probpref/internal/dataset"
	"probpref/internal/ppd"
)

// Tests of the coordinator↔shard wire (rows.go): the frame codec round
// trip, the decoder's refusal of every malformed frame, and the /v1/rows
// route sharing /v1/query's front half.

// rowsKinds is one request per query kind, over figure1 and polls alike.
func rowsKinds() []V1Request {
	return []V1Request{
		{Kind: "bool", Query: q1},
		{Kind: "count", Query: q1 + " | " + q2},
		{Kind: "countdist", Query: q1},
		{Kind: "topk", Query: q1, K: 2, Bound: 1},
		{Kind: "aggregate", Query: q1, AggRel: "V", AggAttr: "age"},
		{Kind: "consensus", Query: q1, Target: "median"},
	}
}

// answerOf runs reqs through svc and wraps the responses the way
// Service.answer does: inline for one request without batch, as a batch
// otherwise.
func answerOf(t testing.TB, svc *Service, reqs []V1Request, batch bool) *v1Answer {
	t.Helper()
	ans := &v1Answer{q: &V1Query{}}
	for _, vr := range reqs {
		req, err := vr.ToRequest()
		if err != nil {
			t.Fatal(err)
		}
		resp, err := svc.Do(context.Background(), req)
		if err != nil {
			t.Fatal(err)
		}
		ans.resps = append(ans.resps, resp)
	}
	if batch {
		ans.q.Body.Requests = reqs
		ans.batch = &BatchJSON{Groups: 7, Instances: 11, Solved: 3, CacheHits: 4}
	} else {
		ans.q.Body.V1Request = reqs[0]
	}
	return ans
}

// checkRowsResult requires got to be exactly what the frame of resp must
// carry: the head, and every column bit for bit.
func checkRowsResult(t *testing.T, got *RowsResult, resp *ppd.Response, keys bool) {
	t.Helper()
	head := rowsHead(resp)
	want, _ := json.Marshal(&head)
	have, _ := json.Marshal(&got.Head)
	if !bytes.Equal(want, have) {
		t.Errorf("head = %s\nwant   %s", have, want)
	}
	if len(got.Probs) != len(resp.PerSession) {
		t.Fatalf("%d probabilities, want %d", len(got.Probs), len(resp.PerSession))
	}
	for i, sp := range resp.PerSession {
		if math.Float64bits(got.Probs[i]) != math.Float64bits(sp.Prob) {
			t.Errorf("prob %d = %v, want the bits of %v", i, got.Probs[i], sp.Prob)
		}
	}
	switch {
	case !keys && got.Keys != nil:
		t.Errorf("keys travelled unasked: %v", got.Keys)
	case keys:
		for i, sp := range resp.PerSession {
			if !reflect.DeepEqual(got.Keys[i], sp.Session.Key) {
				t.Errorf("key %d = %v, want %v", i, got.Keys[i], sp.Session.Key)
			}
		}
	}
	if len(got.Top) != len(resp.Top) {
		t.Fatalf("%d top rows, want %d", len(got.Top), len(resp.Top))
	}
	for i, sp := range resp.Top {
		if math.Float64bits(got.Top[i].Prob) != math.Float64bits(sp.Prob) || !reflect.DeepEqual(got.Top[i].Session, sp.Session.Key) {
			t.Errorf("top %d = %+v, want %v %v", i, got.Top[i], sp.Session.Key, sp.Prob)
		}
	}
	var agg []ppd.AggRow
	if resp.Agg != nil {
		agg = resp.Agg.Rows
	}
	if !reflect.DeepEqual(got.Agg, agg) {
		t.Errorf("aggregate terms = %v, want %v", got.Agg, agg)
	}
}

// TestRowsFrameRoundTrip encodes and decodes all six kinds, inline and as
// one batch, with and without session keys.
func TestRowsFrameRoundTrip(t *testing.T) {
	svc := figure1Service(t, Config{})
	for _, keys := range []bool{false, true} {
		reqs := rowsKinds()
		for i := range reqs {
			reqs[i].PerSession = keys
		}
		for _, vr := range reqs {
			t.Run(fmt.Sprintf("%s/keys=%v", vr.Kind, keys), func(t *testing.T) {
				ans := answerOf(t, svc, []V1Request{vr}, false)
				frame, err := appendRowsFrame(nil, ans)
				if err != nil {
					t.Fatal(err)
				}
				f, err := DecodeRows(frame)
				if err != nil {
					t.Fatal(err)
				}
				if f.Batch != nil || len(f.Results) != 1 {
					t.Fatalf("inline frame decoded to batch %v with %d results", f.Batch, len(f.Results))
				}
				checkRowsResult(t, &f.Results[0], ans.resps[0], keys)
			})
		}
		t.Run(fmt.Sprintf("batch/keys=%v", keys), func(t *testing.T) {
			ans := answerOf(t, svc, reqs, true)
			frame, err := appendRowsFrame(nil, ans)
			if err != nil {
				t.Fatal(err)
			}
			f, err := DecodeRows(frame)
			if err != nil {
				t.Fatal(err)
			}
			if f.Batch == nil || *f.Batch != *ans.batch {
				t.Fatalf("batch accounting = %+v, want %+v", f.Batch, ans.batch)
			}
			if len(f.Results) != len(reqs) {
				t.Fatalf("%d results, want %d", len(f.Results), len(reqs))
			}
			for i := range f.Results {
				checkRowsResult(t, &f.Results[i], ans.resps[i], keys)
			}
		})
	}
}

// rowsSeedFrames is the valid half of the fuzz corpus: an inline answer
// with keys, an inline answer without, and a batch of all six kinds.
func rowsSeedFrames(t testing.TB) [][]byte {
	t.Helper()
	db, err := dataset.Figure1()
	if err != nil {
		t.Fatal(err)
	}
	svc := New(db, Config{})
	kinds := rowsKinds()
	keyed := kinds[0]
	keyed.PerSession = true
	var frames [][]byte
	for _, ans := range []*v1Answer{
		answerOf(t, svc, []V1Request{keyed}, false),
		answerOf(t, svc, kinds[3:4], false),
		answerOf(t, svc, kinds, true),
	} {
		frame, err := appendRowsFrame(nil, ans)
		if err != nil {
			t.Fatal(err)
		}
		frames = append(frames, frame)
	}
	return frames
}

// hugeCountFrame is a 40-byte frame whose one result claims 2^32-1
// per-session rows.
func hugeCountFrame() []byte {
	le := binary.LittleEndian
	b := append([]byte(rowsMagic), rowsVersion, 0)
	b = le.AppendUint32(b, 30) // payload length
	b = le.AppendUint32(b, 1)  // one result
	b = le.AppendUint32(b, 2)  // head length
	b = append(b, "{}"...)
	b = append(b, 0)                       // result flags
	b = le.AppendUint32(b, math.MaxUint32) // per-session rows
	return append(b, make([]byte, 40-len(b))...)
}

// TestDecodeRowsRejects feeds the decoder the malformed frames a broken or
// foreign shard could send: each is an error, none a panic.
func TestDecodeRowsRejects(t *testing.T) {
	for fi, frame := range rowsSeedFrames(t) {
		if _, err := DecodeRows(frame); err != nil {
			t.Fatalf("seed frame %d does not decode: %v", fi, err)
		}
		for n := 0; n < len(frame); n++ {
			if _, err := DecodeRows(frame[:n]); err == nil {
				t.Fatalf("frame %d truncated to %d of %d bytes decoded", fi, n, len(frame))
			}
		}
		mutate := func(name string, f func(b []byte) []byte) {
			if _, err := DecodeRows(f(bytes.Clone(frame))); err == nil {
				t.Errorf("frame %d with %s decoded", fi, name)
			}
		}
		mutate("a foreign magic", func(b []byte) []byte { b[0] = 'Q'; return b })
		mutate("version 2", func(b []byte) []byte { b[len(rowsMagic)] = 2; return b })
		mutate("an unknown frame flag", func(b []byte) []byte { b[len(rowsMagic)+1] |= 0x80; return b })
		mutate("a trailing byte", func(b []byte) []byte { return append(b, 0) })
		mutate("a trailing byte inside the declared payload", func(b []byte) []byte {
			b = append(b, 0)
			binary.LittleEndian.PutUint32(b[rowsHeaderLen-4:], uint32(len(b)-rowsHeaderLen))
			return b
		})
		mutate("a short declared payload", func(b []byte) []byte {
			binary.LittleEndian.PutUint32(b[rowsHeaderLen-4:], uint32(len(b)-rowsHeaderLen-1))
			return b
		})
	}
	if _, err := DecodeRows([]byte(`{"result":{"kind":"bool"}}`)); err == nil {
		t.Error("a /v1/query JSON body decoded as a frame")
	}

	// A count is checked against the bytes that remain before it sizes
	// anything: 2^32-1 rows in 40 bytes must cost an error, not 32 GiB.
	huge := hugeCountFrame()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, err := DecodeRows(huge)
	runtime.ReadMemStats(&after)
	if err == nil || !strings.Contains(err.Error(), "claims") {
		t.Errorf("2^32-1 rows in %d bytes: err = %v, want the count check to refuse", len(huge), err)
	}
	if grew := after.TotalAlloc - before.TotalAlloc; grew > 1<<20 {
		t.Errorf("refusing the frame allocated %d bytes", grew)
	}
}

// decodedFloor is the least number of payload bytes the decoded rows of f
// must have occupied.
func decodedFloor(f *RowsFrame) int {
	n := rowsResultMin * len(f.Results)
	for i := range f.Results {
		r := &f.Results[i]
		n += 8*len(r.Probs) + 4*len(r.Keys) + (8+4)*len(r.Top) + 16*len(r.Agg)
		for _, key := range r.Keys {
			n += 4 * len(key)
		}
	}
	return n
}

// FuzzDecodeRows holds the decoder to its contract on arbitrary bytes: it
// never panics, and whatever it returns was paid for in input bytes — the
// decoded rows never outnumber what the frame's length can hold. The
// committed corpus (testdata/fuzz/FuzzDecodeRows) holds the frames of
// rowsSeedFrames plus their corruptions.
func FuzzDecodeRows(f *testing.F) {
	for _, frame := range rowsSeedFrames(f) {
		f.Add(frame)
		f.Add(frame[:len(frame)/2])
		f.Add(append(bytes.Clone(frame), 0))
	}
	f.Add(hugeCountFrame())
	f.Add([]byte(rowsMagic))
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		frame, err := DecodeRows(data)
		if err != nil {
			return
		}
		if floor := decodedFloor(frame); floor > len(data) {
			t.Fatalf("%d input bytes decoded to rows that need at least %d", len(data), floor)
		}
	})
}

// TestRowsRouteSharesFrontHalf posts the same bodies to /v1/query and
// /v1/rows: a malformed one must fail with the same status and the same
// first error on both, a good one must decode to what /v1/query printed,
// and a stream is refused.
func TestRowsRouteSharesFrontHalf(t *testing.T) {
	svc := figure1Service(t, Config{})
	srv := httptest.NewServer(svc.Handler())
	defer srv.Close()
	for _, body := range []string{
		`{"kind":"nope","query":"P(_, _; c1; c2)"}`,
		`{"kind":"bool"}`,
		`{"kind":"bool","query":"P(","per_session":true}`,
		`{"kind":"bool","query":"P(_, _; c1; c2)","bogus":1}`,
		`{"kind":"topk","query":` + jsonStr(q1) + `}`,
		`{"kind":"bool","query":` + jsonStr(q1) + `,"timeout_ms":-1}`,
		`{"kind":"bool","query":` + jsonStr(q1) + `,"model":"missing"}`,
		`{"kind":"aggregate","query":` + jsonStr(q1) + `}`,
		`{"kind":"consensus","query":` + jsonStr(q1) + `,"target":"kemeny"}`,
		`{"kind":"nope","query":` + jsonStr(q1) + `,"stream":true}`,
		`{"kind":"topk","query":` + jsonStr(q1) + `,"k":3,"requests":[{"kind":"bool","query":` + jsonStr(q1) + `}]}`,
		`{"requests":[{"kind":"bool","query":` + jsonStr(q1) + `,"stream":true}]}`,
		`{"requests":[{"kind":"bool","query":` + jsonStr(q1) + `},{"kind":"count"}]}`,
		`not json`,
	} {
		qs, qb := postV1(t, srv, body)
		rs, rb := postTo(t, srv, "/v1/rows", body)
		if qs == 200 || qs != rs || !bytes.Equal(qb, rb) {
			t.Errorf("%s\n/v1/query %d: %s/v1/rows  %d: %s", body, qs, qb, rs, rb)
		}
	}

	status, raw := postTo(t, srv, "/v1/rows", `{"kind":"bool","query":`+jsonStr(q1)+`,"stream":true}`)
	if status != 400 || !strings.Contains(string(raw), "stream is not valid on /v1/rows") {
		t.Errorf("stream on /v1/rows: %d %s, want a 400 naming the route", status, raw)
	}

	body := `{"kind":"bool","query":` + jsonStr(q1) + `,"per_session":true}`
	status, raw = postV1(t, srv, body)
	if status != 200 {
		t.Fatalf("/v1/query: %d %s", status, raw)
	}
	var want V1Response
	if err := json.Unmarshal(raw, &want); err != nil {
		t.Fatal(err)
	}
	status, raw = postTo(t, srv, "/v1/rows", body)
	if status != 200 {
		t.Fatalf("/v1/rows: %d %s", status, raw)
	}
	f, err := DecodeRows(raw)
	if err != nil {
		t.Fatal(err)
	}
	got := f.Results[0]
	if len(got.Probs) != len(want.Result.PerSession) || len(got.Keys) != len(got.Probs) {
		t.Fatalf("frame has %d rows and %d keys, /v1/query printed %d rows", len(got.Probs), len(got.Keys), len(want.Result.PerSession))
	}
	for i, row := range want.Result.PerSession {
		if got.Probs[i] != row.Prob || !reflect.DeepEqual(got.Keys[i], row.Session) {
			t.Errorf("row %d = %v %v, /v1/query printed %v %v", i, got.Keys[i], got.Probs[i], row.Session, row.Prob)
		}
	}
}

// TestRowsRouteIsGated pins the one admission slot: /v1/rows sheds like
// /v1/query does.
func TestRowsRouteIsGated(t *testing.T) {
	svc := figure1Service(t, Config{MaxInFlight: 1, MaxQueue: -1, Workers: 2})
	srv := httptest.NewServer(svc.Handler())
	defer srv.Close()
	release, done := pinStreams(t, svc, srv, 1)
	defer release()
	resp, err := srv.Client().Post(srv.URL+"/v1/rows", "application/json",
		strings.NewReader(fmt.Sprintf(`{"kind":"bool","query":%q}`, q1)))
	if err != nil {
		t.Fatal(err)
	}
	shedAssert(t, resp)
	release()
	done.Wait()
}

// pollsAnswers builds the BenchmarkRowsFrame inputs over a 75-voter polls
// model: a bool and a countdist answer, and a batch of eight.
func pollsAnswers(b *testing.B) []*v1Answer {
	db, err := dataset.Polls(dataset.PollsConfig{Candidates: 10, Voters: 75, Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	svc := New(db, Config{})
	kinds := rowsKinds()
	var batch []V1Request
	for len(batch) < 8 {
		batch = append(batch, kinds[len(batch)%3])
	}
	batch[3].PerSession = true
	batch[7].PerSession = true
	return []*v1Answer{
		answerOf(b, svc, kinds[0:1], false),
		answerOf(b, svc, kinds[2:3], false),
		answerOf(b, svc, batch, true),
	}
}

var rowsSink *RowsFrame

// BenchmarkRowsFrame measures one encode plus one decode of a frame: what
// the hop spends on its wire per shard answer.
func BenchmarkRowsFrame(b *testing.B) {
	for i, ans := range pollsAnswers(b) {
		b.Run([]string{"bool", "countdist", "batch8"}[i], func(b *testing.B) {
			var buf []byte
			b.ReportAllocs()
			for b.Loop() {
				var err error
				if buf, err = appendRowsFrame(buf[:0], ans); err != nil {
					b.Fatal(err)
				}
				if rowsSink, err = DecodeRows(buf); err != nil {
					b.Fatal(err)
				}
			}
			b.SetBytes(int64(len(buf)))
		})
	}
}
