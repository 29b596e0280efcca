package server

import (
	"bufio"
	"bytes"
	"encoding/json"
	"net/http/httptest"
	"strings"
	"testing"
)

// Tests for the versioned unified endpoint: POST /v1/query must serve all
// five kinds, the batch form, NDJSON streaming, and map bad requests to
// 400s with the compile errors' enumerated-value texts.

func postV1(t *testing.T, srv *httptest.Server, body string) (int, []byte) {
	t.Helper()
	return postTo(t, srv, "/v1/query", body)
}

// postTo posts a JSON body to path and returns status and raw response.
func postTo(t *testing.T, srv *httptest.Server, path, body string) (int, []byte) {
	t.Helper()
	resp, err := srv.Client().Post(srv.URL+path, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, buf.Bytes()
}

func TestV1QueryAllKinds(t *testing.T) {
	svc := figure1Service(t, Config{})
	srv := httptest.NewServer(svc.Handler())
	defer srv.Close()

	cases := []struct {
		name  string
		body  string
		check func(t *testing.T, res V1Result)
	}{
		{"bool", `{"kind":"bool","query":` + jsonStr(doDemoQuery) + `}`, func(t *testing.T, res V1Result) {
			if res.Kind != "bool" || res.Prob <= 0 || res.Prob > 1 {
				t.Errorf("bad bool result: %+v", res)
			}
		}},
		{"count", `{"kind":"count","query":` + jsonStr(doDemoQuery) + `,"per_session":true}`, func(t *testing.T, res V1Result) {
			if res.Count <= 0 || len(res.PerSession) == 0 {
				t.Errorf("bad count result: %+v", res)
			}
		}},
		{"topk", `{"kind":"topk","query":` + jsonStr(doDemoQuery) + `,"k":2,"bound":1}`, func(t *testing.T, res V1Result) {
			if len(res.Top) != 2 || res.Diag == nil {
				t.Errorf("bad topk result: %+v", res)
			}
		}},
		{"aggregate", `{"kind":"aggregate","query":` + jsonStr(doDemoQuery) + `,"agg_rel":"V","agg_attr":"age"}`, func(t *testing.T, res V1Result) {
			if res.Aggregate == nil || res.Aggregate.Sessions == 0 || res.Aggregate.Avg == nil {
				t.Errorf("bad aggregate result: %+v", res)
			}
		}},
		{"countdist", `{"kind":"countdist","query":` + jsonStr(doDemoQuery) + `}`, func(t *testing.T, res V1Result) {
			if res.CountDist == nil || res.CountDist.N != 3 || len(res.CountDist.PMF) != 4 {
				t.Errorf("bad countdist result: %+v", res)
			}
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			code, body := postV1(t, srv, tc.body)
			if code != 200 {
				t.Fatalf("status %d:\n%s", code, body)
			}
			var out V1Response
			if err := json.Unmarshal(body, &out); err != nil {
				t.Fatalf("unmarshal: %v\n%s", err, body)
			}
			if out.Result == nil {
				t.Fatalf("missing result:\n%s", body)
			}
			tc.check(t, *out.Result)
		})
	}
}

func jsonStr(s string) string {
	b, _ := json.Marshal(s)
	return string(b)
}

func TestV1QueryBatch(t *testing.T) {
	svc := figure1Service(t, Config{})
	srv := httptest.NewServer(svc.Handler())
	defer srv.Close()
	body := `{"requests":[
		{"kind":"bool","query":` + jsonStr(doDemoQuery) + `},
		{"kind":"countdist","query":` + jsonStr(doDemoQuery) + `}
	]}`
	code, raw := postV1(t, srv, body)
	if code != 200 {
		t.Fatalf("status %d:\n%s", code, raw)
	}
	var out V1Response
	if err := json.Unmarshal(raw, &out); err != nil {
		t.Fatal(err)
	}
	if len(out.Results) != 2 || out.Batch == nil {
		t.Fatalf("bad batch response:\n%s", raw)
	}
	if out.Batch.Groups == 0 || out.Batch.Instances == 0 {
		t.Errorf("homogeneous batch should report grouped accounting: %+v", out.Batch)
	}
	if out.Results[1].CountDist == nil {
		t.Errorf("countdist result missing distribution:\n%s", raw)
	}
}

func TestV1QueryModelRouting(t *testing.T) {
	svc := figure1Service(t, Config{})
	srv := httptest.NewServer(svc.Handler())
	defer srv.Close()
	if code, _ := postV1(t, srv, `{"kind":"bool","query":`+jsonStr(doDemoQuery)+`,"model":"default"}`); code != 200 {
		t.Errorf("explicit default model: status %d", code)
	}
	if code, _ := postV1(t, srv, `{"kind":"bool","query":`+jsonStr(doDemoQuery)+`,"model":"ghost"}`); code != 404 {
		t.Errorf("unknown model: status %d, want 404", code)
	}
}

func TestV1QueryErrors(t *testing.T) {
	svc := figure1Service(t, Config{})
	srv := httptest.NewServer(svc.Handler())
	defer srv.Close()
	cases := []struct {
		body string
		want string // substring of the error text
	}{
		{`{"kind":"nope","query":"x"}`, "unknown kind"},
		{`{"kind":"nope","query":"x"}`, "bool | count | topk | aggregate | countdist"},
		{`{"kind":"bool"}`, "no query"},
		{`{"kind":"bool","query":"x","method":"nope"}`, "unknown method"},
		{`{"kind":"bool","query":` + jsonStr(doDemoQuery) + `,"k":3}`, "only valid for kind topk"},
		{`{"kind":"topk","query":` + jsonStr(doDemoQuery) + `}`, "requires K"},
		{`{"kind":"bool","query":` + jsonStr(doDemoQuery) + `,"timeout_ms":-1}`, "timeout_ms"},
		{`{"kind":"aggregate","query":` + jsonStr(doDemoQuery) + `,"agg_rel":"r","agg_attr":"a","stream":true}`, "not valid for kind aggregate"},
		{`{"bogus":1}`, "unknown field"},
		{`{"requests":[{"kind":"bool","query":"x"}],"kind":"bool"}`, "must not mix"},
		{`{"requests":[{"kind":"bool","query":"x"}],"model":"polls"}`, "must not mix"},
		{`{"requests":[{"kind":"bool","query":"x"}],"timeout_ms":5}`, "must not mix"},
		{`{"requests":[{"kind":"topk","query":` + jsonStr(doDemoQuery) + `,"k":1,"stream":true}]}`, "single request"},
	}
	for _, tc := range cases {
		code, body := postV1(t, srv, tc.body)
		if code != 400 {
			t.Errorf("%s: status %d, want 400\n%s", tc.body, code, body)
			continue
		}
		if !strings.Contains(string(body), tc.want) {
			t.Errorf("%s: error %s does not mention %q", tc.body, body, tc.want)
		}
	}
	// Wrong method: /v1/query is POST-only.
	resp, err := srv.Client().Get(srv.URL + "/v1/query")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode == 200 {
		t.Errorf("GET /v1/query should not be served, got 200")
	}
}

// TestV1QueryStreamNDJSON: the stream flag answers a topk request as
// NDJSON — a summary line (diagnostics, no rows) followed by one session
// row per line.
func TestV1QueryStreamNDJSON(t *testing.T) {
	svc := figure1Service(t, Config{})
	srv := httptest.NewServer(svc.Handler())
	defer srv.Close()
	resp, err := srv.Client().Post(srv.URL+"/v1/query", "application/json",
		strings.NewReader(`{"kind":"topk","query":`+jsonStr(doDemoQuery)+`,"k":3,"stream":true}`))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Fatalf("status %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Fatalf("content type %q", ct)
	}
	sc := bufio.NewScanner(resp.Body)
	if !sc.Scan() {
		t.Fatal("missing summary line")
	}
	var head V1Result
	if err := json.Unmarshal(sc.Bytes(), &head); err != nil {
		t.Fatalf("summary line: %v\n%s", err, sc.Text())
	}
	if head.Kind != "topk" || head.Diag == nil || len(head.Top) != 0 {
		t.Fatalf("bad summary line: %s", sc.Text())
	}
	var rows []SessionProbJSON
	for sc.Scan() {
		var row SessionProbJSON
		if err := json.Unmarshal(sc.Bytes(), &row); err != nil {
			t.Fatalf("row: %v\n%s", err, sc.Text())
		}
		rows = append(rows, row)
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3 {
		t.Fatalf("streamed %d rows, want 3", len(rows))
	}
	for i := 1; i < len(rows); i++ {
		if rows[i].Prob > rows[i-1].Prob {
			t.Errorf("rows out of order: %v after %v", rows[i].Prob, rows[i-1].Prob)
		}
	}
}

// TestV1MatchesLegacyEndpoints: the legacy /eval and /topk adapters and
// /v1/query answer the same query with the same numbers.
func TestV1MatchesLegacyEndpoints(t *testing.T) {
	svc := figure1Service(t, Config{})
	srv := httptest.NewServer(svc.Handler())
	defer srv.Close()

	var legacy EvalResponse
	if code := get(t, srv, "/eval?q="+queryParam(doDemoQuery), &legacy); code != 200 {
		t.Fatalf("legacy eval status %d", code)
	}
	code, raw := postV1(t, srv, `{"kind":"bool","query":`+jsonStr(doDemoQuery)+`}`)
	if code != 200 {
		t.Fatalf("v1 status %d", code)
	}
	var v1 V1Response
	if err := json.Unmarshal(raw, &v1); err != nil {
		t.Fatal(err)
	}
	if v1.Result.Prob != legacy.Results[0].Prob || v1.Result.Count != legacy.Results[0].Count {
		t.Errorf("v1 (%v, %v) != legacy /eval (%v, %v)",
			v1.Result.Prob, v1.Result.Count, legacy.Results[0].Prob, legacy.Results[0].Count)
	}

	var legacyTopK TopKResponse
	if code := get(t, srv, "/topk?q="+queryParam(doDemoQuery)+"&k=2&bound=1", &legacyTopK); code != 200 {
		t.Fatalf("legacy topk status %d", code)
	}
	code, raw = postV1(t, srv, `{"kind":"topk","query":`+jsonStr(doDemoQuery)+`,"k":2,"bound":1}`)
	if code != 200 {
		t.Fatalf("v1 topk status %d", code)
	}
	var v1top V1Response
	if err := json.Unmarshal(raw, &v1top); err != nil {
		t.Fatal(err)
	}
	if len(v1top.Result.Top) != len(legacyTopK.Results[0].Top) {
		t.Fatalf("row counts differ: %d vs %d", len(v1top.Result.Top), len(legacyTopK.Results[0].Top))
	}
	for i := range v1top.Result.Top {
		if v1top.Result.Top[i].Prob != legacyTopK.Results[0].Top[i].Prob {
			t.Errorf("row %d: %v != %v", i, v1top.Result.Top[i].Prob, legacyTopK.Results[0].Top[i].Prob)
		}
	}
}
