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

	// Two identical requests share their inference groups, and the batched
	// answer is the standalone one.
	var single, twice V1Response
	one := `{"kind":"bool","query":` + jsonStr(q2) + `}`
	if code := post(t, srv, "/v1/query", one, &single); code != 200 {
		t.Fatalf("status %d", code)
	}
	if code := post(t, srv, "/v1/query", `{"requests":[`+one+`,`+one+`]}`, &twice); code != 200 {
		t.Fatalf("status %d", code)
	}
	if len(twice.Results) != 2 || twice.Batch.Instances <= twice.Batch.Groups {
		t.Fatalf("no dedup visible: %+v", twice)
	}
	if twice.Results[0].Prob != single.Result.Prob {
		t.Fatalf("batch prob %v != single prob %v", twice.Results[0].Prob, single.Result.Prob)
	}

	// A batch of topk requests answers each with its own k.
	var tops V1Response
	body = `{"requests":[{"kind":"topk","query":` + jsonStr(q1) + `,"k":1,"bound":1},{"kind":"topk","query":` + jsonStr(q2) + `,"k":2}]}`
	if code := post(t, srv, "/v1/query", body, &tops); code != 200 {
		t.Fatalf("status %d", code)
	}
	if len(tops.Results) != 2 || len(tops.Results[0].Top) != 1 || len(tops.Results[1].Top) != 2 {
		t.Fatalf("bad topk batch: %+v", tops)
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
