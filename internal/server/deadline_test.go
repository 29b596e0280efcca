package server

import (
	"bufio"
	"bytes"
	"encoding/json"
	"net/http/httptest"
	"reflect"
	"testing"

	"probpref/internal/dataset"
	"probpref/internal/ppd"
)

// deadlineServer serves an adaptive service with the solve cache off over
// polls at 60 voters and returns its demo query: a 5 ms deadline prices
// some of the query's 59 groups exact and samples the rest.
func deadlineServer(t *testing.T, candidates, voters int) (*httptest.Server, string) {
	t.Helper()
	db, query, err := dataset.Build(dataset.BuildConfig{Name: "polls", Candidates: candidates, Voters: voters, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(New(db, Config{Method: ppd.MethodAdaptive, Workers: 2, CacheSize: -1}).Handler())
	t.Cleanup(srv.Close)
	return srv, query
}

// A timeout_ms request is priced once as the planner's budget, so identical
// requests answer identical bytes, routes included, however long the box
// takes to solve them.
func TestHTTPDeadlineAnswersIdentical(t *testing.T) {
	srv, query := deadlineServer(t, 20, 60)
	body := `{"kind":"count","timeout_ms":5,"per_session":true,"query":` + jsonStr(query) + `}`
	var first []byte
	for i := 0; i < 5; i++ {
		code, raw := postV1(t, srv, body)
		if code != 200 {
			t.Fatalf("run %d: status %d: %s", i, code, raw)
		}
		if i == 0 {
			first = raw
			var resp V1Response
			if err := json.Unmarshal(raw, &resp); err != nil {
				t.Fatal(err)
			}
			if p := resp.Result.Plan; p == nil || p.ExactGroups == 0 || p.SampledGroups == 0 {
				t.Fatalf("fixture: a 5 ms budget should route some groups exact and sample others, got %+v", p)
			}
			continue
		}
		if !bytes.Equal(raw, first) {
			t.Fatalf("run %d answered\n%s\nrun 0\n%s", i, raw, first)
		}
	}
}

// A streamed timeout_ms request keeps its budget: its head is the
// unstreamed answer without the rows.
func TestV1StreamDeadlineHeadMatchesUnstreamed(t *testing.T) {
	srv, query := deadlineServer(t, 20, 60)
	body := `{"kind":"count","timeout_ms":5,"query":` + jsonStr(query)
	code, raw := postV1(t, srv, body+`,"per_session":true}`)
	if code != 200 {
		t.Fatalf("status %d: %s", code, raw)
	}
	var want V1Response
	if err := json.Unmarshal(raw, &want); err != nil {
		t.Fatal(err)
	}
	want.Result.PerSession = nil
	code, raw = postV1(t, srv, body+`,"stream":true}`)
	if code != 200 {
		t.Fatalf("stream status %d: %s", code, raw)
	}
	sc := bufio.NewScanner(bytes.NewReader(raw))
	if !sc.Scan() {
		t.Fatal("missing head line")
	}
	var head V1Result
	if err := json.Unmarshal(sc.Bytes(), &head); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(&head, want.Result) {
		t.Fatalf("streamed head %+v (plan %+v), unstreamed %+v (plan %+v)", head, head.Plan, *want.Result, want.Result.Plan)
	}
}

// An adaptive consensus under a deadline its exact enumeration cannot meet
// answers with sampled rows instead of failing: the deadline is a budget,
// not a timeout.
func TestHTTPConsensusDeadlineAdaptiveSamples(t *testing.T) {
	srv, query := deadlineServer(t, 7, 100)
	var resp V1Response
	body := `{"kind":"consensus","target":"median","timeout_ms":1,"query":` + jsonStr(query) + `}`
	if code := post(t, srv, "/v1/query", body, &resp); code != 200 {
		t.Fatalf("status %d: %+v", code, resp)
	}
	c := resp.Result.Consensus
	if c == nil || !c.Sampled || c.Samples == 0 || c.Target != "median" {
		t.Fatalf("want a sampled median, got %+v", c)
	}
}
