package server

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"probpref/internal/dataset"
	"probpref/internal/ppd"
	"probpref/internal/registry"
)

// Ingest tests: POST /v1/sessions appends sessions to a live model while
// queries keep running. The registry swaps the model's database under its
// build lock, so requests that already opened a handle finish on the
// pre-ingest snapshot while later opens see the grown model. Nothing is
// purged: the caches are content-addressed and the grown version inherits
// the grounding memo. Run under -race (CI does).

// figIngest builds an ingest request appending one figure1-shaped session
// per key (4-item Mallows center, session key (voter, day)).
func figIngest(model string, keys ...string) *IngestRequest {
	req := &IngestRequest{Model: model, Pref: "P"}
	for i, k := range keys {
		req.Sessions = append(req.Sessions, IngestSessionJSON{
			Key:   []string{k, fmt.Sprintf("%d/7", i+7)},
			Sigma: []int{0, 1, 2, 3},
			Phi:   0.4,
		})
	}
	return req
}

// sessionCount asks the model for every session via an exhaustive topk.
func sessionCount(t *testing.T, svc *Service, model string) int {
	t.Helper()
	resp, err := svc.Do(context.Background(), &ppd.Request{
		Kind: ppd.KindTopK, Query: q1, K: 100, Model: model,
	})
	if err != nil {
		t.Fatal(err)
	}
	return len(resp.Top)
}

func TestIngestSessionsGrowsModel(t *testing.T) {
	svc := figure1Service(t, Config{})
	if got := sessionCount(t, svc, ""); got != 3 {
		t.Fatalf("fresh figure1 has %d sessions, want 3", got)
	}
	resp, err := svc.IngestSessions(figIngest("", "Eve", "Frank"))
	if err != nil {
		t.Fatal(err)
	}
	if resp.Model != DefaultModel || resp.Pref != "P" || resp.Appended != 2 || resp.Sessions != 5 {
		t.Fatalf("ingest response %+v, want default/P 2 appended of 5", resp)
	}
	if got := sessionCount(t, svc, ""); got != 5 {
		t.Fatalf("model has %d sessions after ingest, want 5", got)
	}
}

func TestIngestValidates(t *testing.T) {
	svc := figure1Service(t, Config{})
	cases := []struct {
		name string
		req  *IngestRequest
	}{
		{"missing pref", &IngestRequest{Sessions: figIngest("", "Eve").Sessions}},
		{"empty sessions", &IngestRequest{Pref: "P"}},
		{"unknown pref", figIngestPref("nope", "Eve")},
		{"not a permutation", &IngestRequest{Pref: "P", Sessions: []IngestSessionJSON{
			{Key: []string{"Eve", "7/7"}, Sigma: []int{0, 0, 1, 2}, Phi: 0.4},
		}}},
		{"key arity", &IngestRequest{Pref: "P", Sessions: []IngestSessionJSON{
			{Key: []string{"only-one"}, Sigma: []int{0, 1, 2, 3}, Phi: 0.4},
		}}},
	}
	for _, tc := range cases {
		if _, err := svc.IngestSessions(tc.req); err == nil {
			t.Errorf("%s: want error", tc.name)
		}
	}
	if _, err := svc.IngestSessions(figIngest("ghost", "Eve")); !errors.Is(err, registry.ErrNotFound) {
		t.Errorf("unknown model: want registry.ErrNotFound, got %v", err)
	}
	if got := sessionCount(t, svc, ""); got != 3 {
		t.Fatalf("rejected ingests changed the model: %d sessions", got)
	}
}

func figIngestPref(pref string, keys ...string) *IngestRequest {
	req := figIngest("", keys...)
	req.Pref = pref
	return req
}

// TestIngestKeepsCachesWarm is the inverse of the purge-on-ingest contract
// it replaces: an append leaves both cache namespaces of the model alone
// (their keys are content-addressed, so no entry can be stale), a repeated
// query after an append that reuses existing (sigma, phi) pairs solves
// nothing, an append that introduces a model solves that model's groups
// only, and a sibling model never notices.
func TestIngestKeepsCachesWarm(t *testing.T) {
	reg := registry.New()
	for _, n := range []string{"a", "b"} {
		if err := reg.Register(registry.Spec{Name: n, Dataset: "figure1", Preload: true}); err != nil {
			t.Fatal(err)
		}
	}
	svc := NewMulti(reg, Config{})
	var swapped []string
	svc.ingestSwappedHook = func(model string) { swapped = append(swapped, model) }

	ask := func(model string) *ppd.Response {
		t.Helper()
		resp, err := svc.Do(context.Background(), &ppd.Request{Kind: ppd.KindBool, Query: q1, Model: model})
		if err != nil {
			t.Fatal(err)
		}
		return resp
	}
	ingest := func(sess IngestSessionJSON) {
		t.Helper()
		resp, err := svc.IngestSessions(&IngestRequest{Model: "a", Pref: "P", Sessions: []IngestSessionJSON{sess}})
		if err != nil {
			t.Fatal(err)
		}
		if resp.PurgedSolves != 0 || resp.PurgedPlans != 0 {
			t.Fatalf("ingest purged %d solve and %d plan entries, want none", resp.PurgedSolves, resp.PurgedPlans)
		}
	}
	cold := ask("a")
	ask("b")
	if cold.Solves == 0 || cold.Solves != len(cold.PerSession) {
		t.Fatalf("cold figure1 query solved %d groups over %d sessions, want one per session", cold.Solves, len(cold.PerSession))
	}
	if warm := ask("a"); warm.Solves != 0 || warm.CacheHits != cold.Solves {
		t.Fatalf("warm model a: %d solves, %d hits, want 0 and %d", warm.Solves, warm.CacheHits, cold.Solves)
	}
	solveEntries, planEntries := svc.Cache().Len(), svc.PlanCache().Len()

	// Eve votes like Ann: same center, same dispersion. Her group is solved.
	ingest(IngestSessionJSON{Key: []string{"Eve", "7/7"}, Sigma: []int{1, 2, 3, 0}, Phi: 0.3})
	if got := svc.Cache().Len(); got != solveEntries {
		t.Fatalf("solve cache holds %d entries after ingest, had %d", got, solveEntries)
	}
	if got := svc.PlanCache().Len(); got != planEntries {
		t.Fatalf("plan cache holds %d entries after ingest, had %d", got, planEntries)
	}
	grown := ask("a")
	if len(grown.PerSession) != len(cold.PerSession)+1 {
		t.Fatalf("grown model answers over %d sessions, want %d", len(grown.PerSession), len(cold.PerSession)+1)
	}
	if grown.Solves != 0 || grown.CacheHits != cold.Solves {
		t.Fatalf("repeat query after a same-model append: %d solves, %d hits, want 0 and %d", grown.Solves, grown.CacheHits, cold.Solves)
	}

	// Frank brings a model the relation has not seen: one new group.
	ingest(IngestSessionJSON{Key: []string{"Frank", "8/7"}, Sigma: []int{0, 1, 2, 3}, Phi: 0.4})
	if fresh := ask("a"); fresh.Solves != 1 || fresh.CacheHits != cold.Solves {
		t.Fatalf("repeat query after a new-model append: %d solves, %d hits, want 1 and %d", fresh.Solves, fresh.CacheHits, cold.Solves)
	}
	if again := ask("a"); again.Solves != 0 {
		t.Fatalf("second repeat still solves %d groups", again.Solves)
	}

	if len(swapped) != 2 || swapped[0] != "a" || swapped[1] != "a" {
		t.Fatalf("swap hook ran for %v, want a twice", swapped)
	}
	if b := ask("b"); b.Solves != 0 || len(b.PerSession) != len(cold.PerSession) {
		t.Fatalf("ingest into a disturbed b: %d solves over %d sessions", b.Solves, len(b.PerSession))
	}

	// Deletion is the one purge left, and it empties both namespaces.
	if err := svc.DeleteModel("a"); err != nil {
		t.Fatal(err)
	}
	if got := svc.Cache().Len(); got != solveEntries/2 {
		t.Fatalf("solve cache holds %d entries after deleting a, want b's %d", got, solveEntries/2)
	}
	if got := svc.PlanCache().Len(); got != planEntries/2 {
		t.Fatalf("plan cache holds %d entries after deleting a, want b's %d", got, planEntries/2)
	}
}

// TestIngestDuringStreamKeepsOldSnapshot holds a /v1/query NDJSON stream
// open mid-row with the row hook, ingests through POST /v1/sessions while
// the stream is pinned, and asserts the stream completes with the
// pre-ingest session set while a fresh query sees the grown model.
func TestIngestDuringStreamKeepsOldSnapshot(t *testing.T) {
	svc := figure1Service(t, Config{Workers: 2})
	var swaps atomic.Int32
	svc.ingestSwappedHook = func(string) { swaps.Add(1) }
	firstRow := make(chan struct{})
	release := make(chan struct{})
	var once sync.Once
	svc.streamRowHook = func(context.Context) {
		once.Do(func() { close(firstRow); <-release })
	}
	srv := httptest.NewServer(svc.Handler())
	defer srv.Close()

	body := fmt.Sprintf(`{"kind":"topk","query":%q,"k":10,"bound":0,"stream":true}`, q1)
	resp, err := srv.Client().Post(srv.URL+"/v1/query", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	sc := bufio.NewScanner(resp.Body)
	if !sc.Scan() {
		t.Fatal("missing summary line")
	}
	if !sc.Scan() {
		t.Fatal("missing first row")
	}
	rows := 1
	<-firstRow // the handler is now pinned between rows

	ing, err := srv.Client().Post(srv.URL+"/v1/sessions", "application/json",
		strings.NewReader(`{"pref":"P","sessions":[{"key":["Eve","7/7"],"sigma":[0,1,2,3],"phi":0.4}]}`))
	if err != nil {
		t.Fatal(err)
	}
	var ir IngestResponse
	if err := json.NewDecoder(ing.Body).Decode(&ir); err != nil {
		t.Fatal(err)
	}
	ing.Body.Close()
	if ing.StatusCode != 200 || ir.Appended != 1 || ir.Sessions != 4 {
		t.Fatalf("mid-stream ingest: status %d, response %+v", ing.StatusCode, ir)
	}
	if n := swaps.Load(); n != 1 {
		t.Fatalf("swap hook ran %d times, want exactly 1", n)
	}

	close(release)
	for sc.Scan() {
		if strings.Contains(sc.Text(), `"error"`) {
			t.Fatalf("stream ended in error: %s", sc.Text())
		}
		rows++
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if rows != 3 {
		t.Fatalf("in-flight stream delivered %d rows, want the 3 pre-ingest sessions", rows)
	}

	after, err := srv.Client().Post(srv.URL+"/v1/query", "application/json",
		strings.NewReader(fmt.Sprintf(`{"kind":"topk","query":%q,"k":10,"bound":0}`, q1)))
	if err != nil {
		t.Fatal(err)
	}
	defer after.Body.Close()
	var vr V1Response
	if err := json.NewDecoder(after.Body).Decode(&vr); err != nil {
		t.Fatal(err)
	}
	if vr.Result == nil || len(vr.Result.Top) != 4 {
		t.Fatalf("post-ingest query: %+v, want 4 topk rows", vr.Result)
	}
}

// ingestSteps is the writer's script of TestConcurrentIngestAndQueries: one
// session per step, cycling through models the relation already holds
// (Ann's and Bob's) and ones it does not, so appended sessions land both in
// existing inference groups and in new ones.
func ingestSteps(n int) []IngestSessionJSON {
	models := []IngestSessionJSON{
		{Sigma: []int{1, 2, 3, 0}, Phi: 0.3}, // Ann's
		{Sigma: []int{0, 1, 2, 3}, Phi: 0.4},
		{Sigma: []int{0, 3, 2, 1}, Phi: 0.3}, // Bob's
		{Sigma: []int{3, 2, 1, 0}, Phi: 0.7},
		{Sigma: []int{0, 1, 2, 3}, Phi: 0.4},
	}
	steps := make([]IngestSessionJSON, n)
	for i := range steps {
		steps[i] = models[i%len(models)]
		steps[i].Key = []string{fmt.Sprintf("W%d", i), fmt.Sprintf("%d/7", i+7)}
	}
	return steps
}

// TestConcurrentIngestAndQueries hammers Append swaps against query opens:
// one writer grows the model a session at a time while 8 readers repeat
// three queries (a Boolean CQ, a count over a union, a bound-1 top-k), so
// the readers race the grounding memo's hand-over and tail extension as
// well as the registry swap. Every read must be bit-identical to the
// answer of a bare engine over some version of the relation, built whole
// (never grown) — the version the read's own session count names. The race
// detector covers the rest.
func TestConcurrentIngestAndQueries(t *testing.T) {
	const steps = 12
	script := ingestSteps(steps)
	reqs := []*ppd.Request{
		{Kind: ppd.KindBool, Query: q1},
		{Kind: ppd.KindCount, Query: q1 + " | " + q2},
		{Kind: ppd.KindTopK, Query: q2, K: 100, BoundEdges: 1},
	}
	ctx := context.Background()

	// answer flattens the sections of a response a version determines.
	answer := func(resp *ppd.Response) string {
		var b strings.Builder
		fmt.Fprintf(&b, "%x %x", math.Float64bits(resp.Prob), math.Float64bits(resp.Count))
		for _, sp := range append(resp.PerSession, resp.Top...) {
			fmt.Fprintf(&b, " %v=%x", sp.Session.Key, math.Float64bits(sp.Prob))
		}
		return b.String()
	}
	// want[n][qi] is the reference answer of request qi on the version of
	// the relation with n sessions. Every session is live for every one of
	// the requests, so a response names its version by its row count.
	sessions := func(resp *ppd.Response) int { return len(resp.PerSession) + len(resp.Top) }
	want := make(map[int][]string)
	for v := 0; v <= steps; v++ {
		db, err := dataset.Figure1()
		if err != nil {
			t.Fatal(err)
		}
		if v > 0 {
			parsed, err := ppd.ParseSessionsJSON(script[:v])
			if err != nil {
				t.Fatal(err)
			}
			if db, err = db.AppendSessions("P", parsed); err != nil {
				t.Fatal(err)
			}
		}
		for qi, req := range reqs {
			resp, err := (&ppd.Engine{DB: db}).Do(ctx, req)
			if err != nil {
				t.Fatal(err)
			}
			if n := sessions(resp); n != 3+v {
				t.Fatalf("version %d request %d answers over %d sessions, want every one of %d", v, qi, n, 3+v)
			}
			want[3+v] = append(want[3+v], answer(resp))
		}
	}

	svc := figure1Service(t, Config{Workers: 4})
	var wg sync.WaitGroup
	errCh := make(chan error, 64)
	done := make(chan struct{})
	wg.Add(1)
	go func() {
		defer wg.Done()
		defer close(done)
		for _, sess := range script {
			if _, err := svc.IngestSessions(&IngestRequest{Pref: "P", Sessions: []IngestSessionJSON{sess}}); err != nil {
				errCh <- err
				return
			}
		}
	}()
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			// Keep reading until the writer is done, then twice more on
			// the final version.
			for tail := 2; tail > 0; {
				select {
				case <-done:
					tail--
				default:
				}
				for qi, req := range reqs {
					resp, err := svc.Do(ctx, req)
					if err != nil {
						errCh <- err
						return
					}
					if ref := want[sessions(resp)]; ref == nil || ref[qi] != answer(resp) {
						errCh <- fmt.Errorf("request %d over %d sessions answered\n%s\nwhich no version of the relation gives (want %v)", qi, sessions(resp), answer(resp), ref)
						return
					}
				}
			}
		}()
	}
	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Fatal(err)
	}
	if got := sessionCount(t, svc, ""); got != 3+steps {
		t.Fatalf("final model has %d sessions, want %d", got, 3+steps)
	}
}

// TestIngestHTTPErrors pins the endpoint's status mapping: unknown model
// 404, malformed body and validation failures 400.
func TestIngestHTTPErrors(t *testing.T) {
	svc := figure1Service(t, Config{})
	srv := httptest.NewServer(svc.Handler())
	defer srv.Close()
	cases := []struct {
		name, body string
		status     int
	}{
		{"unknown model", `{"model":"ghost","pref":"P","sessions":[{"key":["E","7/7"],"sigma":[0,1,2,3],"phi":0.4}]}`, 404},
		{"missing pref", `{"sessions":[{"key":["E","7/7"],"sigma":[0,1,2,3],"phi":0.4}]}`, 400},
		{"unknown field", `{"pref":"P","nope":1,"sessions":[]}`, 400},
		{"bad sigma", `{"pref":"P","sessions":[{"key":["E","7/7"],"sigma":[9,9,9,9],"phi":0.4}]}`, 400},
	}
	for _, tc := range cases {
		resp, err := srv.Client().Post(srv.URL+"/v1/sessions", "application/json", strings.NewReader(tc.body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != tc.status {
			t.Errorf("%s: status %d, want %d", tc.name, resp.StatusCode, tc.status)
		}
	}
}
