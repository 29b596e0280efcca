package server

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"testing"
	"time"

	"probpref/internal/dataset"
	"probpref/internal/ppd"
	"probpref/internal/solver"
)

// Cancellation tests for the end-to-end context plumbing: a cancelled batch
// must stop burning CPU (the worker pool drains, no goroutines leak) and
// surface the context error, never a panic or a fabricated result. Run
// under -race (CI does).

// pollsService builds a service over a polls database large enough that a
// batch has many distinct inference groups to fan out.
func pollsService(t testing.TB, cfg Config) *Service {
	t.Helper()
	db, err := dataset.Polls(dataset.PollsConfig{Candidates: 12, Voters: 60, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	return New(db, cfg)
}

// pollsBatch returns distinct queries so cross-query dedup leaves many
// groups pending.
func pollsBatch(n int) []string {
	qs := make([]string, n)
	parties := []string{"D", "R"}
	sexes := []string{"M", "F"}
	for i := range qs {
		qs[i] = fmt.Sprintf(`P(_, _; l; r), C(l, %s, %s, _, _, _), C(r, %s, %s, _, _, _)`,
			parties[i%2], sexes[(i/2)%2], parties[(i+1)%2], sexes[(i/2+1)%2])
	}
	return qs
}

// waitGoroutines polls until the goroutine count drops back to at most
// base+slack, failing after the deadline. The slack absorbs runtime
// housekeeping goroutines.
func waitGoroutines(t *testing.T, base int, what string) {
	t.Helper()
	const slack = 3
	deadline := time.Now().Add(5 * time.Second)
	for {
		n := runtime.NumGoroutine()
		if n <= base+slack {
			return
		}
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<16)
			buf = buf[:runtime.Stack(buf, true)]
			t.Fatalf("%s: %d goroutines still running (baseline %d):\n%s", what, n, base, buf)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestGroupedBatchCancelStopsWithoutLeaks cancels mid-DoBatch and asserts
// the pool drains without goroutine leaks and the error is the context
// error.
func TestGroupedBatchCancelStopsWithoutLeaks(t *testing.T) {
	svc := pollsService(t, Config{Workers: 4, CacheSize: -1})
	base := runtime.NumGoroutine()

	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() {
		_, err := boolBatch(ctx, svc, "", pollsBatch(16))
		done <- err
	}()
	time.Sleep(5 * time.Millisecond) // let the fan-out start
	cancel()

	select {
	case err := <-done:
		if err == nil {
			t.Log("batch finished before the cancel landed; no cancellation to assert")
		} else if !errors.Is(err, context.Canceled) {
			t.Fatalf("want context.Canceled in error chain, got %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("cancelled batch did not return within 10s")
	}
	waitGoroutines(t, base, "after cancelled bool batch")
}

// TestGroupedBatchPreCancelledReturnsContextError asserts a batch under an
// already-cancelled context returns the context error immediately, not a
// partial result or a panic.
func TestGroupedBatchPreCancelledReturnsContextError(t *testing.T) {
	svc := pollsService(t, Config{Workers: 4, CacheSize: -1})
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	br, err := boolBatch(ctx, svc, "", pollsBatch(4))
	if br != nil {
		t.Fatalf("want nil result from pre-cancelled batch, got %+v", br)
	}
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("want context.Canceled, got %v", err)
	}
	// The error must map to an evaluation failure (500), not a parse error.
	var ee *evalError
	if !errors.As(err, &ee) {
		t.Fatalf("want evalError wrapper, got %T: %v", err, err)
	}
}

// TestFanOutBatchCancelStopsWithoutLeaks does the same for the top-k fan-out.
func TestFanOutBatchCancelStopsWithoutLeaks(t *testing.T) {
	svc := pollsService(t, Config{Workers: 4, CacheSize: -1})
	base := runtime.NumGoroutine()

	reqs := make([]*ppd.Request, 8)
	for i, q := range pollsBatch(8) {
		reqs[i] = &ppd.Request{Kind: ppd.KindTopK, Query: q, K: 3, BoundEdges: 1}
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() {
		_, err := svc.DoBatch(ctx, reqs)
		done <- err
	}()
	time.Sleep(5 * time.Millisecond)
	cancel()

	select {
	case err := <-done:
		if err != nil && !errors.Is(err, context.Canceled) {
			t.Fatalf("want context.Canceled in error chain, got %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("cancelled top-k batch did not return within 10s")
	}
	waitGoroutines(t, base, "after cancelled topk batch")
}

// TestGroupedBatchExpiredDeadlineAdaptiveSamples asserts that with the
// adaptive method an (effectively expired) deadline yields sampled answers
// with non-zero reported half-widths instead of an error — the planner's
// degrade-gracefully contract — while the exact methods abort.
func TestGroupedBatchExpiredDeadlineAdaptiveSamples(t *testing.T) {
	svc := pollsService(t, Config{Method: ppd.MethodAdaptive, Workers: 2, CacheSize: -1})
	ctx, cancel := context.WithTimeout(context.Background(), time.Nanosecond)
	defer cancel()
	time.Sleep(time.Millisecond) // ensure the deadline has passed
	br, err := boolBatch(ctx, svc, "", pollsBatch(2))
	if err != nil {
		t.Fatalf("adaptive batch under expired deadline: %v", err)
	}
	for qi, res := range br.Responses {
		if res.Plan == nil {
			t.Fatalf("query %d: no plan attached", qi)
		}
		if res.Plan.SampledGroups == 0 && res.Solves > 0 {
			t.Fatalf("query %d: expired budget but %d groups solved exactly", qi, res.Plan.ExactGroups)
		}
		if res.Solves > 0 && res.Plan.MaxHalfWidth <= 0 {
			t.Fatalf("query %d: sampled answers carry no half-width: %+v", qi, res.Plan)
		}
	}
}

// TestGroupedBatchSharedGroupInEveryPlan: a group shared by several queries
// must appear in every referencing query's plan — the batch Solves
// accounting attributes a shared group to its first query, but each query's
// plan has to stay consistent with its own half-widths.
func TestGroupedBatchSharedGroupInEveryPlan(t *testing.T) {
	svc := pollsService(t, Config{Method: ppd.MethodAdaptive, Workers: 2, CacheSize: -1})
	ctx, cancel := context.WithTimeout(context.Background(), time.Nanosecond)
	defer cancel()
	time.Sleep(time.Millisecond)
	q := pollsBatch(1)[0]
	br, err := boolBatch(ctx, svc, "", []string{q, q})
	if err != nil {
		t.Fatal(err)
	}
	first, second := br.Responses[0], br.Responses[1]
	if first.Solves == 0 || second.Solves != 0 {
		t.Fatalf("cost attribution changed: solves %d/%d", first.Solves, second.Solves)
	}
	for qi, res := range br.Responses {
		if res.Plan == nil || res.Plan.SampledGroups == 0 {
			t.Fatalf("query %d: plan missing sampled groups: %+v", qi, res.Plan)
		}
		if res.Plan.CountHalfWidth <= 0 {
			t.Fatalf("query %d: no propagated half-width: %+v", qi, res.Plan)
		}
	}
	if first.Plan.SampledGroups != second.Plan.SampledGroups ||
		first.Plan.MaxHalfWidth != second.Plan.MaxHalfWidth {
		t.Fatalf("identical queries report different plans: %+v vs %+v", first.Plan, second.Plan)
	}
}

// TestV1StreamCancelStopsEmitting cancels a /v1/query NDJSON stream after
// the first row and asserts the stream terminates early — the client
// observes its context error instead of the remaining rows — and that the
// server handler goroutine winds down without leaks. Run under -race (CI
// does).
func TestV1StreamCancelStopsEmitting(t *testing.T) {
	svc := pollsService(t, Config{Workers: 2, CacheSize: -1})
	// The hook holds the stream after each emitted row until the handler's
	// own context reports the cancellation, so the cut-off is deterministic:
	// exactly one row escapes, however fast the sockets drain.
	svc.streamRowHook = func(ctx context.Context) { <-ctx.Done() }
	srv := httptest.NewServer(svc.Handler())
	defer srv.Close()
	base := runtime.NumGoroutine()

	// Ask for every session of the polls fixture so the stream has many
	// rows to cut short.
	body := `{"kind":"topk","query":"P(_, _; l; r), C(l, D, M, _, _, _), C(r, R, F, _, _, _)","k":60,"bound":0,"stream":true}`
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, srv.URL+"/v1/query", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := srv.Client().Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	sc := bufio.NewScanner(resp.Body)
	if !sc.Scan() {
		t.Fatal("missing summary line")
	}
	if !sc.Scan() {
		t.Fatal("missing first row")
	}
	rows := 1
	cancel()
	for sc.Scan() {
		if strings.Contains(sc.Text(), `"error"`) {
			break // the stream's terminal error line, not a data row
		}
		rows++
	}
	// The client either observes its own cancellation or the server's
	// terminal error line, depending on which side noticed first; in both
	// cases the data rows stop immediately.
	if err := sc.Err(); err != nil && !errors.Is(err, context.Canceled) {
		t.Fatalf("unexpected stream error: %v", err)
	}
	if rows != 1 {
		t.Fatalf("cancelled stream delivered %d data rows, want exactly 1", rows)
	}
	waitGoroutines(t, base, "after cancelled /v1/query stream")
}

// TestV1StreamDeadlineMidStream: a timeout_ms deadline that expires
// between rows ends the stream with an {"error": ...} line rather than
// hanging or panicking. The hook holds the stream after the first row
// until the request deadline has provably fired, so the expiry lands
// mid-stream deterministically.
func TestV1StreamDeadlineMidStream(t *testing.T) {
	// The tiny figure1 fixture keeps the pre-stream evaluation in the
	// microsecond range, so the 1s budget cannot plausibly expire before
	// the first row even on a loaded -race runner; the hook then parks the
	// stream after row one until the deadline fires.
	svc := figure1Service(t, Config{Workers: 2, CacheSize: -1})
	svc.streamRowHook = func(ctx context.Context) { <-ctx.Done() }
	srv := httptest.NewServer(svc.Handler())
	defer srv.Close()

	body := `{"kind":"topk","query":"P(_, _; c1; c2), C(c1, _, F, _, _, _), C(c2, _, M, _, _, _)","k":3,"bound":1,"timeout_ms":1000,"stream":true}`
	resp, err := srv.Client().Post(srv.URL+"/v1/query", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	sc := bufio.NewScanner(resp.Body)
	rows, errLines := 0, 0
	var last string
	for sc.Scan() {
		last = sc.Text()
		if strings.Contains(last, `"error"`) {
			errLines++
		} else {
			rows++
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if rows != 2 { // summary + exactly one data row before the deadline
		t.Fatalf("got %d non-error lines, want 2", rows)
	}
	if errLines != 1 || !strings.Contains(last, "deadline") {
		t.Fatalf("want a terminal deadline error line, got %q (%d error lines)", last, errLines)
	}
}

// TestV1StreamCompletesWithoutDeadline pins the happy path: with no hook
// and a generous timeout, every row arrives and no error line is emitted.
func TestV1StreamCompletesWithoutDeadline(t *testing.T) {
	svc := pollsService(t, Config{Workers: 2, CacheSize: -1})
	srv := httptest.NewServer(svc.Handler())
	defer srv.Close()
	body := `{"kind":"topk","query":"P(_, _; l; r), C(l, D, M, _, _, _), C(r, R, F, _, _, _)","k":5,"bound":1,"timeout_ms":60000,"stream":true}`
	resp, err := srv.Client().Post(srv.URL+"/v1/query", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	sc := bufio.NewScanner(resp.Body)
	lines := 0
	for sc.Scan() {
		if strings.Contains(sc.Text(), `"error"`) {
			t.Fatalf("unexpected error line: %s", sc.Text())
		}
		lines++
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if lines != 6 { // summary + 5 rows
		t.Fatalf("got %d lines, want 6", lines)
	}
}

// TestHTTPEvalTimeoutAdaptive drives the degrade path through the HTTP
// front end: timeout_ms with the adaptive method returns 200 with a plan
// reporting sampled groups. The route is decided by price, not by how fast
// the box solves: every group of the query is priced far above what the
// whole 1 ms budget buys, so none is attempted exactly.
func TestHTTPEvalTimeoutAdaptive(t *testing.T) {
	svc := pollsService(t, Config{Method: ppd.MethodAdaptive, Workers: 2, CacheSize: -1})
	const query = `P(_, _; a; b), P(_, _; b; c), C(a, D, _, _, _, _), C(b, R, _, _, _, _), C(c, D, _, _, _, _)`
	db := svc.DB()
	gr, err := db.Ground(context.Background(), ppd.MustParseUnion(query))
	if err != nil {
		t.Fatal(err)
	}
	budget := time.Millisecond.Seconds() * ppd.AdaptiveStatesPerSecond
	for _, g := range gr.Groups {
		if est := ppd.EstimateCost(g.Model, db.Labeling(), g.Union, solver.Options{}.MaxInvolvedLimit()); est.States <= budget {
			t.Fatalf("a group is priced %.3g transitions, within the 1 ms budget %.3g: pick a dearer query", est.States, budget)
		}
	}
	srv := httptest.NewServer(svc.Handler())
	defer srv.Close()
	var resp V1Response
	body := `{"kind":"bool","timeout_ms":1,"query":` + jsonStr(query) + `}`
	if code := post(t, srv, "/v1/query", body, &resp); code != 200 {
		t.Fatalf("status %d", code)
	}
	if resp.Result == nil || resp.Result.Plan == nil {
		t.Fatalf("response missing plan: %+v", resp)
	}
	plan := resp.Result.Plan
	if plan.SampledGroups == 0 || plan.MaxHalfWidth <= 0 {
		t.Fatalf("1ms budget should sample with error bars, got %+v", plan)
	}
}
