package server

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"
)

// Admission-control tests: a saturated service must shed query and ingest
// load with 503 + Retry-After while probes and management routes keep
// answering, and the gate must hand slots back exactly once per admitted
// request. The hammer tests run under -race in CI.

// pinStreams occupies n gate slots with NDJSON streams held open mid-row
// and returns a release function plus a WaitGroup that ends when every
// pinned stream has drained to completion.
func pinStreams(t *testing.T, svc *Service, srv *httptest.Server, n int) (release func(), done *sync.WaitGroup) {
	t.Helper()
	rel := make(chan struct{})
	pinned := make(chan struct{}, n)
	svc.streamRowHook = func(ctx context.Context) {
		select {
		case pinned <- struct{}{}:
		default:
		}
		select {
		case <-rel:
		case <-ctx.Done():
		}
	}
	var wg sync.WaitGroup
	body := fmt.Sprintf(`{"kind":"topk","query":%q,"k":10,"stream":true}`, q1)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			resp, err := srv.Client().Post(srv.URL+"/v1/query", "application/json", strings.NewReader(body))
			if err != nil {
				t.Error(err)
				return
			}
			defer resp.Body.Close()
			if resp.StatusCode != 200 {
				t.Errorf("pinned stream: status %d", resp.StatusCode)
			}
			io.Copy(io.Discard, resp.Body)
		}()
	}
	for i := 0; i < n; i++ {
		select {
		case <-pinned:
		case <-time.After(10 * time.Second):
			t.Fatal("streams never pinned")
		}
	}
	var once sync.Once
	return func() { once.Do(func() { close(rel) }) }, &wg
}

// shedAssert checks the full 503 contract on one response: status,
// Retry-After header, and the JSON body echo.
func shedAssert(t *testing.T, resp *http.Response) {
	t.Helper()
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		b, _ := io.ReadAll(resp.Body)
		t.Fatalf("status %d, want 503\n%s", resp.StatusCode, b)
	}
	if got := resp.Header.Get("Retry-After"); got != "1" {
		t.Errorf("Retry-After header %q, want \"1\"", got)
	}
	var body struct {
		Error      string `json:"error"`
		RetryAfter int    `json:"retry_after"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
		t.Fatalf("decoding shed body: %v", err)
	}
	if body.Error == "" || body.RetryAfter != 1 {
		t.Errorf("shed body %+v, want error text and retry_after 1", body)
	}
}

// TestSaturatedServiceSheds pins the single admission slot and requires
// query and ingest to shed with the full 503 contract while /healthz,
// /models and /stats — the probe and drain surface — keep answering.
func TestSaturatedServiceSheds(t *testing.T) {
	svc := figure1Service(t, Config{MaxInFlight: 1, MaxQueue: -1, Workers: 2})
	srv := httptest.NewServer(svc.Handler())
	defer srv.Close()
	release, done := pinStreams(t, svc, srv, 1)
	defer release()

	queryBody := fmt.Sprintf(`{"kind":"bool","query":%q}`, q1)
	resp, err := srv.Client().Post(srv.URL+"/v1/query", "application/json", strings.NewReader(queryBody))
	if err != nil {
		t.Fatal(err)
	}
	shedAssert(t, resp)
	ing, err := srv.Client().Post(srv.URL+"/v1/sessions", "application/json",
		strings.NewReader(`{"pref":"P","sessions":[{"key":["Eve","7/7"],"sigma":[0,1,2,3],"phi":0.4}]}`))
	if err != nil {
		t.Fatal(err)
	}
	shedAssert(t, ing)

	// The ungated surface must stay reachable on a saturated process.
	for _, path := range []string{"/healthz", "/models", "/stats"} {
		r, err := srv.Client().Get(srv.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		r.Body.Close()
		if r.StatusCode != 200 {
			t.Errorf("GET %s while saturated: status %d, want 200", path, r.StatusCode)
		}
	}
	st := svc.Stats()
	if st.Sheds != 2 {
		t.Errorf("Stats.Sheds = %d, want 2", st.Sheds)
	}
	if st.InFlight != 1 {
		t.Errorf("Stats.InFlight = %d, want 1", st.InFlight)
	}

	release()
	done.Wait()
	// Slot handed back: the same request now passes.
	after, err := srv.Client().Post(srv.URL+"/v1/query", "application/json", strings.NewReader(queryBody))
	if err != nil {
		t.Fatal(err)
	}
	after.Body.Close()
	if after.StatusCode != 200 {
		t.Errorf("query after release: status %d, want 200", after.StatusCode)
	}
	if got := svc.Stats().InFlight; got != 0 {
		t.Errorf("InFlight after drain = %d, want 0", got)
	}
}

// TestAdmissionQueueWaits: a request that finds the slot busy but the
// queue empty waits and is served after the slot frees; a second waiter
// overflows the depth-1 queue and sheds immediately.
func TestAdmissionQueueWaits(t *testing.T) {
	svc := figure1Service(t, Config{MaxInFlight: 1, MaxQueue: 1, Workers: 2})
	srv := httptest.NewServer(svc.Handler())
	defer srv.Close()
	release, done := pinStreams(t, svc, srv, 1)
	defer release()

	queryBody := fmt.Sprintf(`{"kind":"bool","query":%q}`, q1)
	queuedResult := make(chan int, 1)
	go func() {
		resp, err := srv.Client().Post(srv.URL+"/v1/query", "application/json", strings.NewReader(queryBody))
		if err != nil {
			queuedResult <- -1
			return
		}
		resp.Body.Close()
		queuedResult <- resp.StatusCode
	}()
	deadline := time.Now().Add(10 * time.Second)
	for svc.Stats().Queued != 1 {
		if time.Now().After(deadline) {
			t.Fatal("request never queued")
		}
		time.Sleep(time.Millisecond)
	}
	over, err := srv.Client().Post(srv.URL+"/v1/query", "application/json", strings.NewReader(queryBody))
	if err != nil {
		t.Fatal(err)
	}
	shedAssert(t, over)

	release()
	done.Wait()
	if code := <-queuedResult; code != 200 {
		t.Fatalf("queued request finished with status %d, want 200", code)
	}
}

// TestShedHammer fills every slot, fires a burst of concurrent requests,
// and requires each one to shed with the full contract — no request may
// hang, panic, or leak a slot. The -race run doubles as the data-race
// check on the gate counters.
func TestShedHammer(t *testing.T) {
	const slots, burst = 2, 24
	svc := figure1Service(t, Config{MaxInFlight: slots, MaxQueue: -1, Workers: 2})
	srv := httptest.NewServer(svc.Handler())
	defer srv.Close()
	release, done := pinStreams(t, svc, srv, slots)
	defer release()

	queryBody := fmt.Sprintf(`{"kind":"bool","query":%q}`, q1)
	var wg sync.WaitGroup
	for i := 0; i < burst; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			resp, err := srv.Client().Post(srv.URL+"/v1/query", "application/json", strings.NewReader(queryBody))
			if err != nil {
				t.Error(err)
				return
			}
			shedAssert(t, resp)
		}()
	}
	wg.Wait()
	if got := svc.Stats().Sheds; got != burst {
		t.Errorf("Stats.Sheds = %d, want %d", got, burst)
	}
	release()
	done.Wait()
	if got := svc.Stats().InFlight; got != 0 {
		t.Errorf("InFlight after hammer = %d, want 0 (slot leak)", got)
	}
}

// TestAdmissionDisabled: a negative MaxInFlight turns the gate off
// entirely — the handler chain is the bare handler.
func TestAdmissionDisabled(t *testing.T) {
	svc := figure1Service(t, Config{MaxInFlight: -1})
	if svc.gate != nil {
		t.Fatal("MaxInFlight < 0 still built a gate")
	}
}

// TestGateContextCancelWhileQueued: a caller that gives up while waiting
// in the queue counts as a shed and never occupies a slot.
func TestGateContextCancelWhileQueued(t *testing.T) {
	g := newGate(1, 1)
	if !g.admit(context.Background()) {
		t.Fatal("empty gate refused")
	}
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(10 * time.Millisecond)
		cancel()
	}()
	if g.admit(ctx) {
		t.Fatal("admit succeeded after context cancel")
	}
	if g.sheds.Load() != 1 {
		t.Fatalf("sheds = %d, want 1", g.sheds.Load())
	}
	g.release()
	if g.inFlight() != 0 {
		t.Fatalf("inFlight = %d, want 0", g.inFlight())
	}
}
