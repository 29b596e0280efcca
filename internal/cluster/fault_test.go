package cluster

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"probpref/internal/server"
)

// Fault-injection suite: shards die mid-fan-out, respond slowly enough to
// trigger hedges, or reject partitions outright, and the coordinator must
// retry onto replicas, mark degraded answers, exclude unhealthy members and
// recover them — all without leaking goroutines. Run under -race (CI does).

func boolBody() string {
	return fmt.Sprintf(`{"kind":"bool","query":%q}`, demoQuery)
}

// waitGoroutines waits for the goroutine count to drop back to the baseline
// (plus scheduler slack), dumping stacks on timeout.
func waitGoroutines(t *testing.T, base int, what string) {
	t.Helper()
	const slack = 3
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if runtime.NumGoroutine() <= base+slack {
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	buf := make([]byte, 1<<20)
	n := runtime.Stack(buf, true)
	t.Fatalf("%s leaked goroutines: %d now vs %d baseline\n%s",
		what, runtime.NumGoroutine(), base, buf[:n])
}

// TestClusterOwnerFailureRetriesReplica kills one partition's owner: the
// coordinator must retry the replica immediately and still answer
// byte-identically to the single process.
func TestClusterOwnerFailureRetriesReplica(t *testing.T) {
	db := testDB(t, 6)
	h := newHarness(t, db, 3, 3, Config{CacheSize: -1})
	owner, replica := h.shardURLsFor(0)
	if replica == "" {
		t.Fatal("partition 0 has no replica")
	}
	h.ft.set(owner, fault{err: errors.New("injected: owner down")})
	h.checkEqual(boolBody())
	if stats := h.coord.Stats(); stats.Retries == 0 {
		t.Fatalf("retries = 0, want > 0 after owner failure: %+v", stats)
	}
	if stats := h.coord.Stats(); stats.Degraded != 0 {
		t.Fatalf("degraded = %d, want 0: the replica served every partition", stats.Degraded)
	}
}

// TestClusterSlowOwnerHedgesToReplica slows one shard past the hedge
// trigger: the replica's duplicate attempt must win and the answer stay
// byte-identical.
func TestClusterSlowOwnerHedgesToReplica(t *testing.T) {
	db := testDB(t, 6)
	h := newHarness(t, db, 3, 3, Config{CacheSize: -1, HedgeAfter: time.Millisecond})
	owner, replica := h.shardURLsFor(0)
	if replica == "" {
		t.Fatal("partition 0 has no replica")
	}
	h.ft.set(owner, fault{delay: 400 * time.Millisecond})
	h.checkEqual(boolBody())
	stats := h.coord.Stats()
	if stats.Hedges == 0 || stats.HedgeWins == 0 {
		t.Fatalf("hedges = %d, hedge wins = %d, want both > 0 with a slow owner: %+v",
			stats.Hedges, stats.HedgeWins, stats)
	}
}

// killPartition installs a fault on both copies of one partition of the
// default model and returns the partition's shard model name.
func (h *harness) killPartition(partition int) string {
	h.t.Helper()
	model := PartitionModel(server.DefaultModel, partition)
	owner, replica := h.shardURLsFor(partition)
	h.ft.set(owner, fault{status: http.StatusInternalServerError, bodySubstr: model})
	if replica != "" {
		h.ft.set(replica, fault{status: http.StatusInternalServerError, bodySubstr: model})
	}
	return model
}

// TestClusterDegradedPartialFailure kills one partition on owner and
// replica: the merged answer must arrive with a cluster partial-failure
// marker, count toward the degraded stat, and never be cached — a healthy
// re-query gets the full answer again.
func TestClusterDegradedPartialFailure(t *testing.T) {
	db := testDB(t, 6)
	h := newHarness(t, db, 3, 3, Config{})
	h.killPartition(1)

	status, body := post(t, h.coordSrv.URL, boolBody())
	if status != http.StatusOK {
		t.Fatalf("degraded query status = %d, want 200\n%s", status, body)
	}
	var resp struct {
		Result *ResultJSON `json:"result"`
	}
	if err := json.Unmarshal(body, &resp); err != nil {
		t.Fatal(err)
	}
	if resp.Result == nil || resp.Result.Cluster == nil {
		t.Fatalf("degraded answer carries no cluster marker:\n%s", body)
	}
	diag := resp.Result.Cluster
	if !diag.Partial || len(diag.FailedPartitions) != 1 || diag.FailedPartitions[0] != 1 {
		t.Fatalf("cluster diag = %+v, want partial with failed partition 1", diag)
	}
	if len(diag.Errors) != 1 || !strings.Contains(diag.Errors[0], "injected") {
		t.Fatalf("cluster diag errors = %v, want the injected fault surfaced", diag.Errors)
	}
	if stats := h.coord.Stats(); stats.Degraded == 0 {
		t.Fatalf("degraded stat = 0 after a partial answer: %+v", stats)
	}

	// Heal the cluster: the same request must now produce a full answer over
	// every session — i.e. the degraded one was not cached. (Byte equality
	// with the single process is not checked here because the surviving
	// shards' solve caches are warm from the degraded round.)
	for _, srv := range h.shardSrvs {
		h.ft.set(srv.URL, fault{})
	}
	status, body = post(t, h.coordSrv.URL, boolBody())
	if status != http.StatusOK {
		t.Fatalf("healed query status = %d\n%s", status, body)
	}
	var healed struct {
		Result *ResultJSON `json:"result"`
	}
	if err := json.Unmarshal(body, &healed); err != nil {
		t.Fatal(err)
	}
	if healed.Result == nil || healed.Result.Cluster != nil {
		t.Fatalf("healed answer still degraded — was the degraded result cached?\n%s", body)
	}
	if healed.Result.LiveSessions != 6 {
		t.Fatalf("healed answer covers %d sessions, want 6\n%s", healed.Result.LiveSessions, body)
	}
}

// TestClusterAllPartitionsFail502 kills every shard: the coordinator must
// answer 502 naming the failure, not an empty merge.
func TestClusterAllPartitionsFail502(t *testing.T) {
	db := testDB(t, 4)
	h := newHarness(t, db, 2, 2, Config{})
	for _, srv := range h.shardSrvs {
		h.ft.set(srv.URL, fault{err: errors.New("injected: down")})
	}
	status, body := post(t, h.coordSrv.URL, boolBody())
	if status != http.StatusBadGateway {
		t.Fatalf("status = %d, want 502\n%s", status, body)
	}
	if !strings.Contains(string(body), "partitions failed") {
		t.Fatalf("502 body does not name the fan-out failure: %s", body)
	}
}

// TestClusterSingleShardFailure502 covers the no-replica ring: one shard,
// one failure, no hedge path — the client sees 502.
func TestClusterSingleShardFailure502(t *testing.T) {
	db := testDB(t, 3)
	h := newHarness(t, db, 1, 2, Config{})
	h.ft.set(h.shardSrvs[0].URL, fault{err: errors.New("injected: down")})
	status, body := post(t, h.coordSrv.URL, boolBody())
	if status != http.StatusBadGateway {
		t.Fatalf("status = %d, want 502\n%s", status, body)
	}
}

// TestClusterMidBatchShardFailure kills one partition during a batch: every
// batch result must carry the shared partial-failure marker while the
// healthy partitions' contributions survive.
func TestClusterMidBatchShardFailure(t *testing.T) {
	db := testDB(t, 6)
	h := newHarness(t, db, 3, 3, Config{})
	h.killPartition(2)
	body := fmt.Sprintf(`{"requests":[{"kind":"bool","query":%q},{"kind":"topk","query":%q,"k":2}]}`,
		demoQuery, demoQuery)
	status, raw := post(t, h.coordSrv.URL, body)
	if status != http.StatusOK {
		t.Fatalf("batch status = %d, want 200 degraded\n%s", status, raw)
	}
	var resp struct {
		Results []ResultJSON      `json:"results"`
		Batch   *server.BatchJSON `json:"batch"`
	}
	if err := json.Unmarshal(raw, &resp); err != nil {
		t.Fatal(err)
	}
	if len(resp.Results) != 2 {
		t.Fatalf("results = %d, want 2\n%s", len(resp.Results), raw)
	}
	for i, res := range resp.Results {
		if res.Cluster == nil || !res.Cluster.Partial {
			t.Fatalf("batch result %d missing the partial-failure marker\n%s", i, raw)
		}
	}
	if resp.Batch == nil {
		t.Fatalf("degraded batch dropped the batch accounting\n%s", raw)
	}
}

// TestClusterMidStreamShardFailure kills one partition under a streaming
// request: the NDJSON head must carry the partial-failure marker and the
// rows cover exactly the surviving sessions.
func TestClusterMidStreamShardFailure(t *testing.T) {
	db := testDB(t, 6)
	h := newHarness(t, db, 3, 3, Config{})
	h.killPartition(1)
	body := fmt.Sprintf(`{"kind":"bool","query":%q,"stream":true}`, demoQuery)
	resp, err := http.Post(h.coordSrv.URL+"/v1/query", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("stream status = %d, want 200 degraded", resp.StatusCode)
	}
	sc := bufio.NewScanner(resp.Body)
	if !sc.Scan() {
		t.Fatalf("stream has no head line: %v", sc.Err())
	}
	var head ResultJSON
	if err := json.Unmarshal(sc.Bytes(), &head); err != nil {
		t.Fatalf("head line is not JSON: %v\n%s", err, sc.Text())
	}
	if head.Cluster == nil || !head.Cluster.Partial {
		t.Fatalf("degraded stream head missing the cluster marker: %s", sc.Text())
	}
	rows := 0
	for sc.Scan() {
		if strings.Contains(sc.Text(), `"error"`) {
			t.Fatalf("stream row carries an error: %s", sc.Text())
		}
		rows++
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	// 6 sessions over 3 partitions = 2 per partition; one partition lost.
	if rows != 4 {
		t.Fatalf("stream rows = %d, want 4 surviving sessions", rows)
	}
}

// TestClusterProbeExclusionRecovery drives the health prober directly: a
// failing shard is excluded after FailAfter consecutive probe failures and
// re-admitted on its first healthy probe.
func TestClusterProbeExclusionRecovery(t *testing.T) {
	db := testDB(t, 4)
	h := newHarness(t, db, 2, 2, Config{FailAfter: 2})
	bad := h.shardSrvs[1].URL
	h.ft.set(bad, fault{err: errors.New("injected: unreachable")})

	ctx := t.Context()
	h.coord.ProbeNow(ctx)
	h.coord.ProbeNow(ctx)
	stats := h.coord.Stats()
	var row *ShardStatsJSON
	for i := range stats.Shards {
		if stats.Shards[i].URL == bad {
			row = &stats.Shards[i]
		}
	}
	if row == nil || !row.Excluded || row.ConsecutiveFails < 2 {
		t.Fatalf("shard not excluded after 2 failed probes: %+v", stats.Shards)
	}

	h.ft.set(bad, fault{})
	h.coord.ProbeNow(ctx)
	stats = h.coord.Stats()
	for _, s := range stats.Shards {
		if s.URL == bad && s.Excluded {
			t.Fatalf("shard still excluded after a healthy probe: %+v", s)
		}
	}
	// With the shard healthy again, queries are byte-identical end to end.
	h.checkEqual(boolBody())
}

// TestClusterProbesLeaveHedgeTrigger: health probes clear failure streaks
// but record no latency sample, so an idle coordinator probed for longer
// than the latency window warms up keeps the configured hedge trigger
// rather than flooring it at a /healthz round trip.
func TestClusterProbesLeaveHedgeTrigger(t *testing.T) {
	db := testDB(t, 4)
	h := newHarness(t, db, 2, 2, Config{HedgeAfter: DefaultHedgeAfter})
	for range 2 * latWarm {
		h.coord.ProbeNow(t.Context())
	}
	for _, s := range h.coord.Stats().Shards {
		if s.HedgeDelayMicros != DefaultHedgeAfter.Microseconds() {
			t.Fatalf("shard %s: hedge delay %d µs after probes only, want the %v default", s.Name, s.HedgeDelayMicros, DefaultHedgeAfter)
		}
	}
}

// TestClusterExcludedOwnerRoutesToReplica excludes one shard via probes and
// checks queries route around it (replica promoted to primary) without
// degradation.
func TestClusterExcludedOwnerRoutesToReplica(t *testing.T) {
	db := testDB(t, 6)
	h := newHarness(t, db, 3, 3, Config{FailAfter: 1, CacheSize: -1})
	owner, replica := h.shardURLsFor(0)
	if replica == "" {
		t.Fatal("partition 0 has no replica")
	}
	h.ft.set(owner, fault{err: errors.New("injected: unreachable")})
	h.coord.ProbeNow(t.Context())
	h.checkEqual(boolBody())
	if stats := h.coord.Stats(); stats.Degraded != 0 {
		t.Fatalf("degraded = %d, want 0 when routing around an excluded owner", stats.Degraded)
	}
}

// TestClusterNoGoroutineLeaks runs hedged, retried and failed queries and
// checks the coordinator's goroutine count settles back to baseline —
// cancelled attempts and timed-out hedges must not linger.
func TestClusterNoGoroutineLeaks(t *testing.T) {
	db := testDB(t, 6)
	h := newHarness(t, db, 3, 3, Config{CacheSize: -1, HedgeAfter: time.Millisecond})
	for i := 0; i < 2; i++ {
		post(t, h.coordSrv.URL, boolBody()) // warm paths and pools
	}
	base := runtime.NumGoroutine()

	h.ft.set(h.shardSrvs[0].URL, fault{delay: 30 * time.Millisecond})
	for i := 0; i < 3; i++ {
		post(t, h.coordSrv.URL, boolBody())
	}
	h.ft.set(h.shardSrvs[0].URL, fault{err: errors.New("injected: down")})
	for i := 0; i < 3; i++ {
		post(t, h.coordSrv.URL, boolBody())
	}
	h.ft.set(h.shardSrvs[0].URL, fault{})
	waitGoroutines(t, base, "hedged and failed fan-outs")
}

// TestClusterDeletePurgesResultCache is the regression test for the stale
// solve-cache bug: deleting a model through the coordinator must purge the
// coordinator's merged-result cache and fan the delete out to every shard,
// so no later query can serve the deleted model from any cache tier.
func TestClusterDeletePurgesResultCache(t *testing.T) {
	db := testDB(t, 6)
	h := newHarness(t, db, 3, 3, Config{})
	body := boolBody()

	if status, _ := post(t, h.coordSrv.URL, body); status != http.StatusOK {
		t.Fatalf("priming query failed with %d", status)
	}
	if stats := h.coord.Stats(); stats.Cache.Size == 0 {
		t.Fatalf("priming query was not cached: %+v", stats.Cache)
	}

	req, err := http.NewRequest(http.MethodDelete, h.coordSrv.URL+"/models/"+server.DefaultModel, nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("DELETE status = %d, want 200", resp.StatusCode)
	}

	// The cached merged result must be gone: the same query now fails with
	// 404 from the shards instead of serving stale bytes from the cache.
	status, raw := post(t, h.coordSrv.URL, body)
	if status != http.StatusNotFound {
		t.Fatalf("query after delete = %d, want 404 (stale cache served?)\n%s", status, raw)
	}
	if stats := h.coord.Stats(); stats.Cache.Size != 0 {
		t.Fatalf("result cache still holds %d entries for the deleted model", stats.Cache.Size)
	}

	// The shards no longer list any partition of the model.
	mresp, err := http.Get(h.coordSrv.URL + "/models")
	if err != nil {
		t.Fatal(err)
	}
	defer mresp.Body.Close()
	var mr server.ModelsResponse
	if err := json.NewDecoder(mresp.Body).Decode(&mr); err != nil {
		t.Fatal(err)
	}
	for _, m := range mr.Models {
		if m.Name == server.DefaultModel {
			t.Fatalf("deleted model still listed: %+v", mr.Models)
		}
	}
}

// TestClusterDeleteUnknownModel404 checks the delete fan-out propagates a
// miss on every shard as one 404.
func TestClusterDeleteUnknownModel404(t *testing.T) {
	db := testDB(t, 4)
	h := newHarness(t, db, 2, 2, Config{})
	req, err := http.NewRequest(http.MethodDelete, h.coordSrv.URL+"/models/nope", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("DELETE unknown model = %d, want 404", resp.StatusCode)
	}
}

// TestClusterShardMembership exercises POST /cluster/shards and
// DELETE /cluster/shards/{name}: adds are rejected on duplicate names,
// removal of the last member is refused.
func TestClusterShardMembership(t *testing.T) {
	db := testDB(t, 4)
	h := newHarness(t, db, 2, 2, Config{})

	status := postJSON(t, h.coordSrv.URL+"/cluster/shards", `{"name":"s0","url":"http://x"}`)
	if status != http.StatusConflict && status != http.StatusBadRequest {
		t.Fatalf("duplicate shard add = %d, want a client error", status)
	}

	for _, name := range []string{"s0", "s1"} {
		req, err := http.NewRequest(http.MethodDelete, h.coordSrv.URL+"/cluster/shards/"+name, nil)
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if name == "s0" && resp.StatusCode != http.StatusOK {
			t.Fatalf("removing s0 = %d, want 200", resp.StatusCode)
		}
		if name == "s1" && resp.StatusCode == http.StatusOK {
			t.Fatal("removing the last shard must be refused")
		}
	}
}

// TestClusterShedOwnerRetriesReplica injects 503 (an admission-gate shed,
// the overload signal of internal/server) on one partition's owner: the
// coordinator must treat it as retriable and answer from the replica
// byte-identically — and, unlike a real fault, the shed must count in the
// sheds stat without dirtying the owner's health. A transient overload
// burst must never eject a live shard from the ring.
func TestClusterShedOwnerRetriesReplica(t *testing.T) {
	db := testDB(t, 6)
	// FailAfter 1: a single recordFailure would exclude the owner — the
	// sharpest possible check that sheds leave health untouched.
	h := newHarness(t, db, 3, 3, Config{CacheSize: -1, FailAfter: 1})
	owner, replica := h.shardURLsFor(0)
	if replica == "" {
		t.Fatal("partition 0 has no replica")
	}
	h.ft.set(owner, fault{status: http.StatusServiceUnavailable})

	h.checkEqual(boolBody())
	// Repeat traffic straight at the coordinator (checkEqual would warm the
	// single-process cache and skew its solve counters): every round sheds
	// on the owner and lands on the replica.
	for i := 0; i < 2; i++ {
		if status, body := post(t, h.coordSrv.URL, boolBody()); status != http.StatusOK {
			t.Fatalf("query %d during owner sheds: status %d\n%s", i, status, body)
		}
	}
	stats := h.coord.Stats()
	if stats.Sheds == 0 {
		t.Fatalf("sheds = 0 after 503s from the owner: %+v", stats)
	}
	if stats.Retries == 0 {
		t.Fatalf("retries = 0, want replica retries after sheds: %+v", stats)
	}
	if stats.Degraded != 0 {
		t.Fatalf("degraded = %d, want 0: every partition was served", stats.Degraded)
	}
	for _, s := range stats.Shards {
		if s.URL == owner {
			if s.Excluded || s.ConsecutiveFails != 0 {
				t.Fatalf("shed owner's health dirtied (excluded=%v, consecutive_fails=%d): an overload burst must not eject a shard", s.Excluded, s.ConsecutiveFails)
			}
		}
	}

	// Overload over: the owner serves again with clean health.
	h.ft.set(owner, fault{})
	if status, body := post(t, h.coordSrv.URL, boolBody()); status != http.StatusOK {
		t.Fatalf("query after overload cleared: status %d\n%s", status, body)
	}
}

// TestClusterAllCopiesShed502 sheds both copies of a partition: with no
// third copy to try, the client sees the fan-out failure, not a hang or an
// empty merge.
func TestClusterAllCopiesShed502(t *testing.T) {
	db := testDB(t, 4)
	h := newHarness(t, db, 2, 2, Config{})
	for _, srv := range h.shardSrvs {
		h.ft.set(srv.URL, fault{status: http.StatusServiceUnavailable})
	}
	status, body := post(t, h.coordSrv.URL, boolBody())
	if status != http.StatusBadGateway {
		t.Fatalf("status = %d, want 502 when every copy sheds\n%s", status, body)
	}
}

// tapTransport sits on the hop and hands every shard POST's answer to tap,
// which may note it and returns what the coordinator is to see instead.
// host and model, when set, restrict it to one shard URL host and to
// requests naming one partition model.
type tapTransport struct {
	mu          sync.Mutex
	host, model string
	tap         func(path string, status int, body []byte) (int, []byte)
}

func (tt *tapTransport) set(tap func(string, int, []byte) (int, []byte), shardURL, model string) {
	tt.mu.Lock()
	defer tt.mu.Unlock()
	tt.tap, tt.host, tt.model = tap, strings.TrimPrefix(shardURL, "http://"), model
}

func (tt *tapTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	tt.mu.Lock()
	tap, host, model := tt.tap, tt.host, tt.model
	tt.mu.Unlock()
	hit := tap != nil && req.Method == http.MethodPost && (host == "" || host == req.URL.Host)
	if hit && model != "" {
		rc, err := req.GetBody()
		if err != nil {
			return nil, err
		}
		sent, err := io.ReadAll(rc)
		rc.Close()
		if err != nil {
			return nil, err
		}
		hit = bytes.Contains(sent, []byte(model))
	}
	resp, err := http.DefaultTransport.RoundTrip(req)
	if err != nil || !hit {
		return resp, err
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		return nil, err
	}
	resp.StatusCode, body = tap(req.URL.Path, resp.StatusCode, body)
	resp.ContentLength = int64(len(body))
	resp.Body = io.NopCloser(bytes.NewReader(body))
	return resp, nil
}

// frameFaults is what a broken, foreign or outdated shard can put on the
// hop in place of a rows frame.
var frameFaults = []struct {
	name string
	tap  func(path string, status int, body []byte) (int, []byte)
}{
	{"garbage", func(string, int, []byte) (int, []byte) { return http.StatusOK, []byte("<html>it works</html>") }},
	{"json-hop-answer", func(string, int, []byte) (int, []byte) {
		return http.StatusOK, []byte(`{"result":{"kind":"bool","prob":1}}`)
	}},
	{"truncated", func(_ string, status int, body []byte) (int, []byte) { return status, body[:len(body)-3] }},
	{"trailing-byte", func(_ string, status int, body []byte) (int, []byte) { return status, append(body, 0) }},
	// A shard that predates the route: net/http's mux answers its own 404.
	{"route-404", func(string, int, []byte) (int, []byte) { return http.StatusNotFound, []byte("404 page not found\n") }},
}

// TestClusterBadFrameRetriesReplica mangles the owner's answer on the hop:
// an undecodable frame (or a 404 that is not the service's verdict) is a
// shard failure like any other — counted, retried on the replica — and the
// client still reads the single process's bytes.
func TestClusterBadFrameRetriesReplica(t *testing.T) {
	for _, ff := range frameFaults {
		t.Run(ff.name, func(t *testing.T) {
			tt := &tapTransport{}
			h := newHarness(t, testDB(t, 6), 3, 3, Config{CacheSize: -1, Transport: tt})
			owner, replica := h.shardURLsFor(0)
			if replica == "" {
				t.Fatal("partition 0 has no replica")
			}
			tt.set(ff.tap, owner, PartitionModel(server.DefaultModel, 0))
			h.checkEqual(boolBody())
			stats := h.coord.Stats()
			if stats.Retries == 0 || stats.Degraded != 0 {
				t.Fatalf("retries = %d, degraded = %d, want the replica to have served every partition: %+v", stats.Retries, stats.Degraded, stats)
			}
			for _, s := range stats.Shards {
				if s.URL == owner && s.Failures == 0 {
					t.Fatalf("the owner's bad frames were not counted as failures: %+v", s)
				}
			}
		})
	}
}

// TestClusterBadFrameEverywhere mangles every copy: one partition's copies
// bad is a degraded answer naming the partition, every shard bad is a 502.
func TestClusterBadFrameEverywhere(t *testing.T) {
	for _, ff := range frameFaults {
		t.Run(ff.name, func(t *testing.T) {
			tt := &tapTransport{}
			h := newHarness(t, testDB(t, 6), 3, 3, Config{CacheSize: -1, Transport: tt})
			tt.set(ff.tap, "", PartitionModel(server.DefaultModel, 1))
			status, body := post(t, h.coordSrv.URL, boolBody())
			var resp struct {
				Result *ResultJSON `json:"result"`
			}
			if err := json.Unmarshal(body, &resp); status != http.StatusOK || err != nil || resp.Result == nil || resp.Result.Cluster == nil {
				t.Fatalf("one partition's copies bad: %d %s, want a degraded 200", status, body)
			}
			if diag := resp.Result.Cluster; !diag.Partial || len(diag.FailedPartitions) != 1 || diag.FailedPartitions[0] != 1 {
				t.Fatalf("cluster diag = %+v, want partial with failed partition 1", diag)
			}
			if resp.Result.LiveSessions != 4 {
				t.Fatalf("degraded answer covers %d sessions, want the 4 of the surviving partitions\n%s", resp.Result.LiveSessions, body)
			}

			tt.set(ff.tap, "", "")
			if status, body := post(t, h.coordSrv.URL, boolBody()); status != http.StatusBadGateway {
				t.Fatalf("every shard bad: %d %s, want 502", status, body)
			}
		})
	}
}

// postJSON posts a JSON body and returns the status code.
func postJSON(t *testing.T, url, body string) int {
	t.Helper()
	resp, err := http.Post(url, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	return resp.StatusCode
}

// A seeded sampled answer is a function of the request, so the result cache
// serves a repeat of it: the same bytes, but for the counters, which report
// the groups as cache hits as an exact hit does. A deadline changes
// neither, exact or adaptive: the planner prices it as a budget. An
// unseeded sampled answer is not, and the cache does not serve it.
func TestClusterCachesSeededSampledAnswers(t *testing.T) {
	h := newHarness(t, testDB(t, 6), 3, 3, Config{})
	cases := []struct {
		name, body string
		hit        bool
	}{
		{"seeded rejection", fmt.Sprintf(`{"kind":"bool","query":%q,"method":"rejection","seed":7}`, demoQuery), true},
		{"unseeded rejection", fmt.Sprintf(`{"kind":"bool","query":%q,"method":"rejection"}`, demoQuery), false},
		{"adaptive with a deadline", fmt.Sprintf(`{"kind":"bool","query":%q,"method":"adaptive","seed":7,"timeout_ms":60000}`, demoQuery), true},
		{"exact with a deadline", fmt.Sprintf(`{"kind":"count","query":%q,"timeout_ms":60000}`, demoQuery), true},
	}
	for _, c := range cases {
		status, first := post(t, h.coordSrv.URL, c.body)
		if status != http.StatusOK {
			t.Fatalf("%s: status %d: %s", c.name, status, first)
		}
		before := h.coord.Stats().Cache
		status, again := post(t, h.coordSrv.URL, c.body)
		if status != http.StatusOK {
			t.Fatalf("%s: repeat status %d: %s", c.name, status, again)
		}
		after := h.coord.Stats().Cache
		if hit := after.Hits > before.Hits; hit != c.hit {
			t.Errorf("%s: cache hit %v, want %v (%+v then %+v)", c.name, hit, c.hit, before, after)
		}
		if c.hit && !bytes.Equal(asCacheHit(t, first), again) {
			t.Errorf("%s: the hit answered\n%s\nthe first request\n%s", c.name, again, first)
		}
	}
}

// asCacheHit rewrites a single answer's counters as a result-cache hit
// reports them: every solve counted as a cache hit.
func asCacheHit(t *testing.T, raw []byte) []byte {
	t.Helper()
	var resp ResponseJSON
	if err := json.Unmarshal(raw, &resp); err != nil {
		t.Fatal(err)
	}
	resp.Result = cachedCopy(resp.Result)
	out, err := json.MarshalIndent(&resp, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	return append(out, '\n')
}
