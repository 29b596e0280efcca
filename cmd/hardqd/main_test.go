package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"testing"
)

var update = flag.Bool("update", false, "rewrite golden files")

const demoQuery = `P(_, _; c1; c2), C(c1, _, F, _, _, _), C(c2, _, M, _, _, _)`

func checkGolden(t *testing.T, name string, got []byte) {
	t.Helper()
	path := filepath.Join("testdata", name+".golden")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden file (run go test -run %s -update): %v", t.Name(), err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("output differs from %s:\n-- got --\n%s\n-- want --\n%s", path, got, want)
	}
}

func testServer(t *testing.T, args ...string) (*httptest.Server, string) {
	t.Helper()
	var buf bytes.Buffer
	d, err := setup(args, &buf)
	if err != nil {
		t.Fatalf("setup(%v): %v\noutput:\n%s", args, err, buf.String())
	}
	if d.addr == "" {
		t.Fatal("empty addr")
	}
	srv := httptest.NewServer(d.handler)
	t.Cleanup(func() {
		srv.Close()
		if d.wlog != nil {
			d.wlog.Close()
		}
	})
	return srv, buf.String()
}

func getBody(t *testing.T, srv *httptest.Server, path string) []byte {
	t.Helper()
	resp, err := srv.Client().Get(srv.URL + path)
	return readBody(t, resp, err)
}

func postBody(t *testing.T, srv *httptest.Server, path string, reqBody []byte) []byte {
	t.Helper()
	resp, err := srv.Client().Post(srv.URL+path, "application/json", bytes.NewReader(reqBody))
	return readBody(t, resp, err)
}

func readBody(t *testing.T, resp *http.Response, err error) []byte {
	t.Helper()
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d:\n%s", resp.StatusCode, b)
	}
	return b
}

func TestSetupBannerGolden(t *testing.T) {
	_, banner := testServer(t, "-dataset", "figure1", "-method", "auto", "-cache", "1024")
	checkGolden(t, "banner", []byte(banner))
}

// boolQuery is the /v1/query body of one bool request over query against
// model ("" = default).
func boolQuery(query, model string) []byte {
	req := map[string]any{"kind": "bool", "query": query}
	if model != "" {
		req["model"] = model
	}
	b, _ := json.Marshal(req)
	return b
}

// TestV1QueryBatchGolden pins a two-request batch's wire shape, its
// inference-group dedup counters included.
func TestV1QueryBatchGolden(t *testing.T) {
	srv, _ := testServer(t, "-dataset", "figure1")
	one := map[string]any{"kind": "bool", "query": demoQuery}
	req, _ := json.Marshal(map[string]any{"requests": []any{one, one}})
	b := postBody(t, srv, "/v1/query", req)
	checkGolden(t, "v1_query_batch", b)
}

func TestTopKGolden(t *testing.T) {
	srv, _ := testServer(t, "-dataset", "figure1")
	req, _ := json.Marshal(map[string]any{"kind": "topk", "query": demoQuery, "k": 2, "bound": 1})
	b := postBody(t, srv, "/v1/query", req)
	checkGolden(t, "v1_query_topk", b)
}

func TestStatsGolden(t *testing.T) {
	srv, _ := testServer(t, "-dataset", "figure1",
		"-wal-dir", filepath.Join(t.TempDir(), "wal"), "-snapshot-dir", t.TempDir())
	// A fixed request sequence makes every counter deterministic: the same
	// one-request batch twice, cold then warm, then one ingest — acked from
	// the log, so the wal block shows it pending behind the build's snapshot.
	batch := []byte(`{"requests":[` + string(boolQuery(demoQuery, "")) + `]}`)
	postBody(t, srv, "/v1/query", batch)
	postBody(t, srv, "/v1/query", batch)
	postBody(t, srv, "/v1/sessions", []byte(`{"pref":"P","sessions":[{"key":["Eve","7/7"],"sigma":[0,1,2,3],"phi":0.4}]}`))
	b := getBody(t, srv, "/stats")
	checkGolden(t, "stats", b)
}

func TestHealthz(t *testing.T) {
	srv, _ := testServer(t, "-dataset", "figure1")
	b := getBody(t, srv, "/healthz")
	if strings.TrimSpace(string(b)) != "ok" {
		t.Fatalf("healthz = %q", b)
	}
}

func TestCacheDisabledBanner(t *testing.T) {
	_, banner := testServer(t, "-dataset", "figure1", "-cache", "-1")
	if !strings.Contains(banner, "cache   : disabled") {
		t.Fatalf("banner missing disabled cache line:\n%s", banner)
	}
}

func TestSetupErrors(t *testing.T) {
	cases := [][]string{
		{"-dataset", "nope"},
		{"-method", "nope"},
		{"-bogusflag"},
		{"-manifest", "testdata/does-not-exist.json"},
		// Dataset-generator flags conflict with -manifest.
		{"-manifest", "testdata/manifest.json", "-dataset", "polls"},
		{"-manifest", "testdata/manifest.json", "-voters", "5"},
		// -shard wants "i[,j...]/n" with in-range, distinct partitions.
		{"-dataset", "figure1", "-shard", "nope"},
		{"-dataset", "figure1", "-shard", "0,0/2"},
		{"-dataset", "figure1", "-shard", "2/2"},
		{"-dataset", "figure1", "-shard", "0/0"},
		{"-dataset", "figure1", "-shard", "x/2"},
		// Coordinator flags are meaningless without (or against) the role.
		{"-partitions", "2"},
		{"-hedge-after", "10ms"},
		{"-hedge-after", "50ms"}, // the default value, still not a shard's flag
		{"-probe-every", "1s"},
		{"-dataset", "figure1", "-shard", "0/2", "-probe-every", "1s"},
		{"-coordinator", "nourl"},
		{"-coordinator", "s0=http://localhost:1", "-dataset", "polls"},
		{"-coordinator", "s0=http://localhost:1", "-shard", "0/2"},
		{"-coordinator", "s0=http://localhost:1", "-manifest", "testdata/manifest.json"},
		// WAL flags: a policy without a directory is ignored config, an
		// unknown policy is a typo, and the coordinator has no ingest path.
		{"-wal-sync", "always"},
		{"-dataset", "figure1", "-wal-dir", "testdata/never-created", "-wal-sync", "nope"},
		{"-coordinator", "s0=http://localhost:1", "-wal-dir", "testdata/never-created"},
		{"-coordinator", "s0=http://localhost:1", "-max-inflight", "4"},
	}
	for _, args := range cases {
		var buf bytes.Buffer
		if _, err := setup(args, &buf); err == nil {
			t.Errorf("setup(%v): want error", args)
		}
	}
}

func TestCacheZeroDisables(t *testing.T) {
	_, banner := testServer(t, "-dataset", "figure1", "-cache", "0")
	if !strings.Contains(banner, "cache   : disabled") {
		t.Fatalf("-cache 0 should disable the cache:\n%s", banner)
	}
}

// --- multi-model (manifest) tests ---

const pollsDemoQuery = `P(_, _; l; r), C(l, p, M, _, _, _), C(r, p, F, _, _, _)`

func manifestServer(t *testing.T) *httptest.Server {
	t.Helper()
	srv, _ := testServer(t, "-manifest", "testdata/manifest.json")
	return srv
}

func TestManifestBannerGolden(t *testing.T) {
	_, banner := testServer(t, "-manifest", "testdata/manifest.json", "-cache", "1024")
	checkGolden(t, "manifest_banner", []byte(banner))
}

func TestModelsGolden(t *testing.T) {
	srv := manifestServer(t)
	b := getBody(t, srv, "/models")
	checkGolden(t, "models", b)
}

// TestV1QueryModelGolden pins a bool request routed to a named manifest
// model.
func TestV1QueryModelGolden(t *testing.T) {
	srv := manifestServer(t)
	b := postBody(t, srv, "/v1/query", boolQuery(pollsDemoQuery, "polls-small"))
	checkGolden(t, "v1_query_model_polls", b)
}

func TestTopKWithModel(t *testing.T) {
	srv := manifestServer(t)
	req, _ := json.Marshal(map[string]any{"kind": "topk", "query": demoQuery, "k": 2, "bound": 1, "model": "figure1"})
	b := postBody(t, srv, "/v1/query", req)
	var resp struct {
		Result struct {
			Top []struct {
				Prob float64 `json:"prob"`
			} `json:"top"`
		} `json:"result"`
	}
	if err := json.Unmarshal(b, &resp); err != nil {
		t.Fatalf("unmarshal: %v\n%s", err, b)
	}
	if len(resp.Result.Top) != 2 {
		t.Fatalf("topk shape: %s", b)
	}
}

func statusOf(t *testing.T, srv *httptest.Server, method, path string, body []byte) (int, []byte) {
	t.Helper()
	req, err := http.NewRequest(method, srv.URL+path, bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp, err := srv.Client().Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, b
}

// TestModelLifecycle drives the runtime catalog management surface:
// register, inspect, query, evict, and the 404/409 error statuses.
func TestModelLifecycle(t *testing.T) {
	srv := manifestServer(t)

	// Unknown models are 404 on the query route.
	if code, _ := statusOf(t, srv, "POST", "/v1/query", boolQuery(demoQuery, "ghost")); code != http.StatusNotFound {
		t.Fatalf("query on unknown model: status %d, want 404", code)
	}
	if code, _ := statusOf(t, srv, "GET", "/models/ghost", nil); code != http.StatusNotFound {
		t.Fatalf("GET /models/ghost: status %d, want 404", code)
	}
	if code, _ := statusOf(t, srv, "DELETE", "/models/ghost", nil); code != http.StatusNotFound {
		t.Fatalf("DELETE /models/ghost: status %d, want 404", code)
	}

	// Register a new preloaded model at runtime and query it.
	spec := []byte(`{"name": "f2", "dataset": "figure1", "preload": true}`)
	if code, b := statusOf(t, srv, "POST", "/models", spec); code != http.StatusOK {
		t.Fatalf("POST /models: status %d\n%s", code, b)
	}
	if code, b := statusOf(t, srv, "POST", "/models", spec); code != http.StatusConflict {
		t.Fatalf("duplicate POST /models: status %d, want 409\n%s", code, b)
	}
	b := getBody(t, srv, "/models/f2")
	if !strings.Contains(string(b), `"loaded": true`) {
		t.Fatalf("GET /models/f2 not loaded:\n%s", b)
	}
	postBody(t, srv, "/v1/query", boolQuery(demoQuery, "f2"))

	// Evict it; querying again is a 404, deleting again is a 404.
	if code, b := statusOf(t, srv, "DELETE", "/models/f2", nil); code != http.StatusOK {
		t.Fatalf("DELETE /models/f2: status %d\n%s", code, b)
	}
	if code, _ := statusOf(t, srv, "POST", "/v1/query", boolQuery(demoQuery, "f2")); code != http.StatusNotFound {
		t.Fatalf("query on deleted model: status %d, want 404", code)
	}
	if code, _ := statusOf(t, srv, "DELETE", "/models/f2", nil); code != http.StatusNotFound {
		t.Fatalf("second DELETE: status %d, want 404", code)
	}

	// Bad registrations are 400.
	for _, bad := range []string{
		`{"name": "x", "dataset": "nope"}`,
		`{"name": "bad name", "dataset": "figure1"}`,
		`{"name": "x", "dataset": "figure1", "typo": 1}`,
		`{"name": "x", "dataset": "polls", "candidates": -1}`,
	} {
		if code, _ := statusOf(t, srv, "POST", "/models", []byte(bad)); code != http.StatusBadRequest {
			t.Fatalf("POST /models %s: status %d, want 400", bad, code)
		}
	}
}

// TestManifestServesModelsConcurrently is the acceptance check that one
// daemon serves two named dataset-backed models at the same time.
func TestManifestServesModelsConcurrently(t *testing.T) {
	srv := manifestServer(t)
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			q, model := demoQuery, "figure1"
			if i%2 == 1 {
				q, model = pollsDemoQuery, "polls-small"
			}
			resp, err := srv.Client().Post(srv.URL+"/v1/query", "application/json", bytes.NewReader(boolQuery(q, model)))
			if err != nil {
				t.Error(err)
				return
			}
			defer resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				b, _ := io.ReadAll(resp.Body)
				t.Errorf("model %s: status %d\n%s", model, resp.StatusCode, b)
			}
		}(i)
	}
	wg.Wait()
}

// TestHelpGolden pins the -help output to docs/hardqd_help.txt so the
// documented flag reference cannot go stale: the docs CI job fails when a
// flag changes without regenerating the golden (go test -run Help -update).
func TestHelpGolden(t *testing.T) {
	var buf bytes.Buffer
	if _, err := setup([]string{"-help"}, &buf); err != flag.ErrHelp {
		t.Fatalf("setup(-help) = %v, want flag.ErrHelp", err)
	}
	path := filepath.Join("..", "..", "docs", "hardqd_help.txt")
	if *update {
		if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing help golden (run go test -run TestHelpGolden -update): %v", err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Errorf("-help output differs from %s:\n-- got --\n%s\n-- want --\n%s", path, buf.Bytes(), want)
	}
}

// TestAPIDocEndpointsCovered verifies docs/API.md against the live
// handler: every route the daemon serves must be documented as a
// "## METHOD /path" section, the load-bearing field names must appear,
// and each GET endpoint of the doc must actually respond on a test
// server. A new route or renamed field fails this test until the doc is
// updated.
func TestAPIDocEndpointsCovered(t *testing.T) {
	doc, err := os.ReadFile(filepath.Join("..", "..", "docs", "API.md"))
	if err != nil {
		t.Fatalf("reading docs/API.md: %v", err)
	}
	text := string(doc)

	// The daemon's full route table; extend this list (and API.md) when
	// adding endpoints.
	endpoints := []string{
		"POST /v1/query",
		"POST /v1/rows",
		"POST /v1/sessions",
		"GET /models",
		"POST /models",
		"GET /models/{name}",
		"DELETE /models/{name}",
		"GET /stats",
		"GET /healthz",
		// Coordinator front end (internal/cluster), same doc page.
		"GET /cluster/stats",
		"GET /cluster/placement",
		"POST /cluster/shards",
		"DELETE /cluster/shards/{name}",
	}
	for _, ep := range endpoints {
		if !strings.Contains(text, "## "+ep) {
			t.Errorf("docs/API.md: missing section for %q", ep)
		}
	}
	for _, field := range []string{
		"model", "timeout_ms", "per_session", "plan", "preload",
		"cache_hits", "loaded", "refs", "deleted",
		// unified /v1/query surface
		"kind", "query", "method", "k", "bound", "seed",
		"agg_rel", "agg_attr", "stream", "requests",
		// consensus surface
		"target", "ranking", "expected_tau", "pairwise", "pair_half_width",
		"half_width", "items", "domain", "sampled",
		// coordinator surface
		"cluster", "partial", "failed_partitions", "owner", "replica",
		"excluded", "hedge_wins", "degraded",
		// durability & overload surface
		"retry_after", "sheds", "in_flight", "queued", "snapshot_errors",
		"wal", "last_seq", "pending_records", "pending_bytes", "checkpoints",
		"last_checkpoint_seq", "err",
	} {
		if !strings.Contains(text, "`"+field+"`") {
			t.Errorf("docs/API.md: field %q not documented", field)
		}
	}

	// Exercise the documented read paths against a manifest-backed server.
	srv := manifestServer(t)
	for _, path := range []string{
		"/models",
		"/models/figure1",
		"/stats",
		"/healthz",
	} {
		getBody(t, srv, path)
	}
	// And the unified endpoint, one request per documented kind.
	for _, body := range []string{
		`{"kind": "bool", "query": ` + strconv.Quote(demoQuery) + `, "model": "figure1"}`,
		`{"kind": "count", "query": ` + strconv.Quote(demoQuery) + `, "model": "figure1", "per_session": true}`,
		`{"kind": "topk", "query": ` + strconv.Quote(demoQuery) + `, "model": "figure1", "k": 2, "bound": 1}`,
		`{"kind": "aggregate", "query": ` + strconv.Quote(demoQuery) + `, "model": "figure1", "agg_rel": "V", "agg_attr": "age"}`,
		`{"kind": "countdist", "query": ` + strconv.Quote(demoQuery) + `, "model": "figure1"}`,
		`{"kind": "consensus", "query": ` + strconv.Quote(demoQuery) + `, "model": "figure1", "target": "map"}`,
		`{"kind": "consensus", "query": ` + strconv.Quote(demoQuery) + `, "model": "figure1", "target": "median", "per_session": true}`,
		`{"kind": "consensus", "query": ` + strconv.Quote(demoQuery) + `, "model": "figure1", "target": "topk", "k": 2, "method": "rejection", "seed": 7}`,
		`{"requests": [{"kind": "bool", "query": ` + strconv.Quote(demoQuery) + `, "model": "figure1"}]}`,
		`{"kind": "topk", "query": ` + strconv.Quote(demoQuery) + `, "model": "figure1", "k": 2, "stream": true}`,
	} {
		postBody(t, srv, "/v1/query", []byte(body))
	}
}

// TestV1QueryGolden pins the unified endpoint's single-request wire shape;
// deterministic because the exact method answers the demo query.
func TestV1QueryGolden(t *testing.T) {
	srv, _ := testServer(t, "-dataset", "figure1")
	req, _ := json.Marshal(map[string]any{"kind": "bool", "query": demoQuery, "per_session": true})
	b := postBody(t, srv, "/v1/query", req)
	checkGolden(t, "v1_query", b)
}

// TestV1QueryStreamGolden pins the NDJSON stream framing.
func TestV1QueryStreamGolden(t *testing.T) {
	srv, _ := testServer(t, "-dataset", "figure1")
	req, _ := json.Marshal(map[string]any{"kind": "topk", "query": demoQuery, "k": 2, "bound": 1, "stream": true})
	b := postBody(t, srv, "/v1/query", req)
	checkGolden(t, "v1_query_stream", b)
}

// --- cluster roles (-shard / -coordinator) ---

func TestShardBannerGolden(t *testing.T) {
	_, banner := testServer(t, "-dataset", "figure1", "-shard", "0/2")
	checkGolden(t, "shard_banner", []byte(banner))
}

// TestShardServesPartitionModels checks that a shard exposes exactly its
// "<model>--p<i>" partition models and nothing else.
func TestShardServesPartitionModels(t *testing.T) {
	srv, _ := testServer(t, "-dataset", "figure1", "-shard", "0,1/2")
	b := getBody(t, srv, "/models")
	for _, name := range []string{"default--p0", "default--p1"} {
		if !strings.Contains(string(b), `"`+name+`"`) {
			t.Errorf("/models missing %s:\n%s", name, b)
		}
	}
	// The unsplit model is not served; queries must name a partition.
	if code, _ := statusOf(t, srv, "POST", "/v1/query", boolQuery(demoQuery, "")); code != http.StatusNotFound {
		t.Fatalf("query on unsplit model: status %d, want 404", code)
	}
	req, _ := json.Marshal(map[string]any{"kind": "bool", "query": demoQuery, "model": "default--p1", "per_session": true})
	postBody(t, srv, "/v1/query", req)
}

// TestCoordinatorBannerGolden pins the coordinator's startup banner. Fixed
// shard URLs keep it deterministic; nothing is dialed at setup time.
func TestCoordinatorBannerGolden(t *testing.T) {
	var buf bytes.Buffer
	d, err := setup([]string{
		"-coordinator", "s0=http://shard0:8081,s1=http://shard1:8082",
		"-partitions", "4", "-probe-every", "0", "-cache", "64",
	}, &buf)
	if err != nil {
		t.Fatalf("setup: %v\n%s", err, buf.String())
	}
	if d.handler == nil {
		t.Fatal("nil handler")
	}
	d.cl.Close()
	checkGolden(t, "coord_banner", buf.Bytes())
}

// TestCoordinatorEndToEnd wires two shard daemons behind a coordinator
// daemon, all through the real flag surface, and requires the merged
// answers to match a single-process daemon byte for byte. Both shards hold
// both partitions (full replication), so the answer is placement-invariant.
func TestCoordinatorEndToEnd(t *testing.T) {
	single, _ := testServer(t, "-dataset", "figure1")
	s0, _ := testServer(t, "-dataset", "figure1", "-shard", "0,1/2")
	s1, _ := testServer(t, "-dataset", "figure1", "-shard", "0,1/2")
	// Hedging off: a hedge that wins on the other replica would still merge
	// the same values but report its own solve counters.
	coord, banner := testServer(t,
		"-coordinator", "s0="+s0.URL+",s1="+s1.URL,
		"-probe-every", "0", "-hedge-after", "-1ms")
	if !strings.Contains(banner, "coordinator: 2 shards, 2 partitions per model") {
		t.Fatalf("coordinator banner:\n%s", banner)
	}

	for _, body := range []string{
		`{"kind": "bool", "query": ` + strconv.Quote(demoQuery) + `, "per_session": true}`,
		// No "bound": the bounded top-k prunes sessions globally, which a
		// per-partition fan-out legitimately cannot reproduce counter-exactly.
		`{"kind": "topk", "query": ` + strconv.Quote(demoQuery) + `, "k": 2}`,
		`{"kind": "countdist", "query": ` + strconv.Quote(demoQuery) + `}`,
	} {
		want := postBody(t, single, "/v1/query", []byte(body))
		got := postBody(t, coord, "/v1/query", []byte(body))
		if !bytes.Equal(got, want) {
			t.Errorf("merged answer differs for %s:\n-- single --\n%s\n-- cluster --\n%s", body, want, got)
		}
	}

	// The merged catalog regroups partitions into the unsplit model.
	var models struct {
		Models []struct {
			Name     string `json:"name"`
			Sessions int    `json:"sessions"`
		} `json:"models"`
	}
	if err := json.Unmarshal(getBody(t, coord, "/models"), &models); err != nil {
		t.Fatal(err)
	}
	if len(models.Models) != 1 || models.Models[0].Name != "default" || models.Models[0].Sessions != 3 {
		t.Fatalf("merged /models = %+v, want one row default/3 sessions", models.Models)
	}
	getBody(t, coord, "/cluster/stats")
	getBody(t, coord, "/cluster/placement")
	getBody(t, coord, "/healthz")
}
