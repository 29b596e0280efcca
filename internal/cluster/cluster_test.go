package cluster

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"probpref/internal/ppd"
	"probpref/internal/rank"
	"probpref/internal/registry"
	"probpref/internal/rim"
	"probpref/internal/server"
)

// Shared harness of the distributed-equivalence and fault-injection suites:
// one single-process service over the unsplit model next to an N-shard
// cluster over its partitions, both behind httptest, with a fault-injection
// transport between coordinator and shards. Run under -race (CI does).

const demoQuery = `P(_, _; c1; c2), C(c1, _, F, _, _, _), C(c2, _, M, _, _, _)`
const unionQuery = demoQuery + ` | P(_, _; c1; c2), C(c1, D, _, _, JD, _), C(c2, R, _, _, _, _)`

// secondModel names the model every harness serves beside the default one,
// over testDB(t, secondSessions), so batches can interleave two models.
const (
	secondModel    = "second"
	secondSessions = 5
)

// testDB builds a synthetic RIM-PPD with n sessions shaped like figure1
// (candidates C, voters V with a numeric age, one poll session per voter).
// Every session gets a distinct Mallows model (distinct phi), so inference
// groups never span sessions and the shard-side solve/cache counters are
// partition-additive — the precondition for byte-identical distributed
// counters.
func testDB(t testing.TB, n int) *ppd.DB {
	t.Helper()
	cands, err := ppd.NewRelation("C",
		[]string{"candidate", "party", "sex", "age", "edu", "reg"},
		[][]string{
			{"Trump", "R", "M", "70", "BS", "NE"},
			{"Clinton", "D", "F", "69", "JD", "NE"},
			{"Sanders", "D", "M", "75", "BS", "NE"},
			{"Rubio", "R", "M", "45", "JD", "S"},
		})
	if err != nil {
		t.Fatal(err)
	}
	db, err := ppd.NewDB(cands)
	if err != nil {
		t.Fatal(err)
	}
	voterTuples := make([][]string, n)
	sessions := make(ppd.SessionSlice, n)
	rankings := []rank.Ranking{{1, 2, 3, 0}, {0, 3, 2, 1}, {2, 1, 0, 3}, {3, 0, 1, 2}}
	sexes := []string{"F", "M"}
	for i := 0; i < n; i++ {
		name := fmt.Sprintf("v%02d", i)
		voterTuples[i] = []string{name, sexes[i%2], fmt.Sprintf("%d", 20+i), "BS"}
		phi := 0.15 + 0.7*float64(i)/float64(n)
		sessions[i] = &ppd.Session{
			Key:   []string{name, "5/5"},
			Model: rim.MustMallows(rankings[i%len(rankings)], phi),
		}
	}
	voters, err := ppd.NewRelation("V", []string{"voter", "sex", "age", "edu"}, voterTuples)
	if err != nil {
		t.Fatal(err)
	}
	if err := db.AddRelation(voters); err != nil {
		t.Fatal(err)
	}
	if err := db.AddPrefRelation(&ppd.PrefRelation{
		Name:         "P",
		SessionAttrs: []string{"voter", "date"},
		Sessions:     sessions,
	}); err != nil {
		t.Fatal(err)
	}
	return db
}

// fault is one injected behavior for a shard host: an optional delay, then
// either a transport error, a synthetic status, or the real round trip.
// A non-empty bodySubstr restricts the fault to requests whose body contains
// it (e.g. one partition's model name), letting a test kill a single
// partition on a shard that also serves healthy ones.
type fault struct {
	delay      time.Duration
	err        error
	status     int
	bodySubstr string
}

// faultTransport injects faults per shard host on the coordinator→shard
// path. The zero rule set passes everything through.
type faultTransport struct {
	base http.RoundTripper

	mu    sync.Mutex
	rules map[string]fault // key: shard URL host
}

func newFaultTransport() *faultTransport {
	return &faultTransport{base: http.DefaultTransport, rules: map[string]fault{}}
}

// set installs (or, with the zero fault, clears) the rule for a shard URL.
func (ft *faultTransport) set(shardURL string, f fault) {
	host := strings.TrimPrefix(strings.TrimPrefix(shardURL, "http://"), "https://")
	ft.mu.Lock()
	defer ft.mu.Unlock()
	if f == (fault{}) {
		delete(ft.rules, host)
		return
	}
	ft.rules[host] = f
}

func (ft *faultTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	ft.mu.Lock()
	f := ft.rules[req.URL.Host]
	ft.mu.Unlock()
	if f.bodySubstr != "" {
		matched := false
		if req.GetBody != nil {
			rc, err := req.GetBody()
			if err != nil {
				return nil, err
			}
			b, err := io.ReadAll(rc)
			rc.Close()
			if err != nil {
				return nil, err
			}
			matched = strings.Contains(string(b), f.bodySubstr)
		}
		if !matched {
			f = fault{}
		}
	}
	if f.delay > 0 {
		select {
		case <-time.After(f.delay):
		case <-req.Context().Done():
			return nil, req.Context().Err()
		}
	}
	if f.err != nil {
		return nil, f.err
	}
	if f.status != 0 {
		return &http.Response{
			StatusCode: f.status,
			Header:     http.Header{"Content-Type": []string{"application/json"}},
			Body:       io.NopCloser(strings.NewReader(`{"error":"injected fault"}`)),
			Request:    req,
		}, nil
	}
	return ft.base.RoundTrip(req)
}

// harness is one single-process/cluster pair over the same databases: db
// as the default model and a second one as secondModel.
type harness struct {
	t         *testing.T
	dbs       map[string]*ppd.DB // by base model name
	single    *httptest.Server
	singleSvc *server.Service
	coord     *Coordinator
	coordSrv  *httptest.Server
	shardSrvs []*httptest.Server
	shardRegs []*registry.Registry
	ft        *faultTransport
}

// newHarness builds a single-process server over db (and secondModel) and
// a cluster of `shards` shard servers behind a coordinator splitting every
// model into `partitions` partitions. Each partition is provisioned (as an
// in-memory session slice of the same db) on its owner and replica per the
// coordinator's placement.
func newHarness(t *testing.T, db *ppd.DB, shards, partitions int, cfg Config) *harness {
	t.Helper()
	h := &harness{t: t, ft: newFaultTransport(), dbs: map[string]*ppd.DB{
		server.DefaultModel: db,
		secondModel:         testDB(t, secondSessions),
	}}

	reg := registry.New()
	for name, mdb := range h.dbs {
		if err := reg.RegisterDB(name, mdb, ""); err != nil {
			t.Fatal(err)
		}
	}
	h.singleSvc = server.NewMulti(reg, server.Config{})
	h.single = httptest.NewServer(h.singleSvc.Handler())
	t.Cleanup(h.single.Close)

	var shardCfgs []ShardConfig
	for i := 0; i < shards; i++ {
		sreg := registry.New()
		svc := server.NewMulti(sreg, server.Config{})
		srv := httptest.NewServer(svc.Handler())
		t.Cleanup(srv.Close)
		h.shardSrvs = append(h.shardSrvs, srv)
		h.shardRegs = append(h.shardRegs, sreg)
		shardCfgs = append(shardCfgs, ShardConfig{Name: fmt.Sprintf("s%d", i), URL: srv.URL})
	}
	if cfg.Partitions == 0 {
		cfg.Partitions = partitions
	}
	if cfg.Transport == nil {
		cfg.Transport = h.ft
	}
	if cfg.HedgeAfter == 0 {
		// Hedging off unless a test opts in: a spurious hedge that wins on a
		// cold replica legitimately changes solve/cache-hit counters, which
		// would break the byte-identity checks nondeterministically.
		cfg.HedgeAfter = -1
	}
	coord, err := New(shardCfgs, cfg)
	if err != nil {
		t.Fatal(err)
	}
	h.coord = coord
	t.Cleanup(coord.Close)
	for name := range h.dbs {
		h.provision(name)
	}
	h.coordSrv = httptest.NewServer(coord.Handler())
	t.Cleanup(h.coordSrv.Close)
	return h
}

// provision registers every partition of base on its owner and replica
// shards, per the coordinator's placement.
func (h *harness) provision(base string) {
	h.t.Helper()
	byName := map[string]int{}
	for i := range h.shardRegs {
		byName[fmt.Sprintf("s%d", i)] = i
	}
	for _, row := range h.coord.Placement(base) {
		pdb, err := ppd.PartitionDB(h.dbs[base], row.Partition, h.coord.Partitions())
		if err != nil {
			h.t.Fatal(err)
		}
		for _, name := range []string{row.Owner, row.Replica} {
			if name == "" {
				continue
			}
			if err := h.shardRegs[byName[name]].RegisterDB(row.Model, pdb, ""); err != nil {
				h.t.Fatal(err)
			}
		}
	}
}

// shardURLsFor returns the owner and replica URLs of one partition of the
// default model — the targets fault rules aim at.
func (h *harness) shardURLsFor(partition int) (owner, replica string) {
	h.t.Helper()
	rows := h.coord.Placement(server.DefaultModel)
	for _, row := range rows {
		if row.Partition != partition {
			continue
		}
		for i := range h.shardSrvs {
			name := fmt.Sprintf("s%d", i)
			if name == row.Owner {
				owner = h.shardSrvs[i].URL
			}
			if name == row.Replica {
				replica = h.shardSrvs[i].URL
			}
		}
	}
	return owner, replica
}

// newTestServer starts an httptest server over h and closes it with the
// test.
func newTestServer(t *testing.T, h interface{ Handler() http.Handler }) *httptest.Server {
	t.Helper()
	srv := httptest.NewServer(h.Handler())
	t.Cleanup(srv.Close)
	return srv
}

// post sends a /v1/query body and returns status and raw response bytes.
func post(t *testing.T, srvURL, body string) (int, []byte) {
	t.Helper()
	resp, err := http.Post(srvURL+"/v1/query", "application/json", strings.NewReader(body))
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

// checkEqual posts body to the single process and the coordinator and
// requires byte-identical responses (status and payload, NDJSON included).
// Both tiers write a JSON answer through one appender, so a single-process
// answer is also held to what encoding/json writes for its decoded value.
func (h *harness) checkEqual(body string) {
	h.t.Helper()
	ss, sb := post(h.t, h.single.URL, body)
	cs, cb := post(h.t, h.coordSrv.URL, body)
	if ss != cs {
		h.t.Fatalf("status differs for %s:\nsingle = %d:\n%s\ncluster = %d:\n%s", body, ss, sb, cs, cb)
	}
	if !bytes.Equal(sb, cb) {
		h.t.Errorf("response differs for %s:\n-- single --\n%s\n-- cluster --\n%s", body, sb, cb)
	}
	if q, err := server.DecodeV1Query(strings.NewReader(body)); ss != http.StatusOK || err != nil || q.Body.Stream {
		return
	}
	var v server.V1Response
	if err := json.Unmarshal(sb, &v); err != nil {
		h.t.Fatalf("decoding the single-process answer to %s: %v", body, err)
	}
	var want bytes.Buffer
	enc := json.NewEncoder(&want)
	enc.SetIndent("", "  ")
	if err := enc.Encode(&v); err != nil {
		h.t.Fatal(err)
	}
	if !bytes.Equal(sb, want.Bytes()) {
		h.t.Errorf("answer to %s differs from encoding/json's:\n-- appender --\n%s\n-- encoding/json --\n%s", body, sb, want.Bytes())
	}
}
