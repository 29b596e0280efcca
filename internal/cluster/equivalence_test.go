package cluster

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"reflect"
	"strings"
	"testing"

	"probpref/internal/dataset"
	"probpref/internal/registry"
	"probpref/internal/server"
)

// Distributed-equivalence suite: the same request posted to a single-process
// service and to a sharded cluster over the same sessions must yield
// byte-identical responses — aggregates refolded, top-k re-merged, count
// distributions re-convolved, NDJSON streams interleaved in session order.

// equivalenceBodies is the request matrix checked for byte identity: all
// six kinds, per-session variants, union queries, a batch, and a batch
// interleaving the default model with secondModel. Consensus
// covers all three targets. The sampled variants carry a seed: a sampled
// group's (consensus: a session's) stream is seeded from the request seed
// and what draws from it, so it is the same on every tier.
func equivalenceBodies() []string {
	q := demoQuery
	u := unionQuery
	return []string{
		fmt.Sprintf(`{"kind":"bool","query":%q}`, q),
		fmt.Sprintf(`{"kind":"bool","query":%q,"per_session":true}`, q),
		fmt.Sprintf(`{"kind":"count","query":%q,"per_session":true}`, u),
		fmt.Sprintf(`{"kind":"topk","query":%q,"k":3}`, q),
		fmt.Sprintf(`{"kind":"topk","query":%q,"k":5}`, u),
		fmt.Sprintf(`{"kind":"countdist","query":%q,"per_session":true}`, q),
		fmt.Sprintf(`{"kind":"aggregate","query":%q,"agg_rel":"V","agg_attr":"age"}`, q),
		fmt.Sprintf(`{"kind":"aggregate","query":%q,"agg_rel":"V","agg_attr":"age","per_session":true}`, u),
		fmt.Sprintf(`{"kind":"consensus","query":%q,"target":"map"}`, q),
		fmt.Sprintf(`{"kind":"consensus","query":%q,"target":"median","per_session":true}`, q),
		fmt.Sprintf(`{"kind":"consensus","query":%q,"target":"topk","k":2}`, u),
		fmt.Sprintf(`{"kind":"consensus","query":%q,"target":"median","method":"rejection","seed":5}`, q),
		fmt.Sprintf(`{"kind":"consensus","query":%q,"target":"topk","k":2,"method":"rejection","seed":11,"per_session":true}`, q),
		// Seeded sampled answers: every sampled group draws from a stream
		// keyed by the seed, its model and its union, so a partition draws
		// what the single process draws for the same group.
		fmt.Sprintf(`{"kind":"bool","query":%q,"method":"rejection","seed":3}`, q),
		fmt.Sprintf(`{"kind":"bool","query":%q,"method":"mis-lite","seed":4}`, u),
		fmt.Sprintf(`{"kind":"count","query":%q,"method":"rejection","seed":6,"per_session":true}`, u),
		fmt.Sprintf(`{"kind":"count","query":%q,"method":"mis-lite","seed":8,"per_session":true}`, q),
		fmt.Sprintf(`{"kind":"countdist","query":%q,"method":"rejection","seed":9}`, q),
		fmt.Sprintf(`{"kind":"countdist","query":%q,"method":"mis-lite","seed":10,"per_session":true}`, u),
		fmt.Sprintf(`{"kind":"aggregate","query":%q,"agg_rel":"V","agg_attr":"age","method":"rejection","seed":12}`, q),
		fmt.Sprintf(`{"kind":"aggregate","query":%q,"agg_rel":"V","agg_attr":"age","method":"mis-lite","seed":13,"per_session":true}`, u),
		// A sampled aggregate groups with the bool and count requests of
		// its query, seed and method, and draws what it draws alone.
		fmt.Sprintf(`{"requests":[{"kind":"bool","query":%[1]q,"method":"rejection","seed":12},{"kind":"count","query":%[1]q,"method":"rejection","seed":12},{"kind":"aggregate","query":%[1]q,"agg_rel":"V","agg_attr":"age","method":"rejection","seed":12},{"kind":"aggregate","query":%[2]q,"agg_rel":"V","agg_attr":"age","method":"mis-lite","seed":13,"per_session":true},{"kind":"bool","query":%[2]q,"method":"mis-lite","seed":13},{"kind":"count","query":%[2]q,"method":"mis-lite","seed":13}]}`, q, u),
		fmt.Sprintf(`{"requests":[{"kind":"bool","query":%q},{"kind":"topk","query":%q,"k":2},{"kind":"count","query":%q},{"kind":"aggregate","query":%q,"agg_rel":"V","agg_attr":"age"},{"kind":"countdist","query":%q},{"kind":"consensus","query":%q,"target":"median"}]}`, q, u, q, q, u, q),
		fmt.Sprintf(`{"requests":[{"kind":"bool","query":%[1]q,"method":"rejection","seed":3},{"kind":"count","query":%[2]q,"method":"mis-lite","seed":4,"per_session":true},{"kind":"countdist","query":%[2]q,"method":"rejection","seed":3},{"kind":"bool","query":%[1]q,"method":"mis-lite"},{"kind":"count","query":%[1]q}]}`, q, u),
		fmt.Sprintf(`{"requests":[{"kind":"bool","query":%[1]q,"model":%[3]q},{"kind":"bool","query":%[1]q},{"kind":"topk","query":%[2]q,"k":2,"model":%[3]q},{"kind":"countdist","query":%[1]q,"per_session":true},{"kind":"countdist","query":%[2]q,"model":%[3]q},{"kind":"topk","query":%[1]q,"k":3},{"kind":"consensus","query":%[1]q,"target":"median","model":%[3]q},{"kind":"bool","query":%[2]q,"model":%[3]q,"per_session":true},{"kind":"consensus","query":%[2]q,"target":"map"}]}`, q, u, secondModel),
	}
}

// streamBodies is the request matrix for NDJSON byte identity.
func streamBodies() []string {
	return []string{
		fmt.Sprintf(`{"kind":"bool","query":%q,"stream":true}`, demoQuery),
		fmt.Sprintf(`{"kind":"count","query":%q,"stream":true}`, unionQuery),
		fmt.Sprintf(`{"kind":"countdist","query":%q,"stream":true}`, demoQuery),
		fmt.Sprintf(`{"kind":"topk","query":%q,"k":4,"stream":true}`, demoQuery),
	}
}

func TestClusterEquivalence(t *testing.T) {
	db := testDB(t, 7)
	for _, shards := range []int{1, 2, 5} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			h := newHarness(t, db, shards, 3, Config{})
			for _, body := range equivalenceBodies() {
				h.checkEqual(body)
			}
			for _, body := range streamBodies() {
				h.checkEqual(body)
			}
		})
	}
}

// TestClusterEquivalenceMorePartitionsThanSessions covers empty partitions:
// 5 partitions over 3 sessions leaves ranges empty, which must not perturb
// any merged answer.
func TestClusterEquivalenceMorePartitionsThanSessions(t *testing.T) {
	db := testDB(t, 3)
	h := newHarness(t, db, 2, 5, Config{})
	for _, body := range equivalenceBodies() {
		h.checkEqual(body)
	}
}

// TestClusterEquivalenceErrors checks that malformed requests fail with the
// same status and body on both tiers.
func TestClusterEquivalenceErrors(t *testing.T) {
	db := testDB(t, 4)
	h := newHarness(t, db, 2, 2, Config{})
	for _, body := range []string{
		`{"kind":"nope","query":"P(_, _; c1; c2)"}`,
		`{"kind":"bool"}`,
		`{"kind":"bool","query":"P(_, _; c1; c2)","bogus":1}`,
		fmt.Sprintf(`{"kind":"aggregate","query":%q}`, demoQuery),
		fmt.Sprintf(`{"kind":"topk","query":%q,"k":3,"requests":[{"kind":"bool","query":%q}]}`, demoQuery, demoQuery),
		fmt.Sprintf(`{"requests":[{"kind":"bool","query":%q,"stream":true}]}`, demoQuery),
		fmt.Sprintf(`{"kind":"aggregate","query":%q,"agg_rel":"V","agg_attr":"age","stream":true}`, demoQuery),
		fmt.Sprintf(`{"kind":"consensus","query":%q,"stream":true}`, demoQuery),
		fmt.Sprintf(`{"kind":"consensus","query":%q,"target":"kemeny"}`, demoQuery),
		fmt.Sprintf(`{"kind":"consensus","query":%q,"target":"median","stream":true}`, demoQuery),
		// Batches whose second request fails at Compile ...
		fmt.Sprintf(`{"requests":[{"kind":"bool","query":%q},{"kind":"topk","query":%q}]}`, demoQuery, demoQuery),
		fmt.Sprintf(`{"requests":[{"kind":"bool","query":%q},{"kind":"bool","query":%q,"k":2}]}`, demoQuery, demoQuery),
		fmt.Sprintf(`{"requests":[{"kind":"bool","query":%q},{"kind":"aggregate","query":%q}]}`, demoQuery, demoQuery),
		// ... at ToRequest ...
		fmt.Sprintf(`{"requests":[{"kind":"bool","query":%q},{"kind":"bool","query":%q,"method":"nope"}]}`, demoQuery, demoQuery),
		fmt.Sprintf(`{"requests":[{"kind":"bool","query":%q},{"kind":"bool","query":%q,"timeout_ms":-1}]}`, demoQuery, demoQuery),
		// ... and whose first fails at Compile before the second fails at
		// ToRequest: the stages interleave per request on both tiers.
		fmt.Sprintf(`{"requests":[{"kind":"topk","query":%q},{"kind":"bool","query":%q,"method":"nope"}]}`, demoQuery, demoQuery),
	} {
		h.checkEqual(body)
	}
	// A batch naming a model no shard holds fails whole with the catalog's
	// 404 on both tiers. The cluster's message names the partition model
	// the shard missed, so only the status and the name are compared.
	body := fmt.Sprintf(`{"requests":[{"kind":"bool","query":%[1]q},{"kind":"bool","query":%[1]q,"model":"missing"},{"kind":"topk","query":%[1]q,"k":2,"model":%[2]q}]}`, demoQuery, secondModel)
	ss, sb := post(t, h.single.URL, body)
	cs, cb := post(t, h.coordSrv.URL, body)
	if ss != http.StatusNotFound || cs != http.StatusNotFound || !strings.Contains(string(cb), "missing") {
		t.Fatalf("statuses = %d, %d, want 404 naming the model on both\nsingle: %s\ncluster: %s", ss, cs, sb, cb)
	}
}

// TestClusterEquivalenceUnknownModel checks 404 propagation for a model no
// shard holds.
func TestClusterEquivalenceUnknownModel(t *testing.T) {
	db := testDB(t, 4)
	h := newHarness(t, db, 2, 2, Config{})
	body := fmt.Sprintf(`{"kind":"bool","query":%q,"model":"missing"}`, demoQuery)
	ss, sb := post(t, h.single.URL, body)
	cs, cb := post(t, h.coordSrv.URL, body)
	if ss != http.StatusNotFound || cs != http.StatusNotFound {
		t.Fatalf("statuses = %d, %d, want 404 on both\nsingle: %s\ncluster: %s", ss, cs, sb, cb)
	}
	if !strings.Contains(string(cb), "missing") {
		t.Fatalf("cluster 404 body does not name the model: %s", cb)
	}
}

// TestClusterCacheCounterEquivalence repeats a request on both tiers: the
// second single-process response is served from the shard-side solve cache,
// the second cluster response from the coordinator result cache, and the
// rewritten counters must agree byte for byte.
func TestClusterCacheCounterEquivalence(t *testing.T) {
	db := testDB(t, 6)
	h := newHarness(t, db, 3, 3, Config{})
	for _, body := range []string{
		fmt.Sprintf(`{"kind":"bool","query":%q}`, demoQuery),
		fmt.Sprintf(`{"kind":"topk","query":%q,"k":3}`, demoQuery),
		fmt.Sprintf(`{"kind":"aggregate","query":%q,"agg_rel":"V","agg_attr":"age"}`, demoQuery),
	} {
		h.checkEqual(body) // cold
		h.checkEqual(body) // warm: solve cache vs coordinator result cache
	}
	stats := h.coord.Stats()
	if stats.Cache.Hits == 0 {
		t.Fatalf("coordinator cache saw no hits: %+v", stats.Cache)
	}
}

// TestClusterStreamIsNDJSON sanity-checks the coordinator stream framing
// itself (one JSON object per line, head first) rather than just comparing
// with the single process.
func TestClusterStreamIsNDJSON(t *testing.T) {
	db := testDB(t, 5)
	h := newHarness(t, db, 2, 2, Config{})
	body := fmt.Sprintf(`{"kind":"bool","query":%q,"stream":true}`, demoQuery)
	resp, err := http.Post(h.coordSrv.URL+"/v1/query", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Fatalf("Content-Type = %q, want application/x-ndjson", ct)
	}
	sc := bufio.NewScanner(resp.Body)
	lines := 0
	for sc.Scan() {
		var v map[string]any
		if err := json.Unmarshal(sc.Bytes(), &v); err != nil {
			t.Fatalf("line %d is not JSON: %v\n%s", lines, err, sc.Text())
		}
		if lines == 0 {
			if _, ok := v["kind"]; !ok {
				t.Fatalf("head line missing kind: %s", sc.Text())
			}
		}
		lines++
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if lines != 1+5 {
		t.Fatalf("stream lines = %d, want head + 5 session rows", lines)
	}
}

// TestClusterModelsMerge checks GET /models regroups partition rows under
// their base models with summed session counts.
func TestClusterModelsMerge(t *testing.T) {
	db := testDB(t, 7)
	h := newHarness(t, db, 3, 3, Config{})
	resp, err := http.Get(h.coordSrv.URL + "/models")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var mr server.ModelsResponse
	if err := json.NewDecoder(resp.Body).Decode(&mr); err != nil {
		t.Fatal(err)
	}
	if len(mr.Models) != 2 {
		t.Fatalf("models = %+v, want exactly the two regrouped base models", mr.Models)
	}
	for i, want := range []struct {
		name     string
		sessions int
	}{{server.DefaultModel, 7}, {secondModel, secondSessions}} {
		if got := mr.Models[i]; got.Name != want.name || got.Sessions != want.sessions || !got.Loaded {
			t.Fatalf("merged model row %d = %+v, want name=%s sessions=%d loaded", i, got, want.name, want.sessions)
		}
	}
}

// TestClusterGeneratorSpecProvisioning covers the registry generator-spec
// path: shards provision their partitions from dataset specs (as hardqd
// -shard does) instead of pre-built DB slices, and the cluster still matches
// a single process over the same generated dataset.
func TestClusterGeneratorSpecProvisioning(t *testing.T) {
	const parts = 2
	reg := registry.New()
	if err := reg.Register(registry.Spec{
		Name: server.DefaultModel, Dataset: "figure1", Preload: true,
	}); err != nil {
		t.Fatal(err)
	}
	singleSvc := server.NewMulti(reg, server.Config{})
	single := newTestServer(t, singleSvc)

	shardRegs := make([]*registry.Registry, parts)
	shardCfgs := make([]ShardConfig, parts)
	for i := range shardRegs {
		shardRegs[i] = registry.New()
		srv := newTestServer(t, server.NewMulti(shardRegs[i], server.Config{}))
		shardCfgs[i] = ShardConfig{Name: fmt.Sprintf("s%d", i), URL: srv.URL}
	}
	coord, err := New(shardCfgs, Config{Partitions: parts})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(coord.Close)
	byName := map[string]int{"s0": 0, "s1": 1}
	for _, row := range coord.Placement(server.DefaultModel) {
		for _, name := range []string{row.Owner, row.Replica} {
			if name == "" {
				continue
			}
			err := shardRegs[byName[name]].Register(registry.Spec{
				Name: row.Model, Dataset: "figure1", Preload: true,
				Partition: row.Partition, Partitions: parts,
			})
			if err != nil {
				t.Fatal(err)
			}
		}
	}
	coordSrv := newTestServer(t, coord)

	for _, body := range []string{
		fmt.Sprintf(`{"kind":"bool","query":%q,"per_session":true}`, demoQuery),
		fmt.Sprintf(`{"kind":"topk","query":%q,"k":2}`, demoQuery),
	} {
		ss, sb := post(t, single.URL, body)
		cs, cb := post(t, coordSrv.URL, body)
		if ss != cs || !bytes.Equal(sb, cb) {
			t.Errorf("spec-provisioned cluster differs for %s:\nsingle %d: %s\ncluster %d: %s", body, ss, sb, cs, cb)
		}
	}
}

// A streamed timeout_ms request reaches the shards with its deadline, which
// the adaptive planner prices as the partition's budget: on a coordinator at
// one partition its head is the unstreamed answer without the rows. Each
// request runs on a cold cluster, since an exact answer a shard cached
// would leave the next request more budget.
func TestClusterStreamDeadlineHeadMatchesUnstreamed(t *testing.T) {
	db, query, err := dataset.Build(dataset.BuildConfig{Name: "polls", Candidates: 20, Voters: 60, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	body := fmt.Sprintf(`{"kind":"count","method":"adaptive","timeout_ms":5,"query":%q`, query)
	status, raw := post(t, newHarness(t, db, 1, 1, Config{}).coordSrv.URL, body+`,"per_session":true}`)
	if status != http.StatusOK {
		t.Fatalf("status %d: %s", status, raw)
	}
	var want ResponseJSON
	if err := json.Unmarshal(raw, &want); err != nil {
		t.Fatal(err)
	}
	if p := want.Result.Plan; p == nil || p.ExactGroups == 0 || p.SampledGroups == 0 {
		t.Fatalf("fixture: a 5 ms budget should route some groups exact and sample others, got %+v", p)
	}
	want.Result.PerSession = nil
	status, raw = post(t, newHarness(t, db, 1, 1, Config{}).coordSrv.URL, body+`,"stream":true}`)
	if status != http.StatusOK {
		t.Fatalf("stream status %d: %s", status, raw)
	}
	sc := bufio.NewScanner(bytes.NewReader(raw))
	if !sc.Scan() {
		t.Fatal("missing head line")
	}
	var head ResultJSON
	if err := json.Unmarshal(sc.Bytes(), &head); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(&head, want.Result) {
		t.Fatalf("streamed head %+v (plan %+v), unstreamed %+v (plan %+v)", head, head.Plan, *want.Result, want.Result.Plan)
	}
}
