package cluster

import (
	"bytes"
	"flag"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	"probpref/internal/ppd"
	"probpref/internal/registry"
	"probpref/internal/server"
)

// Tests of the coordinator↔shard hop itself: what crosses it, and that the
// merged bytes did not move when its wire changed.

var updateGolden = flag.Bool("update", false, "rewrite testdata/hop.golden")

// hopBodies is the hop matrix: all six kinds, single and batch, with and
// without per-session rows.
func hopBodies() (names, bodies []string) {
	kinds := []struct{ name, fields string }{
		{"bool", fmt.Sprintf(`"kind":"bool","query":%q`, demoQuery)},
		{"count", fmt.Sprintf(`"kind":"count","query":%q`, unionQuery)},
		{"countdist", fmt.Sprintf(`"kind":"countdist","query":%q`, demoQuery)},
		{"topk", fmt.Sprintf(`"kind":"topk","query":%q,"k":3`, unionQuery)},
		{"aggregate", fmt.Sprintf(`"kind":"aggregate","query":%q,"agg_rel":"V","agg_attr":"age"`, demoQuery)},
		{"consensus", fmt.Sprintf(`"kind":"consensus","query":%q,"target":"median"`, demoQuery)},
	}
	for _, rows := range []bool{false, true} {
		suffix, flag := "", ""
		if rows {
			suffix, flag = "+rows", `,"per_session":true`
		}
		var batch []string
		for _, k := range kinds {
			names = append(names, k.name+suffix)
			bodies = append(bodies, "{"+k.fields+flag+"}")
			batch = append(batch, "{"+k.fields+flag+"}")
		}
		names = append(names, "batch"+suffix)
		bodies = append(bodies, `{"requests":[`+strings.Join(batch, ",")+`]}`)
	}
	return names, bodies
}

// TestHopGolden pins the coordinator's response bytes for the hop matrix to
// testdata/hop.golden, which was recorded through the JSON hop (POST
// /v1/query with per_session forced on) before the shards grew /v1/rows: a
// frame that decodes and refolds to different bytes than the JSON rows did
// fails here even if a single process drifted the same way.
func TestHopGolden(t *testing.T) {
	h := newHarness(t, testDB(t, 7), 2, 3, Config{CacheSize: -1})
	names, bodies := hopBodies()
	var got bytes.Buffer
	for i, body := range bodies {
		status, raw := post(t, h.coordSrv.URL, body)
		fmt.Fprintf(&got, "== %s: %d ==\n%s", names[i], status, raw)
	}
	const path = "testdata/hop.golden"
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), want) {
		t.Errorf("coordinator bytes differ from %s (recorded through the JSON hop):\n%s", path, got.Bytes())
	}
}

// TestHopCarriesRowsFrames is the structural half of the hop's claim, in
// place of a timing: every shard request of the equivalence suite — good
// bodies, streams, and the unknown-model 404 a shard decides — goes to
// /v1/rows, and a count over N sessions comes back in 8 bytes a session plus
// a fixed head per partition.
func TestHopCarriesRowsFrames(t *testing.T) {
	// What the hop carried: shard POSTs by path, and the sizes of the 200s.
	var mu sync.Mutex
	paths, sizes := map[string]int{}, []int(nil)
	tt := &tapTransport{}
	tt.set(func(path string, status int, body []byte) (int, []byte) {
		mu.Lock()
		defer mu.Unlock()
		paths[path]++
		if status == http.StatusOK {
			sizes = append(sizes, len(body))
		}
		return status, body
	}, "", "")
	h := newHarness(t, testDB(t, 7), 2, 3, Config{Transport: tt})
	for _, body := range append(equivalenceBodies(), streamBodies()...) {
		h.checkEqual(body)
	}
	if status, body := post(t, h.coordSrv.URL, fmt.Sprintf(`{"kind":"bool","query":%q,"model":"missing"}`, demoQuery)); status != http.StatusNotFound {
		t.Fatalf("unknown model through the coordinator: %d %s, want the shard's 404 mirrored", status, body)
	}
	if n := paths["/v1/rows"]; n == 0 || len(paths) != 1 {
		t.Fatalf("shard POSTs by path = %v, want all of them on /v1/rows", paths)
	}

	const sessions, partitions, head = 40, 2, 256
	h = newHarness(t, testDB(t, sessions), 2, partitions, Config{Transport: tt})
	sizes = nil
	h.checkEqual(fmt.Sprintf(`{"kind":"count","query":%q}`, demoQuery))
	if len(sizes) != partitions {
		t.Fatalf("%d shard answers, want one per partition", len(sizes))
	}
	for _, size := range sizes {
		if limit := 8*sessions/partitions + head; size > limit {
			t.Errorf("a partition of %d sessions answered count in %d bytes, want <= %d", sessions/partitions, size, limit)
		}
	}
}

// TestHopCacheKeepsKeyedAndKeylessApart is the regression test of the
// result cache under the new wire: the shards send session keys only when
// asked, so a merged result cached for a caller who did not ask must never
// answer one who did (it would print "session": null). With the cache on,
// every form of one query stays byte-equal to a single process.
func TestHopCacheKeepsKeyedAndKeylessApart(t *testing.T) {
	h := newHarness(t, testDB(t, 6), 2, 3, Config{})
	for _, kind := range []string{"count", "bool", "countdist"} {
		for _, form := range []string{``, `,"per_session":true`, `,"stream":true`, ``, `,"per_session":true`} {
			h.checkEqual(fmt.Sprintf(`{"kind":%q,"query":%q%s}`, kind, demoQuery, form))
		}
	}
	if stats := h.coord.Stats(); stats.Cache.Hits == 0 {
		t.Fatalf("the sequence never hit the result cache: %+v", stats.Cache)
	}
}

// recordedLatencies is a latency sequence (microseconds) of a warm shard
// with a slow tail, longer than the window so that it wraps.
var recordedLatencies = []int{
	310, 295, 330, 2900, 305, 290, 315, 300, 340, 298, 1200, 307, 312, 296, 301, 333,
	289, 4100, 320, 299, 306, 311, 294, 302, 350, 297, 308, 1900, 303, 291, 316, 304,
	325, 293, 309, 300, 7800, 313, 288, 318, 305, 296, 322, 301, 310, 299, 2500, 307,
	314, 292, 303, 329, 298, 306, 1100, 311, 295, 317, 302, 300, 321, 297, 309, 304,
	950, 315, 290, 312, 3600, 301, 308, 296, 319, 303, 299, 324, 305, 310, 294, 1500,
}

// TestHedgeDelayRecordedSequence pins the hedge trigger over a recorded
// latency sequence: after every sample it must equal what sorting a copy of
// the window yields — the p95 once 16 samples are in, floored at
// minHedgeDelay — and the configured default before; a negative default
// (hedging off) always wins.
func TestHedgeDelayRecordedSequence(t *testing.T) {
	const def = 50 * time.Millisecond
	s := &shard{}
	var seen []time.Duration
	for i, us := range recordedLatencies {
		d := time.Duration(us) * time.Microsecond
		s.recordSuccess(d)
		seen = append(seen, d)
		window := append([]time.Duration(nil), seen[max(0, len(seen)-latWindow):]...)
		sort.Slice(window, func(a, b int) bool { return window[a] < window[b] })
		want := def
		if len(window) >= latWarm {
			want = max(window[(len(window)-1)*95/100], minHedgeDelay)
		}
		if got := s.hedgeDelay(def); got != want {
			t.Fatalf("after sample %d: hedge delay %v, want %v", i+1, got, want)
		}
		if got := s.hedgeDelay(-1); got != -1 {
			t.Fatalf("after sample %d: hedging disabled yet delay %v", i+1, got)
		}
	}
	// Literal anchors, so the reference above cannot drift with the code.
	for _, pin := range []struct {
		samples int
		want    time.Duration
	}{
		{15, def},
		{16, 1200 * time.Microsecond},
		{40, 2900 * time.Microsecond},
		{64, 1900 * time.Microsecond},
		{80, 1900 * time.Microsecond},
	} {
		s := &shard{}
		for _, us := range recordedLatencies[:pin.samples] {
			s.recordSuccess(time.Duration(us) * time.Microsecond)
		}
		if got := s.hedgeDelay(def); got != pin.want {
			t.Errorf("after %d samples: hedge delay %v, want %v", pin.samples, got, pin.want)
		}
	}
	// The floor: a shard faster than minHedgeDelay at its p95 hedges at the
	// floor, and /cluster/stats reports the same number.
	fast := &shard{}
	for i := 0; i < latWindow; i++ {
		fast.recordSuccess(200 * time.Microsecond)
	}
	if got := fast.hedgeDelay(def); got != minHedgeDelay {
		t.Errorf("fast shard: hedge delay %v, want the %v floor", got, minHedgeDelay)
	}
}

// handlerTransport serves shard round trips from in-process handlers chosen
// by URL host, so the hop runs without sockets.
type handlerTransport map[string]http.Handler

func (ht handlerTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	rec := httptest.NewRecorder()
	ht[req.URL.Host].ServeHTTP(rec, req)
	return rec.Result(), nil
}

// BenchmarkCoordinatorHop measures one warm client request through an
// in-process coordinator (result cache and hedging off) over two in-process
// shards holding two partitions of 75 sessions: fan-out, shard front half,
// wire, merge and the client-facing encode, with no sockets and no solver.
func BenchmarkCoordinatorHop(b *testing.B) {
	db := testDB(b, 75)
	ht := handlerTransport{}
	cfgs := []ShardConfig{{Name: "s0", URL: "http://s0.bench"}, {Name: "s1", URL: "http://s1.bench"}}
	regs := map[string]*registry.Registry{}
	for _, sc := range cfgs {
		regs[sc.Name] = registry.New()
		ht[strings.TrimPrefix(sc.URL, "http://")] = server.NewMulti(regs[sc.Name], server.Config{}).Handler()
	}
	coord, err := New(cfgs, Config{Partitions: 2, CacheSize: -1, HedgeAfter: -1, Transport: ht})
	if err != nil {
		b.Fatal(err)
	}
	defer coord.Close()
	for _, row := range coord.Placement(server.DefaultModel) {
		pdb, err := ppd.PartitionDB(db, row.Partition, coord.Partitions())
		if err != nil {
			b.Fatal(err)
		}
		for _, name := range []string{row.Owner, row.Replica} {
			if err := regs[name].RegisterDB(row.Model, pdb, ""); err != nil {
				b.Fatal(err)
			}
		}
	}
	handler := coord.Handler()
	var batch []string
	for i := 0; i < 8; i++ {
		kind := []string{"bool", "count", "countdist"}[i%3]
		rows := ""
		if i%4 == 3 {
			rows = `,"per_session":true`
		}
		batch = append(batch, fmt.Sprintf(`{"kind":%q,"query":%q%s}`, kind, []string{demoQuery, unionQuery}[i%2], rows))
	}
	for _, bc := range []struct{ name, body string }{
		{"bool", fmt.Sprintf(`{"kind":"bool","query":%q}`, demoQuery)},
		{"batch8", `{"requests":[` + strings.Join(batch, ",") + `]}`},
	} {
		b.Run(bc.name, func(b *testing.B) {
			do := func() {
				rec := httptest.NewRecorder()
				handler.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/query", strings.NewReader(bc.body)))
				if rec.Code != http.StatusOK {
					b.Fatalf("status %d: %s", rec.Code, rec.Body)
				}
			}
			do() // warm the shards' solve caches
			b.ReportAllocs()
			for b.Loop() {
				do()
			}
		})
	}
}
