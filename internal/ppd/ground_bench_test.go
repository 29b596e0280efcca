package ppd_test

import (
	"bytes"
	"context"
	"math/rand"
	"sync"
	"testing"

	"probpref/internal/dataset"
	"probpref/internal/ppd"
	"probpref/internal/store"
)

// paperWorkers is the paper's CrowdRank size.
const paperWorkers = 200000

// benchCache is a concurrency-safe SolveCache for the benchmark below.
type benchCache struct {
	mu sync.Mutex
	m  map[string]float64
}

func (c *benchCache) Get(k string) (float64, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	p, ok := c.m[k]
	return p, ok
}

func (c *benchCache) Put(k string, p float64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.m[k] = p
}

// BenchmarkGroundPaperScale evaluates the stock CrowdRank count query under
// adaptive at the paper's 200 000 workers, over the generator-built
// database (memory) and over the same database written to a .ppds snapshot
// and reopened with store.OpenBytes (snapshot). A relation that large is
// past the grounding memo's budget, so every call grounds every session.
// cold starts from an empty solve cache and samples the query's 28 groups;
// warm finds all of them cached, so it costs the grounding and the fold
// alone. solves/op counts the groups sent to a solver or sampler.
func BenchmarkGroundPaperScale(b *testing.B) {
	db, err := dataset.CrowdRank(dataset.CrowdRankConfig{Workers: paperWorkers, Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	req := &ppd.Request{Kind: ppd.KindCount, Queries: []*ppd.Query{ppd.MustParse(dataset.CrowdRankQuery)}}
	run := func(b *testing.B, db *ppd.DB) {
		do := func(b *testing.B, cache ppd.SolveCache) *ppd.Response {
			eng := &ppd.Engine{DB: db, Method: ppd.MethodAdaptive, Rng: rand.New(rand.NewSource(1)), Cache: cache}
			resp, err := eng.Do(context.Background(), req)
			if err != nil {
				b.Fatal(err)
			}
			return resp
		}
		warmCache := &benchCache{m: make(map[string]float64)}
		b.Run("cold", func(b *testing.B) {
			b.ReportAllocs()
			solves := 0
			for i := 0; i < b.N; i++ {
				warmCache = &benchCache{m: make(map[string]float64)}
				solves += do(b, warmCache).Solves
			}
			b.ReportMetric(float64(solves)/float64(b.N), "solves/op")
		})
		if len(warmCache.m) == 0 { // cold did not run
			do(b, warmCache)
		}
		b.Run("warm", func(b *testing.B) {
			b.ReportAllocs()
			solves := 0
			for i := 0; i < b.N; i++ {
				solves += do(b, warmCache).Solves
			}
			b.ReportMetric(float64(solves)/float64(b.N), "solves/op")
		})
	}
	b.Run("memory", func(b *testing.B) { run(b, db) })
	// The snapshot is about 358 MB: sized up front, it is written once
	// instead of copied at every doubling.
	var snap bytes.Buffer
	snap.Grow(paperWorkers * (20*4 + 20*21/2*8) * 17 / 16) // per session: sigma, and Pi's lower triangle
	if err := store.Write(&snap, db, dataset.CrowdRankQuery); err != nil {
		b.Fatal(err)
	}
	db = nil // the snapshot arm holds one copy of the sessions, not two
	st, err := store.OpenBytes(snap.Bytes())
	if err != nil {
		b.Fatal(err)
	}
	defer st.Close()
	b.Run("snapshot", func(b *testing.B) { run(b, st.DB()) })
}
