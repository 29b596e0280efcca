package registry

import (
	"fmt"
	"math/rand"
	"path/filepath"
	"sync/atomic"
	"testing"

	"probpref/internal/ppd"
	"probpref/internal/rank"
	"probpref/internal/rim"
	"probpref/internal/wal"
)

// The two benchmarks below are the measurements beside checkpointFloor: what
// an ack costs with the snapshot off its path, and what a restart pays per
// byte of log the snapshot lags by. Both use the benchmark harness's ingest
// shape: polls over 20 candidates, eight sessions a batch.

var benchSpec = Spec{Name: "polls", Dataset: "polls", Candidates: 20, Voters: 16, Preload: true}

// benchBatches returns n eight-session batches for benchSpec's P relation.
func benchBatches(n int) [][]*ppd.Session {
	rng := rand.New(rand.NewSource(1))
	out := make([][]*ppd.Session, n)
	for i := range out {
		for j := 0; j < 8; j++ {
			sigma := rank.Identity(20)
			rng.Shuffle(len(sigma), func(a, b int) { sigma[a], sigma[b] = sigma[b], sigma[a] })
			out[i] = append(out[i], &ppd.Session{
				Key:   []string{fmt.Sprintf("w%d-%d", i, j), "10/10"},
				Model: rim.MustMallows(sigma, 0.3+0.05*float64(j)),
			})
		}
	}
	return out
}

// benchRegistry registers benchSpec over a SyncNever log (the fsync is the
// disk's price, not this package's) and, when snapDir is set, a snapshot
// directory.
func benchRegistry(b *testing.B, snapDir string) (*Registry, *wal.Log) {
	b.Helper()
	l, err := wal.Open(filepath.Join(b.TempDir(), "wal"), wal.Options{Sync: wal.SyncNever})
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { l.Close() })
	r := New()
	r.SetSnapshotDir(snapDir)
	if err := r.SetWAL(l); err != nil {
		b.Fatal(err)
	}
	if err := r.Register(benchSpec); err != nil {
		b.Fatal(err)
	}
	return r, l
}

// BenchmarkRegistryAppend is one logged ingest: validate, log, swap. Beside
// ns/op it reports the snapshot bytes checkpoints wrote per append: 0 until
// the log reaches checkpointFloor, then each checkpoint's file spread over
// the b.N appends (ns/op grows with b.N too: ppd.ConcatSessions copies the
// RAM tail on every append).
func BenchmarkRegistryAppend(b *testing.B) {
	snapDir := b.TempDir()
	r, _ := benchRegistry(b, snapDir)
	var snapBytes atomic.Int64
	r.appendHook = func(stage string) {
		if stage == "renamed" {
			snapBytes.Add(fileSize(filepath.Join(snapDir, benchSpec.Name+".ppds")))
		}
	}
	batches := benchBatches(256)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := r.Append(benchSpec.Name, "P", batches[i%len(batches)]); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	h, err := r.Open(benchSpec.Name)
	if err != nil {
		b.Fatal(err)
	}
	h.e.ckptMu.Lock() // wait for a checkpoint the last appends started
	h.e.ckptMu.Unlock()
	h.Close()
	b.ReportMetric(float64(snapBytes.Load())/float64(b.N), "snap-B/op")
}

// BenchmarkReplayWAL is a restart's replay of 1 000 eight-session records
// (0.8 MiB of log, reported as log-MiB) over a built model: one
// AppendSessions for the whole run.
func BenchmarkReplayWAL(b *testing.B) {
	r, l := benchRegistry(b, "")
	for _, batch := range benchBatches(1000) {
		if _, err := r.Append(benchSpec.Name, "P", batch); err != nil {
			b.Fatal(err)
		}
	}
	base, demo, err := Build(benchSpec)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e := &entry{spec: benchSpec, db: base, demo: demo}
		r.replayWAL(benchSpec.Name, e)
		if e.buildErr != nil || e.sessions != 16+8000 || e.walSeq != l.LastSeq() {
			b.Fatalf("replay: %d sessions, seq %d, err %v", e.sessions, e.walSeq, e.buildErr)
		}
	}
	b.ReportMetric(float64(r.WALStats().PendingBytes)/(1<<20), "log-MiB")
}
