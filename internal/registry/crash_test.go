package registry

import (
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"testing"

	"probpref/internal/ppd"
	"probpref/internal/store"
	"probpref/internal/wal"
)

// This file is the crash-injection harness of the durable-ingest path: it
// kills a registry (by copying its on-disk state: WAL directory + snapshot
// directory) at every stage of Append — after the log sync, after the
// publish, after the ack with no checkpoint yet — and of the checkpoint
// behind it — temp file written, renamed, compacted — plus torn and
// bit-flipped WAL tails, and proves the recovery contract on restart: every
// acknowledged batch is present exactly once, every batch whose log record
// never completed is absent.

// copyTree copies the file tree rooted at src into dst (which must not
// exist). It is the harness's "kill -9": whatever bytes the OS holds at
// this instant are what the next process gets.
func copyTree(t *testing.T, src, dst string) {
	t.Helper()
	err := filepath.WalkDir(src, func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(src, path)
		if err != nil {
			return err
		}
		target := filepath.Join(dst, rel)
		if d.IsDir() {
			return os.MkdirAll(target, 0o755)
		}
		in, err := os.Open(path)
		if err != nil {
			return err
		}
		defer in.Close()
		out, err := os.Create(target)
		if err != nil {
			return err
		}
		if _, err := io.Copy(out, in); err != nil {
			out.Close()
			return err
		}
		return out.Close()
	})
	if err != nil {
		t.Fatalf("copying %s: %v", src, err)
	}
}

// diskState is one captured crash point.
type diskState struct {
	walDir, snapDir string
}

// capture snapshots both directories under root/<label>.
func capture(t *testing.T, walDir, snapDir, root, label string) diskState {
	t.Helper()
	st := diskState{
		walDir:  filepath.Join(root, label, "wal"),
		snapDir: filepath.Join(root, label, "snap"),
	}
	copyTree(t, walDir, st.walDir)
	copyTree(t, snapDir, st.snapDir)
	return st
}

// restart plays the recovery path over a captured state: open the WAL
// (repairing a torn tail if the crash left one), attach it to a fresh
// catalog, register the model, and force the build. It returns the
// restarted registry and log; the caller owns closing the log.
func restart(t *testing.T, st diskState) (*Registry, *wal.Log) {
	t.Helper()
	l, err := wal.Open(st.walDir, wal.Options{Sync: wal.SyncAlways})
	if err != nil {
		t.Fatalf("reopening wal: %v", err)
	}
	r := New()
	r.SetSnapshotDir(st.snapDir)
	if err := r.SetWAL(l); err != nil {
		t.Fatalf("attaching wal: %v", err)
	}
	if err := r.Register(Spec{Name: "fig", Dataset: "figure1"}); err != nil {
		t.Fatalf("re-registering: %v", err)
	}
	return r, l
}

// sessionKeys opens the model and returns the sorted first key component of
// every session — the observable ingest history.
func sessionKeys(t *testing.T, r *Registry) []string {
	t.Helper()
	h, err := r.Open("fig")
	if err != nil {
		t.Fatalf("open after restart: %v", err)
	}
	defer h.Close()
	ss := h.DB().Prefs["P"].Sessions
	keys := make([]string, 0, ss.Len())
	for i := 0; i < ss.Len(); i++ {
		keys = append(keys, ss.At(i).Key[0])
	}
	sort.Strings(keys)
	return keys
}

// newSession builds one session compatible with figure1's P relation.
func newSession(db *ppd.DB, name string) *ppd.Session {
	base := db.Prefs["P"].Sessions.At(0)
	return &ppd.Session{Key: []string{name, "7/7"}, Model: base.Model}
}

// walGrown is the harness's live fixture: a registry with WAL and snapshot
// directories, the model built, and a capture callback wired into Append.
func walGrown(t *testing.T) (*Registry, *wal.Log, string, string) {
	t.Helper()
	snapDir := t.TempDir()
	r, l, walDir := walGrownWith(t, snapDir, wal.Options{Sync: wal.SyncAlways})
	return r, l, walDir, snapDir
}

// walGrownWith is walGrown over the given log options and snapshot
// directory ("" for none).
func walGrownWith(t *testing.T, snapDir string, opts wal.Options) (*Registry, *wal.Log, string) {
	t.Helper()
	walDir := filepath.Join(t.TempDir(), "wal")
	l, err := wal.Open(walDir, opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { l.Close() })
	r := New()
	r.SetSnapshotDir(snapDir)
	if err := r.SetWAL(l); err != nil {
		t.Fatal(err)
	}
	if err := r.Register(Spec{Name: "fig", Dataset: "figure1", Preload: true}); err != nil {
		t.Fatal(err)
	}
	return r, l, walDir
}

// snapshotOnDisk reports the wal_seq stamp and session count of the fig
// snapshot in dir.
func snapshotOnDisk(t *testing.T, dir string) (seq uint64, sessions int) {
	t.Helper()
	s, err := store.Open(filepath.Join(dir, "fig.ppds"))
	if err != nil {
		t.Fatalf("opening snapshot: %v", err)
	}
	defer s.Close()
	return s.WALSeq(), s.Sessions()
}

// TestCrashAtEveryAppendStage kills the process at each stage of two
// consecutive ingests and of the checkpoint that follows them, and requires
// every batch whose log record was synced (the precondition of the ack) to
// be present exactly once after restart. Up to "acked" the snapshot still
// predates both batches, so recovery is replay alone; "tempfile" adds the
// checkpoint's finished but unrenamed temporary file, which recovery must
// ignore; at "renamed" the stamped snapshot and the records it covers are
// both on disk, which exercises the stamp that makes replay idempotent.
func TestCrashAtEveryAppendStage(t *testing.T) {
	r, _, walDir, snapDir := walGrown(t)
	captures := t.TempDir()

	states := make(map[string]diskState)
	var batch string
	r.appendHook = func(stage string) {
		label := batch + "-" + stage
		states[label] = capture(t, walDir, snapDir, captures, label)
		if stage != "captured" {
			return
		}
		// A kill between the temp file's fsync and its rename leaves the
		// whole new snapshot under the temporary name beside the old one.
		h, err := r.Open("fig")
		if err != nil {
			t.Fatal(err)
		}
		defer h.Close()
		tmp := filepath.Join(states[label].snapDir, ".ppds-tmp-killed")
		if err := store.WriteFileSeq(tmp, h.DB(), h.DemoQuery(), 2); err != nil {
			t.Fatal(err)
		}
	}

	h, err := r.Open("fig")
	if err != nil {
		t.Fatal(err)
	}
	db := h.DB()
	h.Close()
	for _, name := range []string{"Eve", "Frank"} {
		batch = strings.ToLower(name)
		if _, err := r.Append("fig", "P", []*ppd.Session{newSession(db, name)}); err != nil {
			t.Fatal(err)
		}
		states[batch+"-acked"] = capture(t, walDir, snapDir, captures, batch+"-acked")
	}
	batch = "ckpt"
	if err := r.Checkpoint(); err != nil {
		t.Fatal(err)
	}

	eve := []string{"Ann", "Bob", "Dave", "Eve"}
	frank := []string{"Ann", "Bob", "Dave", "Eve", "Frank"}
	want := map[string]struct {
		keys    []string
		snapSeq uint64 // the stamp of the snapshot the restart starts from
	}{
		"eve-logged":        {eve, 0},
		"eve-published":     {eve, 0},
		"eve-acked":         {eve, 0},
		"frank-logged":      {frank, 0},
		"frank-published":   {frank, 0},
		"frank-acked":       {frank, 0},
		"ckpt-captured":     {frank, 0}, // + the unrenamed temp file
		"ckpt-renamed":      {frank, 2},
		"ckpt-checkpointed": {frank, 2},
	}
	for label, st := range states {
		if seq, n := snapshotOnDisk(t, st.snapDir); seq != want[label].snapSeq || n != 3+int(seq) {
			t.Errorf("crash at %s: snapshot stamped %d with %d sessions, want stamp %d", label, seq, n, want[label].snapSeq)
		}
		r2, l2 := restart(t, st)
		got := sessionKeys(t, r2)
		if fmt.Sprint(got) != fmt.Sprint(want[label].keys) {
			t.Errorf("crash at %s: restart sees %v, want %v", label, got, want[label].keys)
		}
		l2.Close()
	}
	if len(states) != len(want) {
		t.Fatalf("captured %d crash points, want %d", len(states), len(want))
	}
}

// TestCrashedUnackedBatchAbsent mutates the captured WAL to simulate a
// crash mid-record-write — a truncated tail and a bit-flipped tail — and
// requires the half-written batch to be absent after restart while every
// earlier acked batch survives. The restart must also report the repair.
func TestCrashedUnackedBatchAbsent(t *testing.T) {
	r, _, walDir, snapDir := walGrown(t)
	captures := t.TempDir()

	// Batch 1 (Eve) completes: logged, published, acked. Batch 2 (Frank)
	// reaches the log; the capture at "logged" then gets its record damaged
	// to simulate the write never finishing.
	var logged diskState
	h, err := r.Open("fig")
	if err != nil {
		t.Fatal(err)
	}
	db := h.DB()
	h.Close()
	if _, err := r.Append("fig", "P", []*ppd.Session{newSession(db, "Eve")}); err != nil {
		t.Fatal(err)
	}
	r.appendHook = func(stage string) {
		if stage == "logged" {
			logged = capture(t, walDir, snapDir, captures, "frank-logged")
		}
	}
	if _, err := r.Append("fig", "P", []*ppd.Session{newSession(db, "Frank")}); err != nil {
		t.Fatal(err)
	}

	mutations := map[string]func(t *testing.T, seg string){
		"truncated-tail": func(t *testing.T, seg string) {
			fi, err := os.Stat(seg)
			if err != nil {
				t.Fatal(err)
			}
			if err := os.Truncate(seg, fi.Size()-5); err != nil {
				t.Fatal(err)
			}
		},
		"bit-flipped-tail": func(t *testing.T, seg string) {
			data, err := os.ReadFile(seg)
			if err != nil {
				t.Fatal(err)
			}
			data[len(data)-1] ^= 0x40
			if err := os.WriteFile(seg, data, 0o644); err != nil {
				t.Fatal(err)
			}
		},
	}
	for name, mutate := range mutations {
		t.Run(name, func(t *testing.T) {
			st := diskState{
				walDir:  filepath.Join(t.TempDir(), "wal"),
				snapDir: filepath.Join(t.TempDir(), "snap"),
			}
			copyTree(t, logged.walDir, st.walDir)
			copyTree(t, logged.snapDir, st.snapDir)
			segs, err := filepath.Glob(filepath.Join(st.walDir, "wal-*.seg"))
			if err != nil || len(segs) == 0 {
				t.Fatalf("no wal segments: %v", err)
			}
			sort.Strings(segs)
			mutate(t, segs[len(segs)-1])

			r2, l2 := restart(t, st)
			defer l2.Close()
			if n := l2.TornRepairs(); n != 1 {
				t.Errorf("TornRepairs = %d, want 1", n)
			}
			got := sessionKeys(t, r2)
			want := []string{"Ann", "Bob", "Dave", "Eve"}
			if fmt.Sprint(got) != fmt.Sprint(want) {
				t.Errorf("restart sees %v, want %v (Frank was never acked)", got, want)
			}
			// The repaired log keeps accepting: the retried batch lands at
			// the sequence the torn record vacated.
			if _, err := r2.Append("fig", "P", []*ppd.Session{newSession(db, "Frank")}); err != nil {
				t.Fatalf("append after repair: %v", err)
			}
			if got := sessionKeys(t, r2); fmt.Sprint(got) != fmt.Sprint([]string{"Ann", "Bob", "Dave", "Eve", "Frank"}) {
				t.Errorf("after retried ingest: %v", got)
			}
		})
	}
}

// TestRestartReplayIsIdempotent restarts twice from the same crash point
// (crash after publish, before snapshot) with a checkpoint in between: the
// second restart finds the batch inside the stamped snapshot and must not
// apply the still-present log record again.
func TestRestartReplayIsIdempotent(t *testing.T) {
	r, _, walDir, snapDir := walGrown(t)
	captures := t.TempDir()

	var published diskState
	r.appendHook = func(stage string) {
		if stage == "published" {
			published = capture(t, walDir, snapDir, captures, "published")
		}
	}
	h, err := r.Open("fig")
	if err != nil {
		t.Fatal(err)
	}
	db := h.DB()
	h.Close()
	if _, err := r.Append("fig", "P", []*ppd.Session{newSession(db, "Eve")}); err != nil {
		t.Fatal(err)
	}

	r2, l2 := restart(t, published)
	want := []string{"Ann", "Bob", "Dave", "Eve"}
	if got := sessionKeys(t, r2); fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("first restart sees %v, want %v", got, want)
	}
	// Checkpoint stamps the snapshot with the replayed seq; the record is
	// deliberately NOT compacted away here (it is the only record of the
	// active segment), so the second restart sees snapshot and record.
	if err := r2.Checkpoint(); err != nil {
		t.Fatalf("checkpoint: %v", err)
	}
	l2.Close()

	st := diskState{walDir: published.walDir, snapDir: published.snapDir}
	r3, l3 := restart(t, st)
	defer l3.Close()
	if got := sessionKeys(t, r3); fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("second restart sees %v, want %v (double replay?)", got, want)
	}
}

// smallSegments is walGrown over 256-byte log segments, so a handful of
// appends seals several, optionally without a snapshot directory.
func smallSegments(t *testing.T, snapDir string) (*Registry, *wal.Log, string) {
	t.Helper()
	r, l, walDir := walGrownWith(t, snapDir, wal.Options{Sync: wal.SyncAlways, SegmentBytes: 256})
	h, err := r.Open("fig")
	if err != nil {
		t.Fatal(err)
	}
	defer h.Close()
	for i := 0; i < 6; i++ {
		if _, err := r.Append("fig", "P", []*ppd.Session{newSession(h.DB(), fmt.Sprintf("G%d", i))}); err != nil {
			t.Fatal(err)
		}
	}
	return r, l, walDir
}

// restartCopy restarts from a copy of the live directories: recovery reads
// the same bytes a crashed process would have left, while the live log
// stays open.
func restartCopy(t *testing.T, walDir, snapDir string) (*Registry, *wal.Log) {
	t.Helper()
	return restart(t, capture(t, walDir, snapDir, t.TempDir(), "copy"))
}

// TestCheckpointCompactsLog grows the model across several small segments:
// the appends alone write no snapshot, so every record stays pending and
// every sealed segment stays; the checkpoint then stamps one snapshot with
// the last record, retires them all and deletes the sealed segments, and
// the acked history survives a restart.
func TestCheckpointCompactsLog(t *testing.T) {
	snapDir := t.TempDir()
	r, l, walDir := smallSegments(t, snapDir)
	sealed := l.Segments()
	if sealed < 3 {
		t.Fatalf("six appends over 256-byte segments left %d segments, want several", sealed)
	}
	if st := r.WALStats(); st.PendingRecords != 6 || st.PendingBytes == 0 || st.Checkpoints != 1 || st.LastCheckpointSeq != 0 {
		t.Fatalf("before the checkpoint: %+v, want 6 pending records and the build's snapshot alone", st)
	}
	if seq, n := snapshotOnDisk(t, snapDir); seq != 0 || n != 3 {
		t.Fatalf("an append wrote a snapshot: stamp %d, %d sessions", seq, n)
	}
	if err := r.Checkpoint(); err != nil {
		t.Fatalf("checkpoint: %v", err)
	}
	if n := l.Segments(); n != 1 {
		t.Errorf("after the checkpoint: %d segments, want 1 (compaction lagging)", n)
	}
	if st := r.WALStats(); st.LastSeq != 6 || st.PendingRecords != 0 || st.PendingBytes != 0 || st.Checkpoints != 2 || st.LastCheckpointSeq != 6 {
		t.Errorf("after the checkpoint: %+v", st)
	}
	if seq, n := snapshotOnDisk(t, snapDir); seq != 6 || n != 9 {
		t.Errorf("checkpoint wrote stamp %d with %d sessions, want 6 and 9", seq, n)
	}
	r2, l2 := restartCopy(t, walDir, snapDir)
	defer l2.Close()
	if keys := sessionKeys(t, r2); len(keys) != 9 {
		t.Fatalf("restart sees %d sessions, want 9: %v", len(keys), keys)
	}
}

// TestLogWithoutSnapshotDirKeepsItsRecords is the regression test for acked
// data lost under -wal-dir alone: a checkpoint that has nowhere to write a
// snapshot wrote nothing, so it must mark nothing durable — the log is the
// only copy, and compaction may not delete a segment of it.
func TestLogWithoutSnapshotDirKeepsItsRecords(t *testing.T) {
	r, l, walDir := smallSegments(t, "")
	sealed := l.Segments()
	if err := r.Checkpoint(); err != nil {
		t.Fatalf("checkpoint: %v", err)
	}
	if n := l.Segments(); n != sealed {
		t.Errorf("checkpoint without a snapshot directory compacted the log: %d segments, had %d", n, sealed)
	}
	if st := r.WALStats(); st.PendingRecords != 6 || st.Checkpoints != 0 {
		t.Errorf("after the checkpoint: %+v, want 6 pending records and no checkpoint counted", st)
	}
	emptySnap := t.TempDir()
	r2, l2 := restartCopy(t, walDir, emptySnap)
	defer l2.Close()
	if keys := sessionKeys(t, r2); len(keys) != 9 {
		t.Fatalf("restart sees %d sessions, want 9 (acked batches compacted away): %v", len(keys), keys)
	}
}

// TestAppendStartsCheckpointAtThreshold drives the automatic rule: an
// append that takes the model's unsnapshotted log past checkpointFloor
// returns with a checkpoint running behind it, which stamps the snapshot
// with that record and retires it; the next small append is far below the
// new threshold and starts nothing.
func TestAppendStartsCheckpointAtThreshold(t *testing.T) {
	r, _, _, snapDir := walGrown(t)
	h, err := r.Open("fig")
	if err != nil {
		t.Fatal(err)
	}
	defer h.Close()
	if _, err := r.Append("fig", "P", []*ppd.Session{newSession(h.DB(), "Eve")}); err != nil {
		t.Fatal(err)
	}
	if st := r.WALStats(); st.PendingRecords != 1 || st.Checkpoints != 1 {
		t.Fatalf("a small append: %+v, want it pending and no checkpoint started", st)
	}
	var big []*ppd.Session
	for i := 0; i < checkpointFloor/40; i++ { // a session is over 40 bytes of log
		big = append(big, newSession(h.DB(), fmt.Sprintf("B%d", i)))
	}
	if _, err := r.Append("fig", "P", big); err != nil {
		t.Fatal(err)
	}
	// Append took ckptMu for the goroutine it started before returning, so
	// taking it here waits for exactly that checkpoint.
	h.e.ckptMu.Lock()
	h.e.ckptMu.Unlock()
	if st := r.WALStats(); st.PendingRecords != 0 || st.Checkpoints != 2 || st.LastCheckpointSeq != 2 {
		t.Fatalf("after the threshold append: %+v, want nothing pending and a checkpoint stamped 2", st)
	}
	if seq, n := snapshotOnDisk(t, snapDir); seq != 2 || n != 4+len(big) {
		t.Fatalf("snapshot stamped %d with %d sessions, want 2 and %d", seq, n, 4+len(big))
	}
	if _, err := r.Append("fig", "P", []*ppd.Session{newSession(h.DB(), "Frank")}); err != nil {
		t.Fatal(err)
	}
	h.e.ckptMu.Lock()
	h.e.ckptMu.Unlock()
	if st := r.WALStats(); st.PendingRecords != 1 || st.Checkpoints != 2 {
		t.Fatalf("a small append after the checkpoint: %+v, want it pending", st)
	}
}

// TestCheckpointRacesAppends runs appends against forced checkpoints (under
// -race in CI). A checkpoint captures one version and writes it outside the
// entry's lock, so whatever the interleaving a snapshot stamped s must hold
// exactly the records up to s — one session each here — and a restart from
// the final state every acked batch once.
func TestCheckpointRacesAppends(t *testing.T) {
	r, _, walDir, snapDir := walGrown(t)
	h, err := r.Open("fig")
	if err != nil {
		t.Fatal(err)
	}
	db := h.DB()
	h.Close()
	const appends = 200
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < appends; i++ {
			if _, err := r.Append("fig", "P", []*ppd.Session{newSession(db, fmt.Sprintf("G%03d", i))}); err != nil {
				t.Errorf("append %d: %v", i, err)
				return
			}
		}
	}()
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	for running := true; running; {
		select {
		case <-done:
			running = false
		default:
		}
		if err := r.Checkpoint(); err != nil {
			t.Fatalf("checkpoint: %v", err)
		}
		if seq, n := snapshotOnDisk(t, snapDir); n != 3+int(seq) {
			t.Fatalf("snapshot stamped %d holds %d sessions, want %d", seq, n, 3+seq)
		}
	}
	if seq, _ := snapshotOnDisk(t, snapDir); seq != appends {
		t.Fatalf("final checkpoint stamped %d, want %d", seq, appends)
	}
	r2, l2 := restartCopy(t, walDir, snapDir)
	defer l2.Close()
	if keys := sessionKeys(t, r2); len(keys) != 3+appends {
		t.Fatalf("restart sees %d sessions, want %d", len(keys), 3+appends)
	}
}

// TestDeleteDuringCheckpoint deletes a snapshot-backed model, with no other
// handle open, while a checkpoint holds its captured version: the
// checkpoint's own reference must keep the mapped snapshot that version
// reads from until the new file is written.
func TestDeleteDuringCheckpoint(t *testing.T) {
	r0, l0, walDir, snapDir := walGrown(t)
	h, err := r0.Open("fig")
	if err != nil {
		t.Fatal(err)
	}
	eve := newSession(h.DB(), "Eve")
	h.Close()
	l0.Close()
	// The restarted model serves from the mapped snapshot.
	r, l := restart(t, diskState{walDir: walDir, snapDir: snapDir})
	defer l.Close()
	if _, err := r.Append("fig", "P", []*ppd.Session{eve}); err != nil {
		t.Fatal(err)
	}
	r.appendHook = func(stage string) {
		if stage == "captured" {
			if err := r.Delete("fig"); err != nil {
				t.Errorf("delete during checkpoint: %v", err)
			}
		}
	}
	if err := r.Checkpoint(); err != nil {
		t.Fatalf("checkpoint: %v", err)
	}
	if seq, n := snapshotOnDisk(t, snapDir); seq != 1 || n != 4 {
		t.Fatalf("snapshot stamped %d with %d sessions, want 1 and 4", seq, n)
	}
	if _, err := r.Open("fig"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("open after delete: %v, want ErrNotFound", err)
	}
}

// TestSnapshotErrorsSurfaceAndIngestSurvives is the regression test for the
// silent writeSnapshot failure: with an unwritable snapshot location every
// failed write must count (SnapshotErrors) and log, the ingest must still
// be acknowledged without trying the directory again, and — with the WAL
// holding the only durable copy — a restart must recover the acked batch
// from the log alone.
func TestSnapshotErrorsSurfaceAndIngestSurvives(t *testing.T) {
	walDir := filepath.Join(t.TempDir(), "wal")
	// A regular file where the snapshot directory should be: every write
	// under it fails with ENOTDIR, root or not.
	notADir := filepath.Join(t.TempDir(), "file")
	if err := os.WriteFile(notADir, []byte("x"), 0o644); err != nil {
		t.Fatal(err)
	}
	l, err := wal.Open(walDir, wal.Options{Sync: wal.SyncAlways})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	r := New()
	r.SetSnapshotDir(notADir)
	var logged []string
	r.SetLogf(func(format string, args ...any) {
		logged = append(logged, fmt.Sprintf(format, args...))
	})
	if err := r.SetWAL(l); err != nil {
		t.Fatal(err)
	}
	if err := r.Register(Spec{Name: "fig", Dataset: "figure1", Preload: true}); err != nil {
		t.Fatal(err)
	}
	if n := r.SnapshotErrors(); n != 1 {
		t.Fatalf("SnapshotErrors after failed build snapshot = %d, want 1", n)
	}
	h, err := r.Open("fig")
	if err != nil {
		t.Fatal(err)
	}
	db := h.DB()
	h.Close()
	total, err := r.Append("fig", "P", []*ppd.Session{newSession(db, "Eve")})
	if err != nil {
		t.Fatalf("append must still ack when only the snapshot fails: %v", err)
	}
	if total != 4 {
		t.Fatalf("append total = %d, want 4", total)
	}
	if n := r.SnapshotErrors(); n != 1 {
		t.Fatalf("SnapshotErrors after a logged append = %d, want 1 (the ack retried the directory)", n)
	}
	if err := r.Checkpoint(); err == nil {
		t.Fatal("Checkpoint with unwritable snapshot dir: want error")
	}
	if n := r.SnapshotErrors(); n != 2 {
		t.Fatalf("SnapshotErrors after failed checkpoint = %d, want 2", n)
	}
	if len(logged) != 2 || !strings.Contains(logged[0], "snapshot fig") {
		t.Fatalf("snapshot failures not logged: %q", logged)
	}
	if st := r.WALStats(); st.PendingRecords != 1 || st.Checkpoints != 0 {
		t.Fatalf("a failed checkpoint marked something durable: %+v", st)
	}

	// Recovery needs only the log: restart with a *writable* snapshot dir
	// and require the acked batch back.
	l.Close()
	st := diskState{walDir: walDir, snapDir: t.TempDir()}
	r2, l2 := restart(t, st)
	defer l2.Close()
	want := []string{"Ann", "Bob", "Dave", "Eve"}
	if got := sessionKeys(t, r2); fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("restart from WAL alone sees %v, want %v", got, want)
	}
	if r2.SnapshotErrors() != 0 {
		t.Fatalf("fresh registry inherited snapshot errors")
	}
}

// TestSetWALRejectsForeignLog guards the attach: a log holding records that
// do not decode to ingest batches is someone else's data (or corruption
// below the checksum's reach), and silently compacting it away later would
// destroy it.
func TestSetWALRejectsForeignLog(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "wal")
	l, err := wal.Open(dir, wal.Options{Sync: wal.SyncAlways})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	if _, err := l.Append([]byte("not an ingest batch")); err != nil {
		t.Fatal(err)
	}
	r := New()
	if err := r.SetWAL(l); err == nil {
		t.Fatal("SetWAL accepted a log of undecodable records")
	}
}

// TestReplayPoisonsBuildOnUndecodableRecord: a record that decodes at
// attach time but fails replay later (here: the model rejects the batch
// because the log belongs to a different model shape) must poison the
// build rather than serve a model missing acked data.
func TestReplayPoisonsBuildOnUndecodableRecord(t *testing.T) {
	walDir := filepath.Join(t.TempDir(), "wal")
	l, err := wal.Open(walDir, wal.Options{Sync: wal.SyncAlways})
	if err != nil {
		t.Fatal(err)
	}
	r := New()
	if err := r.SetWAL(l); err != nil {
		t.Fatal(err)
	}
	if err := r.Register(Spec{Name: "fig", Dataset: "figure1", Preload: true}); err != nil {
		t.Fatal(err)
	}
	h, err := r.Open("fig")
	if err != nil {
		t.Fatal(err)
	}
	db := h.DB()
	h.Close()
	if _, err := r.Append("fig", "P", []*ppd.Session{newSession(db, "Eve")}); err != nil {
		t.Fatal(err)
	}
	l.Close()

	// Restart the log under a model whose relation shapes don't match: the
	// record replays against "polls", whose P has a different key arity.
	l2, err := wal.Open(walDir, wal.Options{Sync: wal.SyncAlways})
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	r2 := New()
	if err := r2.SetWAL(l2); err != nil {
		t.Fatal(err)
	}
	if err := r2.Register(Spec{Name: "fig", Dataset: "polls", Voters: 5}); err != nil {
		t.Fatal(err)
	}
	if _, err := r2.Open("fig"); err == nil {
		t.Fatal("open served a model that failed to replay an acked batch")
	} else if errors.Is(err, ErrNotFound) || !strings.Contains(err.Error(), "wal record 1") {
		t.Fatalf("want the record at fault named, got: %v", err)
	}
}
