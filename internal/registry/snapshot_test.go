package registry

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"probpref/internal/ppd"
	"probpref/internal/store"
	"probpref/internal/wal"
)

// TestSnapshotWrittenOnBuild checks that a generator build persists a
// snapshot into the configured directory, atomically named <model>.ppds.
func TestSnapshotWrittenOnBuild(t *testing.T) {
	dir := t.TempDir()
	r := New()
	r.SetSnapshotDir(dir)
	if err := r.Register(Spec{Name: "fig", Dataset: "figure1"}); err != nil {
		t.Fatal(err)
	}
	h, err := r.Open("fig")
	if err != nil {
		t.Fatal(err)
	}
	defer h.Close()
	s, err := store.Open(filepath.Join(dir, "fig.ppds"))
	if err != nil {
		t.Fatalf("no snapshot after build: %v", err)
	}
	defer s.Close()
	if s.Sessions() != 3 || s.Demo() != h.DemoQuery() {
		t.Fatalf("snapshot has %d sessions, demo %q", s.Sessions(), s.Demo())
	}
}

// TestSnapshotRestore checks that a model cold-starts from its snapshot
// file instead of its generator: the snapshot is planted with a demo query
// the generator would never produce, and Open must surface it.
func TestSnapshotRestore(t *testing.T) {
	dir := t.TempDir()
	db, _, err := Build(Spec{Name: "x", Dataset: "figure1"})
	if err != nil {
		t.Fatal(err)
	}
	const marker = "P(_, _; Trump; Clinton)"
	if err := store.WriteFile(filepath.Join(dir, "fig.ppds"), db, marker); err != nil {
		t.Fatal(err)
	}

	r := New()
	r.SetSnapshotDir(dir)
	if err := r.Register(Spec{Name: "fig", Dataset: "figure1"}); err != nil {
		t.Fatal(err)
	}
	h, err := r.Open("fig")
	if err != nil {
		t.Fatal(err)
	}
	defer h.Close()
	if h.DemoQuery() != marker {
		t.Fatalf("demo %q: model was rebuilt, not restored from snapshot", h.DemoQuery())
	}
	if got := h.DB().Prefs["P"].Sessions.Len(); got != 3 {
		t.Fatalf("restored model has %d sessions, want 3", got)
	}
	// A corrupt snapshot must fall back to the generator, not fail the open.
	if err := r.Delete("fig"); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(filepath.Join(dir, "fig.ppds"))
	if err != nil {
		t.Fatal(err)
	}
	raw[41] ^= 0xFF // inside the section table, covered by the header CRC
	if err := os.WriteFile(filepath.Join(dir, "fig.ppds"), raw, 0o644); err != nil {
		t.Fatal(err)
	}
	if err := r.Register(Spec{Name: "fig", Dataset: "figure1"}); err != nil {
		t.Fatal(err)
	}
	h2, err := r.Open("fig")
	if err != nil {
		t.Fatalf("open with corrupt snapshot: %v", err)
	}
	defer h2.Close()
	if h2.DemoQuery() == marker {
		t.Fatal("corrupt snapshot was trusted")
	}
}

// appendSession builds one extra session compatible with figure1's P.
func appendSession(t *testing.T, db *ppd.DB) *ppd.Session {
	t.Helper()
	base := db.Prefs["P"].Sessions.At(0)
	return &ppd.Session{Key: []string{"Eve", "7/7"}, Model: base.Model}
}

// TestAppendSwapsWithoutDisturbingOpenHandles is the ingest contract: a
// handle opened before Append keeps its session count, a handle opened
// after sees the appended sessions, and the entry's Info tracks the growth.
func TestAppendSwapsWithoutDisturbingOpenHandles(t *testing.T) {
	r := New()
	if err := r.Register(Spec{Name: "fig", Dataset: "figure1"}); err != nil {
		t.Fatal(err)
	}
	before, err := r.Open("fig")
	if err != nil {
		t.Fatal(err)
	}
	defer before.Close()

	total, err := r.Append("fig", "P", []*ppd.Session{appendSession(t, before.DB())})
	if err != nil {
		t.Fatal(err)
	}
	if total != 4 {
		t.Fatalf("append reported %d sessions, want 4", total)
	}
	if got := before.DB().Prefs["P"].Sessions.Len(); got != 3 {
		t.Fatalf("pre-append handle sees %d sessions, want 3", got)
	}
	after, err := r.Open("fig")
	if err != nil {
		t.Fatal(err)
	}
	defer after.Close()
	if got := after.DB().Prefs["P"].Sessions.Len(); got != 4 {
		t.Fatalf("post-append handle sees %d sessions, want 4", got)
	}
	if got := after.DB().Prefs["P"].Sessions.At(3).Key[0]; got != "Eve" {
		t.Fatalf("appended session key %q, want Eve", got)
	}
	in, err := r.Lookup("fig")
	if err != nil {
		t.Fatal(err)
	}
	if in.Sessions != 4 {
		t.Fatalf("Info.Sessions = %d, want 4", in.Sessions)
	}
}

// TestAppendValidates checks the error paths: unknown model, unknown
// p-relation, mismatched session shape. None may alter the model.
func TestAppendValidates(t *testing.T) {
	r := New()
	if err := r.Register(Spec{Name: "fig", Dataset: "figure1"}); err != nil {
		t.Fatal(err)
	}
	h, err := r.Open("fig")
	if err != nil {
		t.Fatal(err)
	}
	defer h.Close()
	good := appendSession(t, h.DB())

	if _, err := r.Append("nope", "P", []*ppd.Session{good}); err == nil {
		t.Error("want error for unknown model")
	}
	if _, err := r.Append("fig", "nope", []*ppd.Session{good}); err == nil {
		t.Error("want error for unknown p-relation")
	}
	bad := &ppd.Session{Key: []string{"only-one"}, Model: good.Model}
	if _, err := r.Append("fig", "P", []*ppd.Session{bad}); err == nil {
		t.Error("want error for key arity mismatch")
	}
	in, err := r.Lookup("fig")
	if err != nil {
		t.Fatal(err)
	}
	if in.Sessions != 3 {
		t.Fatalf("failed appends changed the model: %d sessions", in.Sessions)
	}
}

// TestAppendPersistsThroughSnapshot checks that ingested sessions survive a
// restart when a snapshot directory is configured: a second registry over
// the same directory restores the grown model.
func TestAppendPersistsThroughSnapshot(t *testing.T) {
	dir := t.TempDir()
	r := New()
	r.SetSnapshotDir(dir)
	if err := r.Register(Spec{Name: "fig", Dataset: "figure1"}); err != nil {
		t.Fatal(err)
	}
	h, err := r.Open("fig")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.Append("fig", "P", []*ppd.Session{appendSession(t, h.DB())}); err != nil {
		t.Fatal(err)
	}
	h.Close()

	r2 := New()
	r2.SetSnapshotDir(dir)
	if err := r2.Register(Spec{Name: "fig", Dataset: "figure1"}); err != nil {
		t.Fatal(err)
	}
	h2, err := r2.Open("fig")
	if err != nil {
		t.Fatal(err)
	}
	defer h2.Close()
	if got := h2.DB().Prefs["P"].Sessions.Len(); got != 4 {
		t.Fatalf("restarted model has %d sessions, want 4 (ingest lost)", got)
	}
	if got := h2.DB().Prefs["P"].Sessions.At(3).Key[0]; got != "Eve" {
		t.Fatalf("restored appended session key %q, want Eve", got)
	}
}

// TestAppendRefusesUnloggedPartition checks that a partition model with
// snapshots on and no write-ahead log refuses an append, naming -wal-dir,
// instead of acking sessions its partition file cannot carry across a
// restart; with a log attached the same append is accepted.
func TestAppendRefusesUnloggedPartition(t *testing.T) {
	spec := Spec{Name: "fig--p0", Dataset: "figure1", Partition: 0, Partitions: 2}
	r := New()
	r.SetSnapshotDir(t.TempDir())
	if err := r.Register(spec); err != nil {
		t.Fatal(err)
	}
	h, err := r.Open(spec.Name)
	if err != nil {
		t.Fatal(err)
	}
	defer h.Close()
	before := h.DB().Prefs["P"].Sessions.Len()
	_, err = r.Append(spec.Name, "P", []*ppd.Session{appendSession(t, h.DB())})
	if err == nil || !strings.Contains(err.Error(), "-wal-dir") {
		t.Fatalf("append to an unlogged partition: err = %v, want a refusal naming -wal-dir", err)
	}
	if in, _ := r.Lookup(spec.Name); in.Sessions != before {
		t.Fatalf("refused append changed the model: %d sessions, want %d", in.Sessions, before)
	}

	logged := New()
	logged.SetSnapshotDir(t.TempDir())
	l, err := wal.Open(t.TempDir(), wal.Options{Sync: wal.SyncNever})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	if err := logged.SetWAL(l); err != nil {
		t.Fatal(err)
	}
	if err := logged.Register(spec); err != nil {
		t.Fatal(err)
	}
	if _, err := logged.Append(spec.Name, "P", []*ppd.Session{appendSession(t, h.DB())}); err != nil {
		t.Fatalf("append to a logged partition: %v", err)
	}
}
