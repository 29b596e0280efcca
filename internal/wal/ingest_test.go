package wal_test

import (
	"errors"
	"path/filepath"
	"testing"

	"probpref/internal/ppd"
	"probpref/internal/registry"
	"probpref/internal/wal"
)

// The ingest path over a log whose fsync fails: the registry must reject
// the batch without publishing it, and — the log having failed closed — must
// reject the next batch too, although fsync works again by then. The test
// lives here because the fsync seam is this package's.
func TestIngestOverFailedFsyncIsNeverPublished(t *testing.T) {
	l, err := wal.Open(filepath.Join(t.TempDir(), "wal"), wal.Options{Sync: wal.SyncAlways})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	r := registry.New()
	r.SetSnapshotDir(t.TempDir())
	if err := r.SetWAL(l); err != nil {
		t.Fatal(err)
	}
	if err := r.Register(registry.Spec{Name: "fig", Dataset: "figure1", Preload: true}); err != nil {
		t.Fatal(err)
	}
	// sessions returns the published P relation.
	sessions := func() ppd.SessionStore {
		h, err := r.Open("fig")
		if err != nil {
			t.Fatal(err)
		}
		defer h.Close()
		return h.DB().Prefs["P"].Sessions
	}
	model := sessions().At(0).Model
	batch := func(name string) []*ppd.Session {
		return []*ppd.Session{{Key: []string{name, "7/7"}, Model: model}}
	}
	if _, err := r.Append("fig", "P", batch("acked")); err != nil {
		t.Fatalf("ingest over a healthy log: %v", err)
	}
	before := sessions().Len()

	eio := errors.New("injected EIO")
	wal.FailSyncs(t, 1, eio)

	if _, err := r.Append("fig", "P", batch("lost")); !errors.Is(err, eio) {
		t.Fatalf("ingest over a failing fsync: err = %v, want the injected failure", err)
	}
	if got := sessions().Len(); got != before {
		t.Fatalf("unacknowledged batch was published: %d sessions, want %d", got, before)
	}
	if _, err := r.Append("fig", "P", batch("retry")); !errors.Is(err, wal.ErrSyncFailed) || !errors.Is(err, eio) {
		t.Fatalf("ingest after the log failed closed: err = %v, want the sticky fsync failure", err)
	}
	if got := sessions().Len(); got != before {
		t.Fatalf("batch published over a failed log: %d sessions, want %d", got, before)
	}
}
