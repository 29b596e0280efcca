package wal_test

import (
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"strings"
	"testing"

	"probpref/internal/ppd"
	"probpref/internal/registry"
	"probpref/internal/server"
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

// /healthz must stop answering ok once the log has failed closed: the
// daemon still serves reads, but it can no longer ingest, and a
// coordinator's prober trusts this probe.
func TestHealthzTurnsRedAfterFailedFsync(t *testing.T) {
	l, err := wal.Open(filepath.Join(t.TempDir(), "wal"), wal.Options{Sync: wal.SyncAlways})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	r := registry.New()
	if err := r.SetWAL(l); err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(server.NewMulti(r, server.Config{}).Handler())
	defer srv.Close()
	healthz := func() (int, string) {
		resp, err := srv.Client().Get(srv.URL + "/healthz")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return resp.StatusCode, string(body)
	}
	if code, body := healthz(); code != http.StatusOK || body != "ok\n" {
		t.Fatalf("healthz over a healthy log: %d %q", code, body)
	}

	eio := errors.New("injected EIO")
	wal.FailSyncs(t, 1, eio)
	if _, err := l.Append([]byte("lost")); !errors.Is(err, eio) {
		t.Fatalf("append over a failing fsync: err = %v, want the injected failure", err)
	}
	if err := l.Err(); !errors.Is(err, wal.ErrSyncFailed) || !errors.Is(err, eio) {
		t.Fatalf("Err after a failed fsync = %v, want the sticky failure", err)
	}
	if code, body := healthz(); code != http.StatusServiceUnavailable || !strings.Contains(body, eio.Error()) {
		t.Fatalf("healthz over a log that failed closed: %d %q, want 503 naming the cause", code, body)
	}
}
