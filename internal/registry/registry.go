// Package registry is the model catalog layer of the serving stack: a
// concurrent, named catalog of RIM-PPD models that one daemon serves
// simultaneously. Each model is either a dataset-backed Spec — built lazily
// (or eagerly, see Spec.Preload) from the generators of internal/dataset —
// or a pre-built database registered directly (RegisterDB). Queries open a
// model by name and hold a reference-counted Handle for their duration, so
// Delete can evict a model from the catalog immediately while in-flight
// queries finish against the old instance before its memory is released.
//
// The registry sits below internal/server: the Service routes each request
// to a named model and namespaces its solve-cache keys by that name, and
// cmd/hardqd populates the registry from a startup manifest file (see
// Manifest) or at runtime through the /models endpoints.
package registry

import (
	"errors"
	"fmt"
	"io"
	"path/filepath"
	"regexp"
	"sort"
	"sync"
	"sync/atomic"

	"probpref/internal/dataset"
	"probpref/internal/ppd"
	"probpref/internal/store"
	"probpref/internal/wal"
)

// Catalog errors. Callers branch on them with errors.Is; the HTTP layer
// maps ErrNotFound to 404 and ErrExists to 409.
var (
	// ErrNotFound reports an Open or Delete of a name the catalog does not
	// hold.
	ErrNotFound = errors.New("registry: model not found")
	// ErrExists reports a Register of a name already in the catalog.
	ErrExists = errors.New("registry: model already registered")
)

// nameRE restricts model names to URL-path-safe tokens so names can appear
// verbatim in /models/{name} routes and in cache-key namespaces.
var nameRE = regexp.MustCompile(`^[A-Za-z0-9._-]+$`)

// Spec describes one named, dataset-backed model: which generator of
// internal/dataset builds it and with which parameters. Fields irrelevant
// to the chosen dataset are ignored, zero-valued fields take the defaults
// of dataset.Build — what the commands build without the flag. A Spec is the unit of the startup manifest and of
// the POST /models body.
type Spec struct {
	// Name is the catalog name of the model (letters, digits, ".", "_",
	// "-").
	Name string `json:"name"`
	// Dataset names the builder: figure1 | polls | movielens | crowdrank.
	Dataset string `json:"dataset"`
	// Seed is the generator seed (default 1).
	Seed int64 `json:"seed,omitempty"`
	// Candidates is the polls candidate count.
	Candidates int `json:"candidates,omitempty"`
	// Voters is the polls voter count.
	Voters int `json:"voters,omitempty"`
	// Movies is the movielens catalog size (default 120) or the crowdrank
	// HIT size (default 20).
	Movies int `json:"movies,omitempty"`
	// Workers is the crowdrank worker count.
	Workers int `json:"workers,omitempty"`
	// Preload builds the model at registration time (manifest load,
	// POST /models) instead of on first use.
	Preload bool `json:"preload,omitempty"`
	// Partitions, when positive, restricts the model to one contiguous
	// session slice of the dataset: the sessions in
	// ppd.PartitionRange(n, Partition, Partitions) of each p-relation. This
	// is how a shard serves its share of a model — same dataset spec, a
	// different Partition per shard. 0 means the whole dataset.
	Partitions int `json:"partitions,omitempty"`
	// Partition is the slice index, 0 <= Partition < Partitions.
	Partition int `json:"partition,omitempty"`
}

// Validate checks the spec's name, dataset and generator parameters
// without building anything, so malformed specs fail at registration
// (manifest load, POST /models) instead of panicking inside a builder.
func (s Spec) Validate() error {
	if !nameRE.MatchString(s.Name) {
		return fmt.Errorf("registry: invalid model name %q (want letters, digits, '.', '_', '-')", s.Name)
	}
	if !dataset.Known(s.Dataset) {
		return fmt.Errorf("registry: model %q: unknown dataset %q (want one of %v)", s.Name, s.Dataset, dataset.Names())
	}
	for _, p := range []struct {
		name string
		v    int
	}{
		{"candidates", s.Candidates},
		{"voters", s.Voters},
		{"movies", s.Movies},
		{"workers", s.Workers},
	} {
		if p.v < 0 {
			return fmt.Errorf("registry: model %q: %s must be non-negative, got %d", s.Name, p.name, p.v)
		}
	}
	if s.Partitions < 0 {
		return fmt.Errorf("registry: model %q: partitions must be non-negative, got %d", s.Name, s.Partitions)
	}
	if s.Partitions == 0 && s.Partition != 0 {
		return fmt.Errorf("registry: model %q: partition %d set without partitions", s.Name, s.Partition)
	}
	if s.Partitions > 0 && (s.Partition < 0 || s.Partition >= s.Partitions) {
		return fmt.Errorf("registry: model %q: partition %d out of range [0,%d)", s.Name, s.Partition, s.Partitions)
	}
	return nil
}

// buildConfig translates the spec to the dataset dispatcher's config,
// applying the registry-wide default seed.
func (s Spec) buildConfig() dataset.BuildConfig {
	seed := s.Seed
	if seed == 0 {
		seed = 1
	}
	return dataset.BuildConfig{
		Name: s.Dataset, Seed: seed,
		Candidates: s.Candidates, Voters: s.Voters,
		Movies: s.Movies, Workers: s.Workers,
	}
}

// Build constructs the database described by spec and returns it with the
// dataset's demo query. It is the stateless builder behind lazy catalog
// loads, exposed for one-shot callers (probpref.OpenDataset, cmd/hardq
// -manifest) that need a dataset without a catalog.
func Build(spec Spec) (*ppd.DB, string, error) {
	if err := spec.Validate(); err != nil {
		return nil, "", err
	}
	return dataset.Build(spec.buildConfig())
}

// Info is one row of the catalog listing (GET /models): the model's spec
// summary plus its load state. Items and Sessions are reported only once
// the model is loaded — listing never forces a build.
type Info struct {
	// Name is the catalog name.
	Name string `json:"name"`
	// Dataset is the builder name, or "inline" for RegisterDB models.
	Dataset string `json:"dataset"`
	// Loaded reports whether the database is currently built and resident.
	Loaded bool `json:"loaded"`
	// Refs counts the open handles (in-flight queries) on the model.
	Refs int `json:"refs"`
	// Items is the item-domain size of a loaded model.
	Items int `json:"items,omitempty"`
	// Sessions is the total session count of a loaded model.
	Sessions int `json:"sessions,omitempty"`
}

// entry is one catalog slot. The registry mutex guards refs/removed and
// the map membership; buildMu serializes the lazy build so concurrent
// Opens of the same cold model build it once.
type entry struct {
	spec Spec

	refs    int
	removed bool

	buildMu  sync.Mutex
	built    bool
	buildErr error
	db       *ppd.DB
	demo     string
	items    int
	sessions int
	// closer releases the entry's backing snapshot (the mmap of an
	// internal/store Store) at unload. Append swaps e.db without touching
	// it: every post-append database layers a RAM tail over the same
	// mapping, so the mapping lives exactly as long as the entry.
	closer io.Closer
	// walSeq is the last write-ahead-log sequence whose batch e.db
	// includes: the snapshot's wal_seq stamp at build, advanced by replay
	// and by each logged Append. Guarded by buildMu.
	walSeq uint64
}

// Registry is the concurrent catalog. The zero value is not usable; call
// New. All methods are safe for concurrent use.
type Registry struct {
	mu      sync.Mutex
	models  map[string]*entry
	snapDir string

	// walMu guards the attached write-ahead log and the pending map
	// (model → sorted seqs acked but not yet durably snapshotted). Lock
	// ordering: r.mu and buildMu may be held when taking walMu, never the
	// reverse.
	walMu      sync.Mutex
	wal        *wal.Log
	walPending map[string][]uint64

	// snapErrs counts failed snapshot writes (snapshot_errors in /stats).
	snapErrs atomic.Uint64

	logMu sync.Mutex
	logf  func(format string, args ...any)

	// appendHook, when non-nil, is called at the named stages of Append
	// ("logged", "published", "snapshotted"). Test-only: the crash-injection
	// harness copies the on-disk state at each stage to simulate a kill
	// there. Set before any concurrent use.
	appendHook func(stage string)
}

// New returns an empty catalog.
func New() *Registry {
	return &Registry{models: make(map[string]*entry)}
}

// SetSnapshotDir points the catalog at a .ppds snapshot directory (see
// internal/store). With a directory set, a model build first tries to mmap
// dir/<name>.ppds — cold-starting without running its generator — and
// every successful generator build or session append writes the snapshot
// back (best-effort, atomically), so the directory behaves as a warm cache
// across daemon restarts. An empty dir disables snapshotting.
func (r *Registry) SetSnapshotDir(dir string) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.snapDir = dir
}

// snapshotPath returns the snapshot file for name, or "" when snapshotting
// is off.
func (r *Registry) snapshotPath(name string) string {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.snapDir == "" {
		return ""
	}
	return filepath.Join(r.snapDir, name+".ppds")
}

// buildLocked loads an entry's database — snapshot first, generator
// otherwise — and records the result. For a partitioned spec the snapshot
// must be a partition file of the matching slice (a stale or whole-model
// file under the same name is discarded and the generator rebuilds); a
// generator build constructs the full dataset, persists this slice's
// partition snapshot, and serves the slice. The entry's buildMu must be
// held.
func (r *Registry) buildLocked(name string, e *entry) {
	defer func() { e.built = true }()
	part, parts := e.spec.Partition, e.spec.Partitions
	if path := r.snapshotPath(name); path != "" {
		if s, err := store.Open(path); err == nil {
			pi, pc, ok := s.Partition()
			if parts == 0 && !ok || parts > 0 && ok && pi == part && pc == parts {
				e.db, e.demo, e.closer = s.DB(), s.Demo(), s
				e.walSeq = s.WALSeq()
				e.items, e.sessions = dbSize(e.db)
				r.replayWAL(name, e)
				return
			}
			s.Close() // wrong slice for this spec
		}
	}
	var full *ppd.DB
	full, e.demo, e.buildErr = dataset.Build(e.spec.buildConfig())
	if e.buildErr != nil {
		e.buildErr = fmt.Errorf("registry: building model %q: %w", name, e.buildErr)
		return
	}
	if parts > 0 {
		if path := r.snapshotPath(name); path != "" {
			if err := store.WritePartitionFile(path, full, e.demo, part, parts); err != nil {
				r.noteSnapshotErr(name, err)
			}
		}
		e.db, e.buildErr = ppd.PartitionDB(full, part, parts)
		if e.buildErr != nil {
			e.buildErr = fmt.Errorf("registry: partitioning model %q: %w", name, e.buildErr)
			return
		}
		r.replayWAL(name, e)
	} else {
		e.db = full
		r.replayWAL(name, e)
		if e.buildErr != nil {
			return
		}
		// Snapshot after replay, stamped with the covered seq, so the
		// replayed batches become durably snapshotted in the same pass.
		if err := r.writeSnapshot(name, e.db, e.demo, e.walSeq); err == nil && e.walSeq > 0 {
			r.markDurable(name, e.walSeq)
		}
	}
	e.items, e.sessions = dbSize(e.db)
}

// writeSnapshot persists a model snapshot when a snapshot directory is
// configured, stamped (when walSeq > 0) with the last write-ahead-log
// sequence the database includes. Serving or acking must not fail because
// the cache file cannot be written — with a WAL attached the acked
// batches are already durable, and without one the snapshot was always
// best-effort — so callers treat the error as advisory; it is counted
// (snapshot_errors in /stats) and logged here, never dropped silently.
func (r *Registry) writeSnapshot(name string, db *ppd.DB, demo string, walSeq uint64) error {
	path := r.snapshotPath(name)
	if path == "" {
		return nil
	}
	err := store.WriteFileSeq(path, db, demo, walSeq)
	if err != nil {
		r.noteSnapshotErr(name, err)
	}
	return err
}

// noteSnapshotErr counts and logs one failed snapshot write.
func (r *Registry) noteSnapshotErr(name string, err error) {
	r.snapErrs.Add(1)
	r.noteLog("registry: snapshot %s: %v", name, err)
}

// Register adds a dataset-backed model to the catalog. The database is
// built lazily on first Open unless spec.Preload is set, in which case
// Register builds it *before* touching the catalog — a failing preload
// build registers nothing, and the half-built model is never observable
// (nor can a rollback race with a concurrent re-registration of the name).
func (r *Registry) Register(spec Spec) error {
	if err := spec.Validate(); err != nil {
		return err
	}
	e := &entry{spec: spec}
	if spec.Preload {
		e.buildMu.Lock()
		r.buildLocked(spec.Name, e)
		e.buildMu.Unlock()
		if e.buildErr != nil {
			return e.buildErr
		}
	}
	if err := r.add(spec.Name, e); err != nil {
		if e.closer != nil {
			e.closer.Close()
		}
		return err
	}
	return nil
}

// RegisterDB adds a pre-built database under name; its Info reports
// dataset "inline". The db must not be mutated after registration. The
// demoQuery (may be empty) is surfaced through Handle.DemoQuery.
func (r *Registry) RegisterDB(name string, db *ppd.DB, demoQuery string) error {
	if !nameRE.MatchString(name) {
		return fmt.Errorf("registry: invalid model name %q (want letters, digits, '.', '_', '-')", name)
	}
	if db == nil {
		return fmt.Errorf("registry: model %q: nil database", name)
	}
	e := &entry{spec: Spec{Name: name, Dataset: "inline"}, built: true, db: db, demo: demoQuery}
	e.items, e.sessions = dbSize(db)
	return r.add(name, e)
}

func (r *Registry) add(name string, e *entry) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, ok := r.models[name]; ok {
		return fmt.Errorf("%w: %q", ErrExists, name)
	}
	r.models[name] = e
	return nil
}

// Open resolves name and returns a reference-counted handle on the model,
// building the database first if this is a cold dataset-backed model.
// Callers must Close the handle when their query finishes; until then the
// model's database stays resident even if the model is deleted from the
// catalog.
func (r *Registry) Open(name string) (*Handle, error) {
	r.mu.Lock()
	e, ok := r.models[name]
	if !ok {
		r.mu.Unlock()
		return nil, fmt.Errorf("%w: %q", ErrNotFound, name)
	}
	e.refs++
	r.mu.Unlock()

	var db *ppd.DB
	var demo string
	err := func() error {
		e.buildMu.Lock()
		defer e.buildMu.Unlock() // defer: a panicking builder must not wedge the entry
		if !e.built {
			r.buildLocked(name, e)
		}
		if e.buildErr == nil {
			// Capture under buildMu: Append swaps e.db for later opens, and
			// this handle must keep answering on the version it opened.
			db, demo = e.db, e.demo
		}
		return e.buildErr
	}()
	if err != nil {
		r.release(e)
		return nil, err
	}
	return &Handle{r: r, e: e, name: name, db: db, demo: demo}, nil
}

// Delete evicts name from the catalog: subsequent Opens fail with
// ErrNotFound immediately, while handles already open keep working until
// closed — only when the last one closes is the database released. A
// model with no open handles is released synchronously. The model's
// pending write-ahead-log records stop pinning the log, but the records
// themselves stay until compaction reaches them: re-registering the same
// name before then replays them into the new model.
func (r *Registry) Delete(name string) error {
	r.mu.Lock()
	e, ok := r.models[name]
	if !ok {
		r.mu.Unlock()
		return fmt.Errorf("%w: %q", ErrNotFound, name)
	}
	delete(r.models, name)
	e.removed = true
	if e.refs == 0 {
		unload(e)
	}
	r.mu.Unlock()
	r.dropModelPending(name)
	return nil
}

// release drops one reference and unloads a deleted model when the last
// in-flight query finishes.
func (r *Registry) release(e *entry) {
	r.mu.Lock()
	defer r.mu.Unlock()
	e.refs--
	if e.removed && e.refs == 0 {
		unload(e)
	}
}

// unload frees the built database of a removed entry. Called with the
// registry mutex held and zero refs, so no handle can observe it (and no
// session of a snapshot-backed database can outlive its mapping).
func unload(e *entry) {
	if e.closer != nil {
		e.closer.Close()
		e.closer = nil
	}
	e.db = nil
	e.built = false
	e.buildErr = nil
}

// Append appends sessions to the p-relation pref of the named model and
// returns the model's new total session count. The append is a swap, not a
// mutation: a new database layering the appended sessions over the current
// one replaces the entry's database, handles opened before the append keep
// answering on the version they captured, and handles opened after see the
// new sessions.
//
// With a write-ahead log attached (SetWAL) the batch is logged and synced
// *before* the swap publishes it, so by the time the caller can
// acknowledge the ingest it is durable; the snapshot rewrite behind it is
// then an optimization that lets replay — and eventually compaction —
// skip the batch. Without a log the snapshot rewrite is the only
// persistence and remains best-effort (its failure is counted and logged,
// not returned). A failed log write rejects the append: nothing was
// published, nothing may be acked.
func (r *Registry) Append(name, pref string, sessions []*ppd.Session) (int, error) {
	h, err := r.Open(name) // holds a ref: a concurrent Delete cannot unload mid-append
	if err != nil {
		return 0, err
	}
	defer h.Close()
	e := h.e
	e.buildMu.Lock()
	defer e.buildMu.Unlock()
	// Validate by building the grown database first: a batch the model
	// rejects must never reach the log, or replay would fail on it forever.
	ndb, err := e.db.AppendSessions(pref, sessions)
	if err != nil {
		return 0, err
	}
	seq, err := r.logBatch(name, pref, sessions)
	if err != nil {
		return 0, err
	}
	if r.appendHook != nil {
		r.appendHook("logged")
	}
	e.db = ndb
	if seq > 0 {
		e.walSeq = seq
	}
	e.items, e.sessions = dbSize(ndb)
	if r.appendHook != nil {
		r.appendHook("published")
	}
	// A partitioned entry serves a slice; persisting it with WriteFile would
	// produce a whole-model snapshot that misdescribes the slice (and would
	// be discarded on restart anyway), so only whole models re-persist.
	if e.spec.Partitions == 0 {
		if err := r.writeSnapshot(name, ndb, e.demo, e.walSeq); err == nil && seq > 0 {
			r.markDurable(name, seq)
			r.compactWAL()
		}
	}
	if r.appendHook != nil {
		r.appendHook("snapshotted")
	}
	return e.sessions, nil
}

// List snapshots the catalog sorted by name.
func (r *Registry) List() []Info {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]Info, 0, len(r.models))
	for name, e := range r.models {
		out = append(out, r.infoLocked(name, e))
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// Lookup returns the catalog row for one model.
func (r *Registry) Lookup(name string) (Info, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	e, ok := r.models[name]
	if !ok {
		return Info{}, fmt.Errorf("%w: %q", ErrNotFound, name)
	}
	return r.infoLocked(name, e), nil
}

// infoLocked snapshots one entry; the registry mutex must be held. The
// loaded fields race benignly with a concurrent first build (buildMu is
// deliberately not taken — listing must never block behind a slow build),
// so a model mid-build may briefly report Loaded=false.
func (r *Registry) infoLocked(name string, e *entry) Info {
	in := Info{Name: name, Dataset: e.spec.Dataset, Refs: e.refs}
	if e.buildMu.TryLock() {
		if e.built && e.buildErr == nil {
			in.Loaded = true
			in.Items = e.items
			in.Sessions = e.sessions
		}
		e.buildMu.Unlock()
	}
	return in
}

// Len returns the number of cataloged models.
func (r *Registry) Len() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.models)
}

// Names returns the sorted catalog names.
func (r *Registry) Names() []string {
	infos := r.List()
	out := make([]string, len(infos))
	for i, in := range infos {
		out[i] = in.Name
	}
	return out
}

// Handle is an open, reference-counted view of one model. It is valid
// until Close; Close is idempotent and safe for concurrent use with the
// accessor methods of other handles (but a single Handle must not be used
// concurrently with its own Close).
type Handle struct {
	r    *Registry
	e    *entry
	name string
	db   *ppd.DB
	demo string

	closeOnce sync.Once
}

// Name returns the catalog name the handle was opened under.
func (h *Handle) Name() string { return h.name }

// DB returns the model's database as of the moment the handle was opened:
// a concurrent Append swaps the entry's database for later opens but never
// changes what an open handle sees. The returned DB must not be used after
// Close.
func (h *Handle) DB() *ppd.DB { return h.db }

// DemoQuery returns the dataset's demo query ("" for inline models).
func (h *Handle) DemoQuery() string { return h.demo }

// Close drops the handle's reference; when the model has been deleted and
// this was the last reference, the database is released.
func (h *Handle) Close() {
	h.closeOnce.Do(func() { h.r.release(h.e) })
}

// dbSize computes the Info size fields of a built database.
func dbSize(db *ppd.DB) (items, sessions int) {
	for _, p := range db.Prefs {
		sessions += p.Sessions.Len()
	}
	return db.M(), sessions
}
