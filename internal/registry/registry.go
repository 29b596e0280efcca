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
	"os"
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
// Opens of the same cold model build it once. Lock order: ckptMu before
// buildMu.
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
	// logBytes counts the log payload bytes e.db holds beyond the version
	// the last checkpoint captured (replayed or appended), snapBytes is the
	// size of the model's last durable snapshot; a checkpoint is due when
	// the first reaches the second (see checkpointFloor). Guarded by buildMu.
	logBytes, snapBytes int64

	// ckptMu admits one checkpoint of the model at a time, so the wal_seq
	// stamps landing on disk only grow. Append hands it, locked, to the
	// goroutine it starts; whoever takes it afterwards has waited for that
	// checkpoint to finish.
	ckptMu sync.Mutex
}

// Registry is the concurrent catalog. The zero value is not usable; call
// New. All methods are safe for concurrent use.
type Registry struct {
	mu      sync.Mutex
	models  map[string]*entry
	snapDir string

	// walMu guards the attached write-ahead log, the pending map (model →
	// records acked but not yet durably snapshotted, in seq order) and the
	// checkpoint counters of WALStats. Lock ordering: r.mu and buildMu may
	// be held when taking walMu, never the reverse.
	walMu       sync.Mutex
	wal         *wal.Log
	walPending  map[string][]pendingRec
	checkpoints uint64
	lastCkptSeq uint64

	// snapErrs counts failed snapshot writes (snapshot_errors in /stats).
	snapErrs atomic.Uint64

	logMu sync.Mutex
	logf  func(format string, args ...any)

	// appendHook, when non-nil, is called at the named stages of Append
	// ("logged", "published") and of a checkpoint ("captured" with the
	// version in hand and nothing written yet, "renamed" with the snapshot in
	// place and nothing marked durable, "checkpointed"). Test-only: the
	// crash-injection harness copies the on-disk state at each stage to
	// simulate a kill there. Set before any concurrent use.
	appendHook func(stage string)
}

// New returns an empty catalog.
func New() *Registry {
	return &Registry{models: make(map[string]*entry)}
}

// SetSnapshotDir points the catalog at a .ppds snapshot directory (see
// internal/store). With a directory set, a model build first tries to mmap
// dir/<name>.ppds — cold-starting without running its generator — and
// every successful generator build writes the snapshot back (best-effort,
// atomically), so the directory behaves as a warm cache across daemon
// restarts. Session appends reach it through checkpoints: before every ack
// without a write-ahead log, behind the ack once enough log has piled up
// with one (see checkpointFloor). An empty dir disables snapshotting.
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
// partition snapshot, and serves the slice. A generator build of a whole
// model has no snapshot yet: buildLocked reports it, and the caller
// checkpoints once buildMu is released. The entry's buildMu must be held.
func (r *Registry) buildLocked(name string, e *entry) (needSnapshot bool) {
	defer func() { e.built = true }()
	part, parts := e.spec.Partition, e.spec.Partitions
	if path := r.snapshotPath(name); path != "" {
		if s, err := store.Open(path); err == nil {
			pi, pc, ok := s.Partition()
			if parts == 0 && !ok || parts > 0 && ok && pi == part && pc == parts {
				e.db, e.demo, e.closer = s.DB(), s.Demo(), s
				e.walSeq = s.WALSeq()
				e.snapBytes = fileSize(path)
				e.items, e.sessions = dbSize(e.db)
				r.replayWAL(name, e)
				return false
			}
			s.Close() // wrong slice for this spec
		}
	}
	var full *ppd.DB
	full, e.demo, e.buildErr = dataset.Build(e.spec.buildConfig())
	if e.buildErr != nil {
		e.buildErr = fmt.Errorf("registry: building model %q: %w", name, e.buildErr)
		return false
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
			return false
		}
	} else {
		e.db = full
	}
	r.replayWAL(name, e)
	e.items, e.sessions = dbSize(e.db)
	// The checkpoint runs after replay, so its stamp covers the replayed
	// batches and they become durably snapshotted in the same pass.
	return parts == 0 && e.buildErr == nil
}

// checkpointFloor is the least log a model accumulates before a checkpoint
// is due, so a model smaller than its own ingest traffic does not rewrite
// its snapshot every few batches. Above the floor the rule is the
// snapshot's own size: a checkpoint is due when the log bytes since the
// last durable snapshot reach that snapshot's bytes, which spaces
// checkpoints geometrically in the model's growth (a snapshot byte is
// rewritten a bounded number of times over the model's life, not once per
// append) and never lets a restart replay more log than it maps snapshot.
//
// The floor trades replay time against checkpoints per append; measured on
// the reference box with the harness's ingest shape (eight-session batches
// of 20-item sessions, 0.8 KiB of log each): replay runs at ~80 ms per MiB
// (BenchmarkReplayWAL: 1 000 batches, 0.8 MiB, 60-70 ms), an append costs
// ~0.06 ms beside a 0.19 ms fsync (BenchmarkRegistryAppend; wal.fsync.us),
// and a checkpoint of a model below the floor ~1 ms, mostly waiting for its
// own fsync (store.write.ms 0.99). At 256 KiB a restart replays at most
// ~20 ms of log — about what a recovery of the 16-voter model costs with
// nothing to replay (hardqd.recovery_ms 12-14) — and a checkpoint every
// ~320 appends adds ~1 % to what they cost. At 64 KiB the checkpoints would
// be 5 %, at 1 MiB the replay 85 ms.
const checkpointFloor = 256 << 10

// checkpoint persists the entry's current version: the one function through
// which a whole model's snapshot is written. It captures (db, demo, walSeq)
// under buildMu and writes after releasing it — database versions are
// immutable, so reads and appends go on against the entry while the file is
// assembled — then retires the log records the file covers (markDurable)
// and compacts the log behind them. A checkpoint that wrote no file (no
// snapshot directory) marks nothing durable: the log stays the only copy.
// A failed write is counted (snapshot_errors) and logged by writeSnapshot,
// marks nothing, and is not retried until another threshold's worth of log
// arrives (logBytes restarts at the capture either way) or the daemon
// drains. The caller holds e.ckptMu and a reference on the entry, so a
// Delete cannot unmap the snapshot the captured version still reads.
func (r *Registry) checkpoint(name string, e *entry) error {
	e.buildMu.Lock()
	ok := e.built && e.buildErr == nil && e.db != nil && e.spec.Partitions == 0
	db, demo, seq := e.db, e.demo, e.walSeq
	e.logBytes = 0
	e.buildMu.Unlock()
	if !ok {
		return nil
	}
	if r.appendHook != nil {
		r.appendHook("captured")
	}
	n, err := r.writeSnapshot(name, db, demo, seq)
	if err != nil || n == 0 {
		return err
	}
	if r.appendHook != nil {
		r.appendHook("renamed")
	}
	e.buildMu.Lock()
	e.snapBytes = n
	e.buildMu.Unlock()
	r.noteCheckpoint(name, seq)
	if r.appendHook != nil {
		r.appendHook("checkpointed")
	}
	return nil
}

// checkpointNow runs a checkpoint on the caller's goroutine, after any one
// already in flight for the model. The caller holds a reference on e.
func (r *Registry) checkpointNow(name string, e *entry) error {
	e.ckptMu.Lock()
	defer e.ckptMu.Unlock()
	return r.checkpoint(name, e)
}

// writeSnapshot persists a model snapshot when a snapshot directory is
// configured, stamped (when walSeq > 0) with the last write-ahead-log
// sequence the database includes, and returns the size of the file written
// (0 when there is no directory to write to). Serving or acking must not
// fail because the file cannot be written — with a WAL attached the acked
// batches are already durable, and without one the snapshot was always
// best-effort — so callers treat the error as advisory; it is counted
// (snapshot_errors in /stats) and logged here, never dropped silently.
func (r *Registry) writeSnapshot(name string, db *ppd.DB, demo string, walSeq uint64) (int64, error) {
	path := r.snapshotPath(name)
	if path == "" {
		return 0, nil
	}
	if err := store.WriteFileSeq(path, db, demo, walSeq); err != nil {
		r.noteSnapshotErr(name, err)
		return 0, err
	}
	return fileSize(path), nil
}

// fileSize returns the size of the file at path, 0 if it cannot be read.
func fileSize(path string) int64 {
	fi, err := os.Stat(path)
	if err != nil {
		return 0
	}
	return fi.Size()
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
		needSnapshot := r.buildLocked(spec.Name, e)
		e.buildMu.Unlock()
		if e.buildErr != nil {
			return e.buildErr
		}
		if needSnapshot {
			_ = r.checkpointNow(spec.Name, e) // advisory: counted and logged
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
	needSnapshot := false
	err := func() error {
		e.buildMu.Lock()
		defer e.buildMu.Unlock() // defer: a panicking builder must not wedge the entry
		if !e.built {
			needSnapshot = r.buildLocked(name, e)
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
	if needSnapshot {
		_ = r.checkpointNow(name, e) // advisory: counted and logged
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
// *before* the swap publishes it, and that is all the ack waits for: the
// snapshot lags the log by design, and a restart recovers the model as
// snapshot + replay. When the model's unsnapshotted log reaches the
// checkpoint threshold (checkpointFloor), Append starts a checkpoint on
// its own goroutine and returns without it. A failed log write rejects the
// append: nothing was published, nothing may be acked. Without a log the
// snapshot is the only persistence, so the checkpoint runs before Append
// returns and remains best-effort (its failure is counted and logged, not
// returned) — except on a partition model, whose partition file cannot
// describe a grown slice: with snapshots on and no log it refuses the append
// rather than ack sessions a restart would lose.
func (r *Registry) Append(name, pref string, sessions []*ppd.Session) (int, error) {
	h, err := r.Open(name) // holds a ref: a concurrent Delete cannot unload mid-append
	if err != nil {
		return 0, err
	}
	defer h.Close()
	e := h.e
	if e.spec.Partitions > 0 && r.walLog() == nil && r.snapshotPath(name) != "" {
		return 0, fmt.Errorf("registry: model %q is a partition: appending to it without a write-ahead log (-wal-dir) would not persist", name)
	}
	total, logged, err := r.appendLocked(name, e, pref, sessions)
	if err != nil {
		return 0, err
	}
	// Only whole models re-persist: a partition's growth lives in the log.
	if !logged && e.spec.Partitions == 0 {
		_ = r.checkpointNow(name, e) // advisory: counted and logged
	}
	return total, nil
}

// appendLocked is Append under the entry's buildMu: validate, log, swap,
// and — with a log — start the checkpoint that has come due. It reports
// the new session total and whether the batch went to a log.
func (r *Registry) appendLocked(name string, e *entry, pref string, sessions []*ppd.Session) (total int, logged bool, err error) {
	e.buildMu.Lock()
	defer e.buildMu.Unlock()
	// Validate by building the grown database first: a batch the model
	// rejects must never reach the log, or replay would fail on it forever.
	ndb, err := e.db.AppendSessions(pref, sessions)
	if err != nil {
		return 0, false, err
	}
	seq, n, err := r.logBatch(name, pref, sessions)
	if err != nil {
		return 0, false, err
	}
	if r.appendHook != nil {
		r.appendHook("logged")
	}
	e.db = ndb
	e.items, e.sessions = dbSize(ndb)
	if seq > 0 {
		e.walSeq = seq
		e.logBytes += int64(n)
	}
	if r.appendHook != nil {
		r.appendHook("published")
	}
	if e.spec.Partitions == 0 && e.logBytes >= max(e.snapBytes, checkpointFloor) && e.ckptMu.TryLock() {
		// The goroutine owns ckptMu and its own reference until it is done;
		// Registry.Checkpoint (the drain) waits for it on that mutex.
		r.mu.Lock()
		e.refs++
		r.mu.Unlock()
		go func() {
			defer r.release(e)
			defer e.ckptMu.Unlock()
			_ = r.checkpoint(name, e) // advisory: counted and logged
		}()
	}
	return e.sessions, seq > 0, nil
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
