package registry

import (
	"encoding/json"
	"fmt"

	"probpref/internal/ppd"
	"probpref/internal/wal"
)

// This file wires the write-ahead log of internal/wal into the catalog.
// With a log attached (SetWAL), every Append writes one record — the
// batch in the shared ppd.SessionJSON wire form — and syncs it *before*
// publishing the grown database, so the caller's acknowledgement is
// durable while the snapshot lags behind it. On the next start,
// buildLocked replays the log's records for each model over its snapshot;
// the wal_seq stamp inside the snapshot makes that idempotent (records at
// or below it are already included). Once a checkpoint lands a snapshot
// durably the covered records are no longer needed and whole leading
// segments are deleted (compactWAL).

// walRecord is the payload of one log record: one accepted ingest batch.
type walRecord struct {
	// Model is the catalog name the batch was appended to.
	Model string `json:"model"`
	// Pref is the p-relation within the model.
	Pref string `json:"pref"`
	// Sessions is the batch, in the shared session wire form.
	Sessions []ppd.SessionJSON `json:"sessions"`
}

// SetWAL attaches an opened log to the catalog and scans it to learn
// which records are not yet covered by a durable snapshot (every record
// still in the log is treated as pending until a snapshot proves
// otherwise — the stamp check happens at replay). Attach the log before
// registering models or serving traffic. A record that decodes to no
// model name is unexpected durable garbage and fails the attach: losing
// it must be an operator decision.
func (r *Registry) SetWAL(l *wal.Log) error {
	pending := make(map[string][]pendingRec)
	for rec, err := range l.Replay() {
		if err != nil {
			return fmt.Errorf("registry: scanning wal: %w", err)
		}
		var wr walRecord
		if err := json.Unmarshal(rec.Payload, &wr); err != nil || wr.Model == "" {
			return fmt.Errorf("registry: wal record %d does not decode to an ingest batch", rec.Seq)
		}
		pending[wr.Model] = append(pending[wr.Model], pendingRec{rec.Seq, len(rec.Payload)})
	}
	r.walMu.Lock()
	r.wal = l
	r.walPending = pending
	r.walMu.Unlock()
	return nil
}

// walLog returns the attached log, or nil.
func (r *Registry) walLog() *wal.Log {
	r.walMu.Lock()
	defer r.walMu.Unlock()
	return r.wal
}

// WALErr returns the attached log's sticky failure: non-nil once an fsync
// has failed, from when on every ingest is refused. nil without a log.
func (r *Registry) WALErr() error {
	if l := r.walLog(); l != nil {
		return l.Err()
	}
	return nil
}

// pendingRec is one log record acknowledged but not yet covered by a
// durable snapshot: its sequence number and payload size.
type pendingRec struct {
	seq   uint64
	bytes int
}

// WALStats is the log's account in /stats: how far the log has got, how
// much of it no durable snapshot covers yet, and how the checkpoints that
// retire it are doing.
type WALStats struct {
	// LastSeq is the sequence number of the last record appended.
	LastSeq uint64 `json:"last_seq"`
	// PendingRecords counts the records, over all models, that a restart
	// would replay: acknowledged, not yet inside a durable snapshot.
	PendingRecords int `json:"pending_records"`
	// PendingBytes sums their payload bytes.
	PendingBytes int64 `json:"pending_bytes"`
	// Checkpoints counts the snapshots checkpoints have written since
	// startup.
	Checkpoints uint64 `json:"checkpoints"`
	// LastCheckpointSeq is the highest wal_seq stamp among them.
	LastCheckpointSeq uint64 `json:"last_checkpoint_seq"`
	// Err is the log's sticky failure (wal.Log.Err), "" while it is healthy;
	// /healthz answers 503 with the same text.
	Err string `json:"err"`
}

// WALStats reports the attached log's account, nil without a log.
func (r *Registry) WALStats() *WALStats {
	r.walMu.Lock()
	defer r.walMu.Unlock()
	if r.wal == nil {
		return nil
	}
	st := &WALStats{LastSeq: r.wal.LastSeq(), Checkpoints: r.checkpoints, LastCheckpointSeq: r.lastCkptSeq}
	for _, recs := range r.walPending {
		st.PendingRecords += len(recs)
		for _, rec := range recs {
			st.PendingBytes += int64(rec.bytes)
		}
	}
	if err := r.wal.Err(); err != nil {
		st.Err = err.Error()
	}
	return st
}

// addPending marks a record as acknowledged but not yet durably
// snapshotted for the model. Seqs arrive in increasing order per model
// (Append holds the entry's buildMu across the log write).
func (r *Registry) addPending(model string, rec pendingRec) {
	r.walMu.Lock()
	defer r.walMu.Unlock()
	if r.wal != nil {
		r.walPending[model] = append(r.walPending[model], rec)
	}
}

// markDurable drops the model's pending records at or below upTo: a
// snapshot including them has landed durably (or replay found them inside
// the snapshot's stamp).
func (r *Registry) markDurable(model string, upTo uint64) {
	r.walMu.Lock()
	defer r.walMu.Unlock()
	p := r.walPending[model]
	i := 0
	for i < len(p) && p[i].seq <= upTo {
		i++
	}
	if i == len(p) {
		delete(r.walPending, model)
	} else if i > 0 {
		r.walPending[model] = p[i:]
	}
}

// noteCheckpoint records that a snapshot of model stamped seq has landed:
// it is counted, the records it covers stop being pending, and the log is
// compacted behind them.
func (r *Registry) noteCheckpoint(model string, seq uint64) {
	r.walMu.Lock()
	r.checkpoints++
	r.lastCkptSeq = max(r.lastCkptSeq, seq)
	r.walMu.Unlock()
	if seq > 0 {
		r.markDurable(model, seq)
		r.compactWAL()
	}
}

// dropModelPending forgets every pending seq of a deleted model: its
// records will never be replayed into the catalog again, so they must not
// pin the log. (The records themselves stay until compaction reaches
// them; re-registering the same name before then replays them — see the
// Delete doc.)
func (r *Registry) dropModelPending(model string) {
	r.walMu.Lock()
	delete(r.walPending, model)
	r.walMu.Unlock()
	r.compactWAL()
}

// compactWAL deletes leading log segments every record of which is
// durably covered: the floor is one below the lowest pending seq, or the
// log's last seq when nothing is pending. Best-effort — a failed deletion
// retries at the next compaction.
func (r *Registry) compactWAL() {
	r.walMu.Lock()
	l := r.wal
	floor := uint64(0)
	if l != nil {
		floor = l.LastSeq()
		for _, recs := range r.walPending {
			if len(recs) > 0 && recs[0].seq-1 < floor {
				floor = recs[0].seq - 1
			}
		}
	}
	r.walMu.Unlock()
	if l == nil || floor == 0 {
		return
	}
	if _, err := l.Compact(floor); err != nil {
		r.noteLog("registry: wal compaction: %v", err)
	}
}

// logBatch appends one ingest batch to the log and syncs it per the log's
// policy. Called under the entry's buildMu, which makes the log order the
// apply order for the model. Returns the record's seq (0 with no log) and
// payload size.
func (r *Registry) logBatch(name, pref string, sessions []*ppd.Session) (seq uint64, n int, err error) {
	l := r.walLog()
	if l == nil {
		return 0, 0, nil
	}
	sj, err := ppd.SessionsJSON(sessions)
	if err != nil {
		return 0, 0, fmt.Errorf("registry: model %q: batch not loggable: %w", name, err)
	}
	payload, err := json.Marshal(walRecord{Model: name, Pref: pref, Sessions: sj})
	if err != nil {
		return 0, 0, fmt.Errorf("registry: model %q: encoding wal record: %w", name, err)
	}
	seq, err = l.Append(payload)
	if err != nil {
		return 0, 0, fmt.Errorf("registry: model %q: wal append: %w", name, err)
	}
	r.addPending(name, pendingRec{seq, len(payload)})
	return seq, len(payload), nil
}

// replayWAL applies the log's records for one model over its freshly
// built database. Records at or below the snapshot's wal_seq stamp
// (e.walSeq) are already included and only clear their pending mark; later
// records append in log order, one AppendSessions per run of consecutive
// records of one p-relation, so a replay costs what it reads however many
// records it spans. The entry's buildMu must be held. Replay failures
// poison the build (e.buildErr): serving a model known to be missing
// acknowledged batches would silently break the durability contract.
func (r *Registry) replayWAL(name string, e *entry) {
	l := r.walLog()
	if l == nil {
		return
	}
	base := e.walSeq
	var run replayRun
	for rec, err := range l.Replay() {
		if err != nil {
			e.buildErr = fmt.Errorf("registry: model %q: wal replay: %w", name, err)
			return
		}
		var wr walRecord
		if err := json.Unmarshal(rec.Payload, &wr); err != nil || wr.Model == "" {
			e.buildErr = fmt.Errorf("registry: model %q: wal record %d does not decode", name, rec.Seq)
			return
		}
		if wr.Model != name {
			continue
		}
		if rec.Seq <= base {
			r.markDurable(name, rec.Seq)
			continue
		}
		sessions, err := ppd.ParseSessionsJSON(wr.Sessions)
		if err != nil {
			e.buildErr = fmt.Errorf("registry: model %q: wal record %d: %w", name, rec.Seq, err)
			return
		}
		if wr.Pref != run.pref {
			if e.buildErr = run.apply(name, e); e.buildErr != nil {
				return
			}
			run = replayRun{pref: wr.Pref}
		}
		run.seqs = append(run.seqs, rec.Seq)
		run.ends = append(run.ends, len(run.sessions)+len(sessions))
		run.sessions = append(run.sessions, sessions...)
		run.bytes += int64(len(rec.Payload))
	}
	e.buildErr = run.apply(name, e)
	e.items, e.sessions = dbSize(e.db)
}

// replayRun is a run of consecutive log records of one model and one
// p-relation, gathered for a single AppendSessions.
type replayRun struct {
	pref     string
	seqs     []uint64       // the records' sequence numbers
	ends     []int          // ends[i]: where record i's sessions end in sessions
	sessions []*ppd.Session // every record's sessions, in log order
	bytes    int64          // the records' payload bytes
}

// apply appends the run to the entry's database and advances e.walSeq to
// its last record. When the model refuses the run, the records are applied
// one at a time to name the one at fault; e.walSeq then stops at the record
// before it.
func (run *replayRun) apply(name string, e *entry) error {
	if len(run.seqs) == 0 {
		return nil
	}
	if ndb, err := e.db.AppendSessions(run.pref, run.sessions); err == nil {
		e.db, e.walSeq = ndb, run.seqs[len(run.seqs)-1]
		e.logBytes += run.bytes
		return nil
	}
	start := 0
	for i, seq := range run.seqs {
		ndb, err := e.db.AppendSessions(run.pref, run.sessions[start:run.ends[i]])
		if err != nil {
			return fmt.Errorf("registry: model %q: replaying wal record %d: %w", name, seq, err)
		}
		e.db, e.walSeq, start = ndb, seq, run.ends[i]
	}
	return nil
}

// Checkpoint brings every built whole model's snapshot up to its log: each
// model that still has pending (acked but not durably snapshotted) records
// is checkpointed — after the checkpoint an Append may have left in flight
// for it, which this call thereby waits for — and the log is compacted.
// This is the graceful-shutdown path of cmd/hardqd: after a clean
// Checkpoint a restart replays nothing, and no goroutine of the catalog
// touches the log again, so it can be closed. Returns the first snapshot
// error; later models are still attempted.
func (r *Registry) Checkpoint() error {
	r.mu.Lock()
	entries := make(map[string]*entry, len(r.models))
	for name, e := range r.models {
		e.refs++
		entries[name] = e
	}
	r.mu.Unlock()

	var firstErr error
	for name, e := range entries {
		e.ckptMu.Lock()
		if r.hasPending(name) {
			if err := r.checkpoint(name, e); err != nil && firstErr == nil {
				firstErr = err
			}
		}
		e.ckptMu.Unlock()
		r.release(e)
	}
	r.compactWAL()
	return firstErr
}

// hasPending reports whether the model has log records no durable snapshot
// covers.
func (r *Registry) hasPending(model string) bool {
	r.walMu.Lock()
	defer r.walMu.Unlock()
	return len(r.walPending[model]) > 0
}

// SnapshotErrors reports how many snapshot writes have failed since the
// catalog was created (surfaced as snapshot_errors in /stats).
func (r *Registry) SnapshotErrors() uint64 {
	return r.snapErrs.Load()
}

// SetLogf directs the catalog's operational warnings (failed snapshot
// writes, failed compactions) to logf; nil silences them.
func (r *Registry) SetLogf(logf func(format string, args ...any)) {
	r.logMu.Lock()
	r.logf = logf
	r.logMu.Unlock()
}

// noteLog emits one operational warning through the configured logger.
func (r *Registry) noteLog(format string, args ...any) {
	r.logMu.Lock()
	logf := r.logf
	r.logMu.Unlock()
	if logf != nil {
		logf(format, args...)
	}
}
