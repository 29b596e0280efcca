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
// durable no matter what happens to the best-effort snapshot behind it.
// On the next start, buildLocked replays the log's records for each model
// over its snapshot; the wal_seq stamp inside the snapshot makes that
// idempotent (records at or below it are already included). Once a
// post-ingest snapshot lands durably the covered records are no longer
// needed and whole leading segments are deleted (compactWAL).

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
	pending := make(map[string][]uint64)
	for rec, err := range l.Replay() {
		if err != nil {
			return fmt.Errorf("registry: scanning wal: %w", err)
		}
		var wr walRecord
		if err := json.Unmarshal(rec.Payload, &wr); err != nil || wr.Model == "" {
			return fmt.Errorf("registry: wal record %d does not decode to an ingest batch", rec.Seq)
		}
		pending[wr.Model] = append(pending[wr.Model], rec.Seq)
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

// addPending marks seq as acknowledged but not yet durably snapshotted
// for the model. Seqs arrive in increasing order per model (Append holds
// the entry's buildMu across the log write).
func (r *Registry) addPending(model string, seq uint64) {
	r.walMu.Lock()
	defer r.walMu.Unlock()
	if r.wal != nil {
		r.walPending[model] = append(r.walPending[model], seq)
	}
}

// markDurable drops the model's pending seqs at or below upTo: a snapshot
// including them has landed durably (or replay found them inside the
// snapshot's stamp).
func (r *Registry) markDurable(model string, upTo uint64) {
	r.walMu.Lock()
	defer r.walMu.Unlock()
	r.dropPendingLocked(model, upTo)
}

func (r *Registry) dropPendingLocked(model string, upTo uint64) {
	p := r.walPending[model]
	i := 0
	for i < len(p) && p[i] <= upTo {
		i++
	}
	if i == len(p) {
		delete(r.walPending, model)
	} else if i > 0 {
		r.walPending[model] = p[i:]
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
		for _, seqs := range r.walPending {
			if len(seqs) > 0 && seqs[0]-1 < floor {
				floor = seqs[0] - 1
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
// apply order for the model. Returns the record's seq (0 with no log).
func (r *Registry) logBatch(name, pref string, sessions []*ppd.Session) (uint64, error) {
	l := r.walLog()
	if l == nil {
		return 0, nil
	}
	sj, err := ppd.SessionsJSON(sessions)
	if err != nil {
		return 0, fmt.Errorf("registry: model %q: batch not loggable: %w", name, err)
	}
	payload, err := json.Marshal(walRecord{Model: name, Pref: pref, Sessions: sj})
	if err != nil {
		return 0, fmt.Errorf("registry: model %q: encoding wal record: %w", name, err)
	}
	seq, err := l.Append(payload)
	if err != nil {
		return 0, fmt.Errorf("registry: model %q: wal append: %w", name, err)
	}
	r.addPending(name, seq)
	return seq, nil
}

// replayWAL applies the log's records for one model over its freshly
// built database. Records at or below the snapshot's wal_seq stamp
// (e.walSeq) are already included and only clear their pending mark;
// later records append in log order. The entry's buildMu must be held.
// Replay failures poison the build (e.buildErr): serving a model known to
// be missing acknowledged batches would silently break the durability
// contract.
func (r *Registry) replayWAL(name string, e *entry) {
	l := r.walLog()
	if l == nil {
		return
	}
	base := e.walSeq
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
		ndb, err := e.db.AppendSessions(wr.Pref, sessions)
		if err != nil {
			e.buildErr = fmt.Errorf("registry: model %q: replaying wal record %d: %w", name, rec.Seq, err)
			return
		}
		e.db = ndb
		e.walSeq = rec.Seq
	}
	e.items, e.sessions = dbSize(e.db)
}

// Checkpoint snapshots every built whole model that still has pending
// (acked but not durably snapshotted) log records, marks them durable,
// and compacts the log. This is the graceful-shutdown path of cmd/hardqd:
// after a clean checkpoint a restart replays nothing. Returns the first
// snapshot error; later models are still attempted.
func (r *Registry) Checkpoint() error {
	r.mu.Lock()
	entries := make(map[string]*entry, len(r.models))
	for name, e := range r.models {
		entries[name] = e
	}
	r.mu.Unlock()

	r.walMu.Lock()
	dirty := make([]string, 0, len(r.walPending))
	for model := range r.walPending {
		dirty = append(dirty, model)
	}
	r.walMu.Unlock()

	var firstErr error
	for _, name := range dirty {
		e, ok := entries[name]
		if !ok {
			continue // deleted since; dropModelPending already ran
		}
		e.buildMu.Lock()
		if e.built && e.buildErr == nil && e.db != nil && e.spec.Partitions == 0 {
			if err := r.writeSnapshot(name, e.db, e.demo, e.walSeq); err != nil {
				if firstErr == nil {
					firstErr = err
				}
			} else {
				r.markDurable(name, e.walSeq)
			}
		}
		e.buildMu.Unlock()
	}
	r.compactWAL()
	return firstErr
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
