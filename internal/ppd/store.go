package ppd

import (
	"fmt"
	"iter"
	"slices"
)

// SessionStore is the session-source seam between the query engine and
// storage: a read-only, indexable collection of preference sessions. The
// engine, the explain/analytics paths and the batched solver lanes iterate
// sessions exclusively through this interface, so a p-relation can be
// served equally by the RAM-built slices of the dataset generators
// (SessionSlice), by an mmap-backed columnar snapshot (internal/store),
// or by a snapshot with an ingested in-memory tail (ConcatSessions) —
// and, later, by a shard holding only a partition of the sessions.
//
// Implementations must be safe for concurrent readers and must return
// sessions that stay valid for the lifetime of the store (callers retain
// *Session values in results, e.g. SessionProb).
type SessionStore interface {
	// Len returns the number of sessions.
	Len() int
	// At returns session i (0 <= i < Len). Implementations may construct
	// the session lazily; two calls with the same index return equal (not
	// necessarily identical) sessions.
	At(i int) *Session
	// All iterates the sessions in index order.
	All() iter.Seq2[int, *Session]
}

// SessionSlice is the RAM-backed SessionStore: a plain slice of sessions.
// It is the store type the dataset generators and the JSON loaders build.
type SessionSlice []*Session

// Len returns the number of sessions.
func (ss SessionSlice) Len() int { return len(ss) }

// At returns session i.
func (ss SessionSlice) At(i int) *Session { return ss[i] }

// All iterates the sessions in index order.
func (ss SessionSlice) All() iter.Seq2[int, *Session] {
	return func(yield func(int, *Session) bool) {
		for i, s := range ss {
			if !yield(i, s) {
				return
			}
		}
	}
}

// ConcatSessions returns a store listing base's sessions followed by tail's.
// It is the representation of streaming ingest over an immutable snapshot:
// the (possibly mmap-backed) base stays untouched while appended sessions
// live in a RAM tail, and the combined store is itself immutable, so
// handles on the old store never observe the new sessions.
//
// Repeated appends do not nest: when base is itself a concat store over a
// RAM tail, the result layers one joined tail over base's own base, so a
// relation grown by any number of appends stays two levels deep and At
// stays O(1). The joined tail is a fresh copy — appending into the old
// tail's backing array would let two stores grown from one base overwrite
// each other's sessions.
func ConcatSessions(base SessionStore, tail SessionStore) SessionStore {
	if base == nil || base.Len() == 0 {
		if tail == nil {
			return SessionSlice(nil)
		}
		return tail
	}
	if tail == nil || tail.Len() == 0 {
		return base
	}
	if c, ok := base.(*concatStore); ok {
		old, oldInRAM := c.tail.(SessionSlice)
		add, addInRAM := tail.(SessionSlice)
		if oldInRAM && addInRAM {
			return &concatStore{base: c.base, tail: slices.Concat(old, add), split: c.split}
		}
	}
	return &concatStore{base: base, tail: tail, split: base.Len()}
}

// concatStore is the immutable two-part store built by ConcatSessions.
type concatStore struct {
	base, tail SessionStore
	split      int
}

func (c *concatStore) Len() int { return c.split + c.tail.Len() }

func (c *concatStore) At(i int) *Session {
	if i < c.split {
		return c.base.At(i)
	}
	return c.tail.At(i - c.split)
}

func (c *concatStore) All() iter.Seq2[int, *Session] {
	return func(yield func(int, *Session) bool) {
		for i, s := range c.base.All() {
			if !yield(i, s) {
				return
			}
		}
		for i, s := range c.tail.All() {
			if !yield(c.split+i, s) {
				return
			}
		}
	}
}

// AppendSessions returns a new database that shares db's relations, item
// catalog and labeling but has sessions appended to the p-relation named
// prefName. The receiver is not modified: in-flight queries holding db keep
// evaluating against the old session set while new queries open the
// returned database — this is the swap the registry performs under
// streaming ingest. The returned database inherits the receiver's grounding
// memo, so a query already answered on the receiver grounds only the
// appended sessions on its first run against the new version. Each appended
// session is validated like AddPrefRelation validates (key arity, model
// item count).
func (db *DB) AppendSessions(prefName string, sessions []*Session) (*DB, error) {
	p, ok := db.Prefs[prefName]
	if !ok {
		return nil, fmt.Errorf("ppd: unknown p-relation %q", prefName)
	}
	for i, s := range sessions {
		if len(s.Key) != len(p.SessionAttrs) {
			return nil, fmt.Errorf("ppd: appended session %d key %v arity mismatch in %q", i, s.Key, prefName)
		}
		if s.Model == nil {
			return nil, fmt.Errorf("ppd: appended session %d has no model", i)
		}
		if s.Model.M() != db.M() {
			return nil, fmt.Errorf("ppd: appended session %d model over %d items, catalog has %d", i, s.Model.M(), db.M())
		}
	}
	np := &PrefRelation{
		Name:         p.Name,
		SessionAttrs: p.SessionAttrs,
		Sessions:     ConcatSessions(p.Sessions, SessionSlice(sessions)),
	}
	ndb := &DB{
		ItemRelation: db.ItemRelation,
		Relations:    db.Relations,
		Prefs:        make(map[string]*PrefRelation, len(db.Prefs)),
		vocab:        db.vocab,
		labeling:     db.labeling,
		itemIDs:      db.itemIDs,
		itemKeys:     db.itemKeys,
	}
	for name, pr := range db.Prefs {
		ndb.Prefs[name] = pr
	}
	ndb.Prefs[prefName] = np
	db.memo.handTo(&ndb.memo)
	db.aggs.handTo(&ndb.aggs)
	return ndb, nil
}
