package ppd

import (
	"context"
	"maps"
	"math"
	"reflect"
	"slices"
	"sync"
	"sync/atomic"

	"probpref/internal/label"
	"probpref/internal/pattern"
	"probpref/internal/rim"
)

// This file is the one grounding-and-grouping implementation of the
// package. Every query kind, through Engine.Do and through the service
// layer's Do and DoBatch, evaluates over a Grounded, and Explain reads the
// same one; nothing else walks a p-relation to ground a query. (Only the
// possible-world helpers keep their own walk: they need per-session
// matchers a Grounded does not carry.)
//
// A Grounded depends on the query and the sessions only — not on the
// method, the seed or the kind — so it is memoised per database version
// (see groundMemo) and a repeated query touches no session at all; after
// DB.AppendSessions the new version inherits the memo and grounds only the
// appended tail.

// LiveSession is one session whose grounded union is non-empty, with the
// inference group it belongs to.
type LiveSession struct {
	// Session is the live session.
	Session *Session
	// Group indexes the session's group in Grounded.Groups.
	Group int
}

// Group is one distinct inference request of a grounded query: a session
// model and the pattern union the query grounds to on every session of the
// group (the identical-request grouping of Section 6.4).
type Group struct {
	// Model is the session model shared by the group's sessions.
	Model rim.SessionModel
	// Union is the grounded union of the group's first session; the other
	// sessions of the group ground to a union with the same canonical key.
	Union pattern.Union

	// id holds the two method-independent parts of the group's GroupKey,
	// built once when the group is first seen.
	id groupID
}

// groupID identifies an inference request whatever method solves it: two
// sessions belong to one group exactly when their models rehash alike and
// their unions have the same canonical key. The two parts stay apart so
// that groups over one union — every group of a query that does not
// depend on the session — share a single union-key string.
type groupID struct {
	model string // Model.Rehash()
	union string // Union.Key()
}

func (id groupID) key(m Method) string {
	return m.String() + "|" + id.model + "||" + id.union
}

// Grounded is the result of grounding one UnionQuery over one database
// version and grouping its identical inference requests: the live sessions
// in p-relation order and the distinct (model, union) groups in first-seen
// order. Its exported fields are immutable once built and may be read
// concurrently; DB.Ground returns the same value to every caller repeating
// the query on the same version.
//
// A Grounded retains *Session values of the store it was built over and
// must not outlive the database version that returned it (or, for a
// snapshot-backed store, the mapping behind it). Beside the groups it keeps
// what evaluations derive from them alone: their solve-cache keys, top-k
// relaxations, and the exact probabilities resolved through a solve cache
// (probColumn), so a repeated query reads its answers off its grounding.
type Grounded struct {
	// Sessions is the session count of the queried p-relation, live or not.
	Sessions int
	// Live lists the sessions with a non-empty grounded union, in
	// p-relation order.
	Live []LiveSession
	// Groups lists the distinct inference requests in first-seen order.
	Groups []Group

	pref string // name of the queried p-relation

	// unionOf numbers each group's union among the grounding's distinct
	// union keys, in first-seen order; unionAt is each distinct union's
	// first group. A batch dedups groups of different groundings by union
	// first (see Engine.DoGrouped).
	unionOf []int32
	unionAt []int

	mu        sync.Mutex
	boundSets map[boundMode]*boundSet // top-k relaxations by bound mode, filled on demand
	keys      map[Method][]string     // solve-cache keys of Groups by method, filled on demand
	cols      []*probColumn           // exact group probabilities by (method, solve cache), filled on demand
}

// cacheKeys returns the solve-cache key of every group under method m,
// GroupKey(m, g.Model, g.Union) for g in Groups. Each key is built once per
// grounding, and an extension inherits the keys of the prefix it extends,
// so a repeated query looks its groups up without building a string. The
// returned slice is shared and must not be modified.
func (gr *Grounded) cacheKeys(m Method) []string {
	gr.mu.Lock()
	defer gr.mu.Unlock()
	keys := gr.keys[m]
	if len(keys) == len(gr.Groups) {
		return keys
	}
	for _, g := range gr.Groups[len(keys):] {
		keys = append(keys, g.id.key(m))
	}
	if gr.keys == nil {
		gr.keys = make(map[Method][]string)
	}
	gr.keys[m] = keys
	return keys
}

// maxColumns caps the probability columns one Grounded keeps: a service
// keeps one per method its clients ask for, and an engine whose cache has
// no room left resolves through its cache alone.
const maxColumns = 16

// probColumn holds the exact probabilities of a Grounded's groups under one
// method, as resolved through one solve cache: a warm query reads its
// groups off the column, without building a key or probing the cache. It
// stores what the cache stores, exact answers only, and a slot is filled
// when its group is solved or found in the cache. Slots are published
// atomically, so readers take no lock, and the column dies with its
// grounding.
type probColumn struct {
	m     Method
	cache SolveCache
	slots []atomic.Uint64 // ^math.Float64bits(p); 0 while unfilled
}

// get returns group gi's probability if its slot is filled.
func (c *probColumn) get(gi int) (float64, bool) {
	v := c.slots[gi].Load()
	return math.Float64frombits(^v), v != 0
}

// set fills group gi's slot. A probability whose bits are all ones (a NaN)
// reads as unfilled, so its group resolves through the cache instead.
func (c *probColumn) set(gi int, p float64) { c.slots[gi].Store(^math.Float64bits(p)) }

// column returns the probability column of gr's groups under method m and
// solve cache c, or nil when there is none: when c's value cannot be
// compared (engines are told apart by their cache, compared with ==), or
// when gr holds maxColumns others. Two engines over one database version
// share a column exactly when they share the method and the cache value.
func (gr *Grounded) column(m Method, c SolveCache) *probColumn {
	if !reflect.ValueOf(c).Comparable() {
		return nil
	}
	gr.mu.Lock()
	defer gr.mu.Unlock()
	for _, col := range gr.cols {
		if col.m == m && col.cache == c {
			return col
		}
	}
	if len(gr.cols) == maxColumns {
		return nil
	}
	col := &probColumn{m: m, cache: c, slots: make([]atomic.Uint64, len(gr.Groups))}
	gr.cols = append(gr.cols, col)
	return col
}

// maxBoundSets caps the distinct bound modes one Grounded keeps
// relaxations for. The bound-edge count comes from the request, so without
// a cap a client walking bound = 1, 2, 3, ... would grow an entry without
// limit; modes past the cap are relaxed per call.
const maxBoundSets = 4

// boundMode selects a boundSet: the bound-edge count, and whether groups
// whose union is all two-label are their own bound (see boundSet).
type boundMode struct {
	edges int
	own   bool
}

// boundSet holds the top-k upper-bound relaxations (Section 4.3.2) of a
// Grounded's groups for one bound mode: the distinct relaxed requests in
// first-seen order, and which of them bounds each group. Distinct groups
// often relax to the same request, so this is the set a top-k evaluation
// resolves before it ranks the sessions. In an own mode a group whose
// union is all two-label gets no relaxation (of -1): keeping the hardest
// edges of a one-edge pattern keeps the pattern, so such a group's exact
// probability is its bound. Immutable once built.
type boundSet struct {
	of      []int    // group index -> index into relaxed, or -1 for a group that is its own bound
	relaxed []Group  // Model, pattern.BoundUnion of the group's union, and its id
	keys    []string // relaxed[i]'s solve-cache key, under MethodBipartite
}

// bounds returns the relaxations of every group for the bound mode,
// relaxing the groups an inherited set does not cover yet.
func (gr *Grounded) bounds(mode boundMode, lab *label.Labeling) *boundSet {
	gr.mu.Lock()
	defer gr.mu.Unlock()
	bs, kept := gr.boundSets[mode]
	if kept && len(bs.of) == len(gr.Groups) {
		return bs
	}
	bs = bs.extend(gr.Groups, mode, lab)
	if kept || len(gr.boundSets) < maxBoundSets {
		if gr.boundSets == nil {
			gr.boundSets = make(map[boundMode]*boundSet)
		}
		gr.boundSets[mode] = bs
	}
	return bs
}

// extend returns a set covering all of groups, reusing prev (which covers
// a prefix of them, or is nil) without modifying it.
func (prev *boundSet) extend(groups []Group, mode boundMode, lab *label.Labeling) *boundSet {
	bs := &boundSet{of: make([]int, 0, len(groups))}
	index := make(map[groupID]int)
	if prev != nil {
		bs.of = append(bs.of, prev.of...)
		bs.relaxed = prev.relaxed[:len(prev.relaxed):len(prev.relaxed)]
		bs.keys = prev.keys[:len(prev.keys):len(prev.keys)]
		for bi, b := range prev.relaxed {
			index[b.id] = bi
		}
	}
	for _, g := range groups[len(bs.of):] {
		if mode.own && g.Union.AllTwoLabel() {
			bs.of = append(bs.of, -1)
			continue
		}
		bu := pattern.BoundUnion(g.Union, g.Model.Reference(), lab, mode.edges)
		id := groupID{model: g.id.model, union: bu.Key()}
		bi, ok := index[id]
		if !ok {
			bi = len(bs.relaxed)
			index[id] = bi
			bs.relaxed = append(bs.relaxed, Group{Model: g.Model, Union: bu, id: id})
			bs.keys = append(bs.keys, id.key(MethodBipartite))
		}
		bs.of = append(bs.of, bi)
	}
	return bs
}

// Ground returns the grounding of uq over this database version. The
// first call for a query grounds every session of the queried p-relation
// once; later calls with the same query return the memoised value without
// touching a session, and the first call after AppendSessions grounds only
// the appended sessions and extends a copy of the previous version's
// value. ctx aborts a grounding pass between sessions.
func (db *DB) Ground(ctx context.Context, uq *UnionQuery) (*Grounded, error) {
	key := uq.String()
	prev := db.memo.get(key)
	if prev != nil {
		// An inherited entry covers a prefix of the relation. One that
		// covers more than the relation holds was built before the
		// relation was replaced in place, and is of no use.
		if p := db.Prefs[prev.pref]; p == nil || p.Sessions.Len() < prev.Sessions {
			prev = nil
		} else if p.Sessions.Len() == prev.Sessions {
			return prev, nil
		}
	}
	gr, err := groundUnion(ctx, db, uq, prev)
	if err != nil {
		return nil, err
	}
	db.memo.put(key, gr)
	return gr, nil
}

// groundUnion grounds uq on the sessions prev does not cover yet (all of
// them when prev is nil) and returns the grounding of the whole relation;
// prev is not modified.
//
// A true union grounds every disjunct and merges the per-session unions
// into the single equivalent inference request (GroundMerged).
func groundUnion(ctx context.Context, db *DB, uq *UnionQuery, prev *Grounded) (*Grounded, error) {
	grounders, err := UnionGrounders(db, uq)
	if err != nil {
		return nil, err
	}
	pref := grounders[0].Pref()
	gr := &Grounded{Sessions: pref.Sessions.Len(), pref: pref.Name}
	from := 0
	// groupOf is rebuilt for an extension rather than kept: it is needed
	// once per query and append, and would otherwise be the largest
	// pointer-bearing part of every memo entry.
	groupOf := make(map[groupID]int)
	unionIdx := make(map[string]int32)
	if prev != nil {
		// Full slice expressions: the first append copies, so the arrays
		// prev's readers see are never written.
		from = prev.Sessions
		gr.Live = prev.Live[:len(prev.Live):len(prev.Live)]
		gr.Groups = prev.Groups[:len(prev.Groups):len(prev.Groups)]
		gr.unionOf = prev.unionOf[:len(prev.unionOf):len(prev.unionOf)]
		gr.unionAt = prev.unionAt[:len(prev.unionAt):len(prev.unionAt)]
		for gi, g := range prev.Groups {
			groupOf[g.id] = gi
		}
		for ui, gi := range prev.unionAt {
			unionIdx[prev.Groups[gi].id.union] = int32(ui)
		}
		prev.mu.Lock()
		gr.boundSets = maps.Clone(prev.boundSets)
		if prev.keys != nil {
			gr.keys = make(map[Method][]string, len(prev.keys))
		}
		for m, keys := range prev.keys {
			gr.keys[m] = keys[:len(keys):len(keys)]
		}
		prev.mu.Unlock()
	}
	// Sessions mostly ground to one of a few unions (all to one when the
	// query does not mention the session): a Grounder hands every session
	// of a signature the same union, and interns patterns, so unions of
	// equal content are equal pointer for pointer. The last few distinct
	// unions keep their slice and key, so neither is rebuilt nor kept per
	// session.
	var (
		recent [8]struct {
			u   pattern.Union
			key string
			ui  int32 // the union's index among the distinct unions
		}
		next int
	)
	for si, s := range RangeSessions(pref.Sessions, from, gr.Sessions).All() {
		if si&63 == 0 {
			if err := ctx.Err(); err != nil {
				return nil, context.Cause(ctx)
			}
		}
		u, err := GroundMerged(grounders, s)
		if err != nil {
			return nil, err
		}
		if len(u) == 0 {
			continue
		}
		ri := 0
		for ri < len(recent) && !slices.Equal(u, recent[ri].u) {
			ri++
		}
		if ri == len(recent) {
			ri, next = next, (next+1)%len(recent)
			recent[ri].u, recent[ri].key = u, u.Key()
			ui, seen := unionIdx[recent[ri].key]
			if !seen {
				// A union not seen before makes a new group, appended below.
				ui = int32(len(unionIdx))
				unionIdx[recent[ri].key] = ui
				gr.unionAt = append(gr.unionAt, len(gr.Groups))
			}
			recent[ri].ui = ui
		}
		id := groupID{model: s.Model.Rehash(), union: recent[ri].key}
		gi, known := groupOf[id]
		if !known {
			gi = len(gr.Groups)
			groupOf[id] = gi
			gr.Groups = append(gr.Groups, Group{Model: s.Model, Union: recent[ri].u, id: id})
			gr.unionOf = append(gr.unionOf, recent[ri].ui)
		}
		gr.Live = append(gr.Live, LiveSession{Session: s, Group: gi})
	}
	if prev != nil {
		// An extension carries over the filled slots of prev's columns, in
		// new arrays: prev's readers may still be filling them.
		prev.mu.Lock()
		for _, pc := range prev.cols {
			col := &probColumn{m: pc.m, cache: pc.cache, slots: make([]atomic.Uint64, len(gr.Groups))}
			for gi := range pc.slots {
				col.slots[gi].Store(pc.slots[gi].Load())
			}
			gr.cols = append(gr.cols, col)
		}
		prev.mu.Unlock()
	}
	return gr, nil
}

// groundMemoBudget bounds a database version's grounding memo, counted in
// live-session references rather than in entries: an entry's footprint is
// its Live slice and the sessions that slice keeps reachable, which for a
// snapshot-backed store are reconstructed copies of around a kilobyte
// each. 64 Ki references keep several hundred queries over a few hundred
// sessions, and nothing at all for a relation with more live sessions than
// that, whose every query grounds afresh as before.
const groundMemoBudget = 1 << 16

// memoCost is what an entry counts against the budget: its live-session
// references, plus a flat charge for the value itself so that queries no
// session is live for cannot pile up either (at most 4096 entries).
func memoCost(gr *Grounded) int { return len(gr.Live) + 16 }

// groundMemo is a database version's memo of Grounded values by canonical
// query text, least recently used entry evicted first. It is addressed by
// version, not by content: it lives on the DB, is dropped when relations
// are added, and is handed to the successor version by AppendSessions, so
// it needs no invalidation protocol and dies with the version. The zero
// value is ready to use.
type groundMemo struct {
	mu      sync.Mutex
	entries map[string]memoEntry
	refs    int    // sum of memoCost over entries, at most groundMemoBudget
	clock   uint64 // advances on every get and put; orders entries by use
}

type memoEntry struct {
	gr   *Grounded
	used uint64
}

func (m *groundMemo) get(key string) *Grounded {
	m.mu.Lock()
	defer m.mu.Unlock()
	e, ok := m.entries[key]
	if !ok {
		return nil
	}
	m.clock++
	e.used = m.clock
	m.entries[key] = e
	return e.gr
}

func (m *groundMemo) put(key string, gr *Grounded) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if old, ok := m.entries[key]; ok {
		m.refs -= memoCost(old.gr)
		delete(m.entries, key)
	}
	if memoCost(gr) > groundMemoBudget {
		return
	}
	if m.entries == nil {
		m.entries = make(map[string]memoEntry)
	}
	m.clock++
	m.entries[key] = memoEntry{gr: gr, used: m.clock}
	m.refs += memoCost(gr)
	for m.refs > groundMemoBudget {
		// A scan per eviction: only a put into a full memo evicts, and
		// there are at most a few thousand entries to scan.
		var oldest string
		least := ^uint64(0)
		for k, e := range m.entries {
			if e.used < least {
				oldest, least = k, e.used
			}
		}
		m.refs -= memoCost(m.entries[oldest].gr)
		delete(m.entries, oldest)
	}
}

// drop empties the memo; adding a relation changes what queries ground to.
func (m *groundMemo) drop() {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.entries, m.refs = nil, 0
}

// handTo copies the entries into the memo of a successor version. The
// Grounded values themselves are shared: each records how many sessions it
// covers, and DB.Ground extends a copy on the successor's first use.
func (m *groundMemo) handTo(next *groundMemo) {
	m.mu.Lock()
	defer m.mu.Unlock()
	next.entries, next.refs, next.clock = maps.Clone(m.entries), m.refs, m.clock
}
