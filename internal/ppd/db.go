// Package ppd implements the RIM-PPD: a probabilistic preference database
// combining ordinary relations (o-relations) with preference relations
// (p-relations) whose sessions carry Mallows/RIM models, as introduced by
// Kenig et al. and extended by the paper to hard queries.
//
// The package provides the data model, a datalog-style conjunctive query
// parser, the query classifier and grounding procedure (Algorithm 2,
// DecomposeQuery), and the evaluator for Boolean CQs, Count-Session and
// Most-Probable-Session queries, including the top-k upper-bound
// optimization and identical-request session grouping.
package ppd

import (
	"fmt"

	"probpref/internal/label"
	"probpref/internal/rank"
	"probpref/internal/rim"
)

// Relation is an ordinary relation with named attributes and string-valued
// tuples. The first attribute is the key.
type Relation struct {
	// Name is the relation name used in query atoms.
	Name string
	// Attrs names the attributes; the first is the key.
	Attrs []string
	// Tuples holds the rows, one string value per attribute.
	Tuples [][]string
}

// NewRelation validates attribute/tuple arity.
func NewRelation(name string, attrs []string, tuples [][]string) (*Relation, error) {
	for i, t := range tuples {
		if len(t) != len(attrs) {
			return nil, fmt.Errorf("ppd: relation %s tuple %d has %d values, want %d", name, i, len(t), len(attrs))
		}
	}
	return &Relation{Name: name, Attrs: attrs, Tuples: tuples}, nil
}

// AttrIndex returns the position of attribute a, or -1.
func (r *Relation) AttrIndex(a string) int {
	for i, x := range r.Attrs {
		if x == a {
			return i
		}
	}
	return -1
}

// Session is one preference session: a key (the values of the p-relation's
// session attributes) and its ranking distribution. Any RIM-backed model
// (Mallows, Generalized Mallows) can serve as the distribution; the exact
// solvers apply through its RIM materialization.
type Session struct {
	// Key holds the values of the p-relation's session attributes.
	Key []string
	// Model is the session's ranking distribution.
	Model rim.SessionModel
}

// PrefRelation is a preference relation: logically a set of tuples
// (session; left item; right item), represented intensionally by one ranking
// model per session.
type PrefRelation struct {
	// Name is the p-relation name used in preference atoms.
	Name string
	// SessionAttrs names the session attributes of the relation.
	SessionAttrs []string
	// Sessions holds the preference sessions. RAM-built relations use a
	// SessionSlice; snapshot-backed relations an mmap store
	// (internal/store); ingested relations a ConcatSessions of the two.
	Sessions SessionStore
}

// DB is a RIM-PPD instance. Relations and sessions must not be changed once
// the database is being queried, other than through the Add methods and
// AppendSessions (which returns a new version and leaves the receiver as it
// was): evaluation memoises groundings on the version it ran against.
type DB struct {
	// ItemRelation is the o-relation cataloguing the ranked items; its key
	// values identify items in preference models.
	ItemRelation *Relation
	// Relations holds every o-relation by name (including the item
	// relation).
	Relations map[string]*Relation
	// Prefs holds every p-relation by name.
	Prefs map[string]*PrefRelation

	vocab    *label.Vocab
	labeling *label.Labeling
	itemIDs  map[string]rank.Item
	itemKeys []string

	memo groundMemo // groundings by query, see DB.Ground
	aggs aggMemo    // aggregate value columns, see DB.aggValues
}

// NewDB builds a database around an item relation. Each item receives one
// label per attribute, of the form "attr=value"; the key attribute doubles
// as the item's identity label.
func NewDB(items *Relation) (*DB, error) {
	if items == nil || len(items.Attrs) == 0 {
		return nil, fmt.Errorf("ppd: item relation must have attributes")
	}
	db := &DB{
		ItemRelation: items,
		Relations:    map[string]*Relation{items.Name: items},
		Prefs:        make(map[string]*PrefRelation),
		vocab:        label.NewVocab(),
		labeling:     label.NewLabeling(),
		itemIDs:      make(map[string]rank.Item),
	}
	for _, t := range items.Tuples {
		key := t[0]
		if _, dup := db.itemIDs[key]; dup {
			return nil, fmt.Errorf("ppd: duplicate item key %q", key)
		}
		id := rank.Item(len(db.itemKeys))
		db.itemIDs[key] = id
		db.itemKeys = append(db.itemKeys, key)
		for ai, v := range t {
			db.labeling.Add(id, db.vocab.Intern(items.Attrs[ai]+"="+v))
		}
	}
	return db, nil
}

// AddRelation registers an additional o-relation.
func (db *DB) AddRelation(r *Relation) error {
	if _, dup := db.Relations[r.Name]; dup {
		return fmt.Errorf("ppd: relation %q already exists", r.Name)
	}
	db.Relations[r.Name] = r
	db.memo.drop()
	db.aggs.drop()
	return nil
}

// AddPrefRelation registers a p-relation. Every session model must range
// over exactly the items of the item relation.
func (db *DB) AddPrefRelation(p *PrefRelation) error {
	if p.Sessions == nil {
		p.Sessions = SessionSlice(nil)
	}
	for _, s := range p.Sessions.All() {
		if len(s.Key) != len(p.SessionAttrs) {
			return fmt.Errorf("ppd: session key %v arity mismatch in %q", s.Key, p.Name)
		}
		if s.Model.M() != db.M() {
			return fmt.Errorf("ppd: session model over %d items, catalog has %d", s.Model.M(), db.M())
		}
	}
	return db.AddPrefRelationUnchecked(p)
}

// AddPrefRelationUnchecked registers a p-relation without iterating its
// sessions for validation. It exists for snapshot loaders (internal/store)
// whose checksummed on-disk format already guarantees the per-session
// invariants — key arity and model item count — so that opening a large
// out-of-core store does not materialize every session up front.
func (db *DB) AddPrefRelationUnchecked(p *PrefRelation) error {
	if _, dup := db.Prefs[p.Name]; dup {
		return fmt.Errorf("ppd: p-relation %q already exists", p.Name)
	}
	if p.Sessions == nil {
		p.Sessions = SessionSlice(nil)
	}
	db.Prefs[p.Name] = p
	db.memo.drop()
	return nil
}

// M returns the number of items.
func (db *DB) M() int { return len(db.itemKeys) }

// Labeling returns the item labeling derived from the item relation.
func (db *DB) Labeling() *label.Labeling { return db.labeling }

// Vocab returns the label vocabulary.
func (db *DB) Vocab() *label.Vocab { return db.vocab }

// ItemID resolves an item key value.
func (db *DB) ItemID(key string) (rank.Item, bool) {
	id, ok := db.itemIDs[key]
	return id, ok
}

// ItemKey returns the key value of an item id.
func (db *DB) ItemKey(id rank.Item) string { return db.itemKeys[id] }

// LabelFor interns the label "attr=value".
func (db *DB) LabelFor(attr, value string) label.Label {
	return db.vocab.Intern(attr + "=" + value)
}
