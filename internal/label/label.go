// Package label defines labels — values of item attributes — and labeling
// functions that associate each item with a finite set of labels. Patterns
// (package pattern) state preferences among labels; query evaluation derives
// the labeling function from the ordinary relations of a RIM-PPD.
//
// Labels are interned: each distinct label string (conventionally
// "attr=value") maps to a dense Label id through a Vocab, so that hot solver
// loops compare integers rather than strings.
package label

import (
	"fmt"
	"sort"
	"strconv"
	"sync"

	"probpref/internal/rank"
)

// Label is an interned label identifier.
type Label int32

// Vocab interns label strings. It is safe for concurrent use: grounding a
// query interns the labels of its constants, and one database (and with it
// one Vocab) serves concurrent queries.
type Vocab struct {
	mu     sync.RWMutex
	byName map[string]Label
	names  []string
}

// NewVocab returns an empty vocabulary.
func NewVocab() *Vocab {
	return &Vocab{byName: make(map[string]Label)}
}

// Intern returns the id of name, creating it if necessary.
func (v *Vocab) Intern(name string) Label {
	if id, ok := v.Lookup(name); ok {
		return id
	}
	v.mu.Lock()
	defer v.mu.Unlock()
	if id, ok := v.byName[name]; ok {
		return id
	}
	id := Label(len(v.names))
	v.byName[name] = id
	v.names = append(v.names, name)
	return id
}

// Lookup returns the id of name and whether it exists.
func (v *Vocab) Lookup(name string) (Label, bool) {
	v.mu.RLock()
	defer v.mu.RUnlock()
	id, ok := v.byName[name]
	return id, ok
}

// Name returns the string for a label id.
func (v *Vocab) Name(l Label) string {
	v.mu.RLock()
	defer v.mu.RUnlock()
	if int(l) < 0 || int(l) >= len(v.names) {
		return fmt.Sprintf("label#%d", int(l))
	}
	return v.names[l]
}

// Len returns the number of interned labels.
func (v *Vocab) Len() int {
	v.mu.RLock()
	defer v.mu.RUnlock()
	return len(v.names)
}

// Set is a sorted, duplicate-free set of labels.
type Set []Label

// NewSet builds a Set from the given labels.
func NewSet(labels ...Label) Set {
	s := make(Set, len(labels))
	copy(s, labels)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	out := s[:0]
	for i, l := range s {
		if i == 0 || l != s[i-1] {
			out = append(out, l)
		}
	}
	return out
}

// Contains reports whether l is in the set.
func (s Set) Contains(l Label) bool {
	for _, x := range s {
		if x == l {
			return true
		}
		if x > l {
			return false
		}
	}
	return false
}

// SubsetOf reports whether every label of s is in t.
func (s Set) SubsetOf(t Set) bool {
	i := 0
	for _, l := range s {
		for i < len(t) && t[i] < l {
			i++
		}
		if i >= len(t) || t[i] != l {
			return false
		}
	}
	return true
}

// Union returns the union of s and t.
func (s Set) Union(t Set) Set {
	out := make(Set, 0, len(s)+len(t))
	i, j := 0, 0
	for i < len(s) && j < len(t) {
		switch {
		case s[i] < t[j]:
			out = append(out, s[i])
			i++
		case s[i] > t[j]:
			out = append(out, t[j])
			j++
		default:
			out = append(out, s[i])
			i++
			j++
		}
	}
	out = append(out, s[i:]...)
	out = append(out, t[j:]...)
	return out
}

// Equal reports set equality.
func (s Set) Equal(t Set) bool {
	if len(s) != len(t) {
		return false
	}
	for i := range s {
		if s[i] != t[i] {
			return false
		}
	}
	return true
}

// Key returns a canonical string key for the set.
func (s Set) Key() string {
	b := make([]byte, 0, 8*len(s))
	for i, l := range s {
		if i > 0 {
			b = append(b, ',')
		}
		b = strconv.AppendInt(b, int64(l), 10)
	}
	return string(b)
}

// Labeling maps each item to its set of labels (the paper's lambda).
type Labeling struct {
	byItem map[rank.Item]Set
}

// NewLabeling returns an empty labeling function.
func NewLabeling() *Labeling {
	return &Labeling{byItem: make(map[rank.Item]Set)}
}

// Add attaches label l to item it.
func (lb *Labeling) Add(it rank.Item, l Label) {
	lb.byItem[it] = lb.byItem[it].Union(Set{l})
}

// AddAll attaches every label of s to item it.
func (lb *Labeling) AddAll(it rank.Item, s Set) {
	lb.byItem[it] = lb.byItem[it].Union(s)
}

// Of returns the label set of item it (nil when unlabeled).
func (lb *Labeling) Of(it rank.Item) Set { return lb.byItem[it] }

// Has reports whether item it carries label l.
func (lb *Labeling) Has(it rank.Item, l Label) bool { return lb.byItem[it].Contains(l) }

// HasAll reports whether item it carries every label of s. An empty s is
// satisfied by every item.
func (lb *Labeling) HasAll(it rank.Item, s Set) bool { return s.SubsetOf(lb.byItem[it]) }

// ItemsWith returns, in ascending item order, the items carrying every label
// of s among items 0..m-1.
func (lb *Labeling) ItemsWith(s Set, m int) []rank.Item {
	var out []rank.Item
	for i := 0; i < m; i++ {
		if lb.HasAll(rank.Item(i), s) {
			out = append(out, rank.Item(i))
		}
	}
	return out
}

// ItemsWithLabel returns the items carrying label l among items 0..m-1.
func (lb *Labeling) ItemsWithLabel(l Label, m int) []rank.Item {
	return lb.ItemsWith(Set{l}, m)
}
