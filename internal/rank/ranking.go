// Package rank provides the ranking substrate used throughout probpref:
// permutations (rankings), sub-rankings, partial orders over items, the
// Kendall tau distance, and the insertion algebra that underlies the
// Repeated Insertion Model.
//
// Items are dense integer identifiers. A Ranking places items at 0-based
// positions; position 0 is the highest (most preferred) rank. The paper uses
// 1-based positions; all formulas are translated accordingly.
package rank

import (
	"fmt"
	"strconv"
	"strings"
)

// Item identifies an item. Items are small non-negative integers assigned by
// the caller (typically indices into an item catalog).
type Item int

// Ranking is a linear order of items: Ranking[p] is the item at position p,
// with position 0 being the most preferred. A Ranking over a subset of the
// item universe is called a sub-ranking; the type is the same and all methods
// apply.
type Ranking []Item

// Identity returns the ranking <0, 1, ..., m-1>.
func Identity(m int) Ranking {
	r := make(Ranking, m)
	for i := range r {
		r[i] = Item(i)
	}
	return r
}

// Clone returns a copy of r.
func (r Ranking) Clone() Ranking {
	c := make(Ranking, len(r))
	copy(c, r)
	return c
}

// Len returns the number of ranked items.
func (r Ranking) Len() int { return len(r) }

// Position returns the 0-based position of item x, or -1 if x is not ranked.
func (r Ranking) Position(x Item) int {
	for p, it := range r {
		if it == x {
			return p
		}
	}
	return -1
}

// Contains reports whether item x appears in r.
func (r Ranking) Contains(x Item) bool { return r.Position(x) >= 0 }

// Prefers reports whether a is ranked strictly before (preferred to) b.
// Both items must be ranked; otherwise Prefers returns false.
func (r Ranking) Prefers(a, b Item) bool {
	pa, pb := r.Position(a), r.Position(b)
	return pa >= 0 && pb >= 0 && pa < pb
}

// Insert returns a new ranking with item x inserted at position j (0-based,
// 0 <= j <= len(r)). The receiver is not modified.
func (r Ranking) Insert(x Item, j int) Ranking {
	if j < 0 || j > len(r) {
		panic(fmt.Sprintf("rank: insert position %d out of range [0,%d]", j, len(r)))
	}
	out := make(Ranking, 0, len(r)+1)
	out = append(out, r[:j]...)
	out = append(out, x)
	out = append(out, r[j:]...)
	return out
}

// Remove returns a new ranking with item x removed. If x is not present the
// result is a copy of r.
func (r Ranking) Remove(x Item) Ranking {
	out := make(Ranking, 0, len(r))
	for _, it := range r {
		if it != x {
			out = append(out, it)
		}
	}
	return out
}

// Prefix returns the truncated ranking consisting of the first k items
// (the paper's tau^k). It shares storage with r.
func (r Ranking) Prefix(k int) Ranking {
	if k > len(r) {
		k = len(r)
	}
	return r[:k]
}

// Restrict returns the sub-ranking of r over the given item set, preserving
// the relative order of r.
func (r Ranking) Restrict(items map[Item]bool) Ranking {
	out := make(Ranking, 0, len(items))
	for _, it := range r {
		if items[it] {
			out = append(out, it)
		}
	}
	return out
}

// ItemSet returns the set of items in r (the paper's A(psi)).
func (r Ranking) ItemSet() map[Item]bool {
	s := make(map[Item]bool, len(r))
	for _, it := range r {
		s[it] = true
	}
	return s
}

// IsPermutation reports whether r is a permutation of 0..m-1 for m = len(r).
func (r Ranking) IsPermutation() bool {
	seen := make([]bool, len(r))
	for _, it := range r {
		if it < 0 || int(it) >= len(r) || seen[it] {
			return false
		}
		seen[it] = true
	}
	return true
}

// ConsistentWith reports whether r is consistent with the sub-ranking psi:
// every pair of items that are both ranked in r and in psi appears in the
// same relative order. When r ranks all items of psi this is the paper's
// "tau |= psi".
func (r Ranking) ConsistentWith(psi Ranking) bool {
	prev := -1
	for _, it := range psi {
		p := r.Position(it)
		if p < 0 {
			continue
		}
		if p < prev {
			return false
		}
		prev = p
	}
	return true
}

// Equal reports whether two rankings are identical.
func (r Ranking) Equal(o Ranking) bool {
	if len(r) != len(o) {
		return false
	}
	for i := range r {
		if r[i] != o[i] {
			return false
		}
	}
	return true
}

// Key returns a compact string key identifying the ranking, suitable for use
// as a map key (e.g. for deduplicating sub-rankings).
func (r Ranking) Key() string { return r.join("", ",", "") }

// String renders the ranking as <a, b, c>.
func (r Ranking) String() string { return r.join("<", ", ", ">") }

// join writes the items in decimal into one buffer: Key runs once per
// inference group on the serving path (plan keys, walk schedules).
func (r Ranking) join(open, sep, close string) string {
	var b strings.Builder
	b.Grow(len(open) + len(r)*(len(sep)+3) + len(close))
	b.WriteString(open)
	var digits [20]byte
	for i, it := range r {
		if i > 0 {
			b.WriteString(sep)
		}
		b.Write(strconv.AppendInt(digits[:0], int64(it), 10))
	}
	b.WriteString(close)
	return b.String()
}
