package pattern

import (
	"probpref/internal/label"
	"probpref/internal/rank"
)

// Matcher is a pattern union compiled against a labeling over the items
// 0..m-1: every pattern node's label set is resolved once to a per-item
// membership row, so that testing a ranking costs array reads instead of a
// labeling lookup and a label-set merge per position. Sampling and
// enumeration loops compile once per (union, labeling) and call Matches per
// ranking. A Matcher is immutable and may be shared between goroutines.
type Matcher struct {
	pats     []matchPattern
	maxNodes int
}

// matchPattern is one compiled member of the union. topo and preds are the
// pattern's own (shared, read-only).
type matchPattern struct {
	topo  []int
	preds [][]int
	has   [][]bool // has[v][x]: item x carries every label of node v
}

// CompileMatcher compiles u against lab for rankings over the items 0..m-1
// (sub-rankings included). An item outside that range matches no node.
func CompileMatcher(u Union, lab *label.Labeling, m int) *Matcher {
	mt := &Matcher{pats: make([]matchPattern, 0, len(u)), maxNodes: u.MaxNodes()}
	// A member with a node no item can take never matches: it is not
	// compiled, so that Prefix reads no item for it.
members:
	for _, g := range u {
		rows := make([]bool, len(g.nodes)*m)
		has := make([][]bool, len(g.nodes))
		for v, n := range g.nodes {
			has[v], rows = rows[:m:m], rows[m:]
			some := false
			for x := range has[v] {
				has[v][x] = lab.HasAll(rank.Item(x), n.Labels)
				some = some || has[v][x]
			}
			if !some {
				continue members
			}
		}
		mt.pats = append(mt.pats, matchPattern{topo: g.topo, preds: g.preds, has: has})
	}
	return mt
}

// Prefix returns how long a prefix of ref holds every item some node of the
// union can take: one past the last such item, 0 when there is none. Matches
// reads no other item, so it answers the same for a ranking and for the
// relative order of its items in ref[:Prefix(ref)].
func (mt *Matcher) Prefix(ref rank.Ranking) int {
	for k := len(ref); k > 0; k-- {
		x := ref[k-1]
		for _, g := range mt.pats {
			for _, has := range g.has {
				if uint(x) < uint(len(has)) && has[x] {
					return k
				}
			}
		}
	}
	return 0
}

// Matches reports whether tau matches at least one pattern of the compiled
// union. It allocates nothing unless a member has more than 16 nodes.
func (mt *Matcher) Matches(tau rank.Ranking) bool {
	var buf [16]int
	pos := buf[:]
	if mt.maxNodes > len(buf) {
		pos = make([]int, mt.maxNodes)
	}
	for gi := range mt.pats {
		if mt.pats[gi].embed(tau, pos) {
			return true
		}
	}
	return false
}

// embed computes the greedy earliest embedding of the pattern into tau:
// processing nodes in topological order, each node takes the earliest
// position whose item carries the node's labels and that lies strictly
// after every predecessor's position. It writes the positions to pos
// (indexed by node) and reports whether the embedding completed. By a
// standard exchange argument the greedy positions are a lower bound on any
// valid embedding, so an embedding exists iff the greedy one completes.
// Runs in O(q * m).
func (g *matchPattern) embed(tau rank.Ranking, pos []int) bool {
	for _, v := range g.topo {
		lowest := 0
		for _, u := range g.preds[v] {
			if pos[u]+1 > lowest {
				lowest = pos[u] + 1
			}
		}
		has := g.has[v]
		found := -1
		for q := lowest; q < len(tau); q++ {
			if x := tau[q]; uint(x) < uint(len(has)) && has[x] {
				found = q
				break
			}
		}
		if found < 0 {
			return false
		}
		pos[v] = found
	}
	return true
}

// Matches reports whether (tau, lambda) |= g: there exists an embedding of
// the pattern nodes into positions of tau such that labels and edges match
// (Section 2.3). It is the one-shot form of CompileMatcher + Matches: it
// compiles the pattern for this one ranking, so a loop over rankings should
// compile once instead.
func (p *Pattern) Matches(tau rank.Ranking, lab *label.Labeling) bool {
	return Union{p}.Matches(tau, lab)
}

// Matches reports whether tau matches at least one pattern of the union;
// one-shot like Pattern.Matches.
func (u Union) Matches(tau rank.Ranking, lab *label.Labeling) bool {
	m := 0
	for _, x := range tau {
		if int(x) >= m {
			m = int(x) + 1
		}
	}
	return CompileMatcher(u, lab, m).Matches(tau)
}

// MinPos returns alpha(labels | tau): the minimum (0-based) position of an
// item of tau carrying all the given labels, or len(tau) when none does.
func MinPos(tau rank.Ranking, lab *label.Labeling, labels label.Set) int {
	for q, it := range tau {
		if lab.HasAll(it, labels) {
			return q
		}
	}
	return len(tau)
}

// MaxPos returns beta(labels | tau): the maximum position of an item of tau
// carrying all the given labels, or -1 when none does.
func MaxPos(tau rank.Ranking, lab *label.Labeling, labels label.Set) int {
	for q := len(tau) - 1; q >= 0; q-- {
		if lab.HasAll(tau[q], labels) {
			return q
		}
	}
	return -1
}

// MatchesConstraints reports whether tau satisfies the min/max position
// relaxation of the pattern: for every edge (u, v), alpha(u) < beta(v), and
// every isolated node has at least one matching item. For bipartite patterns
// this coincides with Matches; for general patterns it is an upper bound
// (Section 4.3.2, Example 4.4).
func (p *Pattern) MatchesConstraints(tau rank.Ranking, lab *label.Labeling) bool {
	touched := make([]bool, len(p.nodes))
	for _, e := range p.edges {
		touched[e[0]], touched[e[1]] = true, true
		a := MinPos(tau, lab, p.nodes[e[0]].Labels)
		b := MaxPos(tau, lab, p.nodes[e[1]].Labels)
		if a >= b || a >= len(tau) || b < 0 {
			return false
		}
	}
	for i, n := range p.nodes {
		if !touched[i] && MinPos(tau, lab, n.Labels) >= len(tau) {
			return false
		}
	}
	return true
}

// MatchesConstraints reports whether tau satisfies the constraint relaxation
// of at least one member.
func (u Union) MatchesConstraints(tau rank.Ranking, lab *label.Labeling) bool {
	for _, g := range u {
		if g.MatchesConstraints(tau, lab) {
			return true
		}
	}
	return false
}
