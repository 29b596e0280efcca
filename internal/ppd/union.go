package ppd

import (
	"fmt"
	"strings"

	"probpref/internal/pattern"
)

// UnionQuery is a union of conjunctive queries (UCQ): it holds in a possible
// world when at least one disjunct holds. Per session, grounding each
// disjunct yields a pattern union, and the UCQ is equivalent to the merged
// union, so evaluation reuses the pattern-union inference machinery
// unchanged — the disjuncts are neither disjoint nor independent, exactly as
// for the pattern unions produced by DecomposeQuery.
//
// All disjuncts must range over the same preference relation; unions across
// p-relations would require joint inference over distinct session spaces,
// which the framework (and the paper) does not define.
type UnionQuery struct {
	// Disjuncts holds the conjunctive queries of the union.
	Disjuncts []*Query
}

// ParseUnion reads a union of conjunctive queries: disjunct bodies in the
// notation of Parse, separated by top-level "|" characters:
//
//	P(_, _; c1; c2), C(c1, _, F, _, _, _) | P(_, _; c1; c2), C(c1, D, _, _, _, _)
//
// "|" inside quoted strings does not split. A source with no "|" yields a
// single-disjunct union.
func ParseUnion(src string) (*UnionQuery, error) {
	parts, err := splitDisjuncts(src)
	if err != nil {
		return nil, err
	}
	uq := &UnionQuery{}
	for i, part := range parts {
		q, err := Parse(part)
		if err != nil {
			return nil, fmt.Errorf("ppd: disjunct %d: %w", i+1, err)
		}
		uq.Disjuncts = append(uq.Disjuncts, q)
	}
	if err := uq.Validate(); err != nil {
		return nil, err
	}
	return uq, nil
}

// MustParseUnion is ParseUnion but panics on error.
func MustParseUnion(src string) *UnionQuery {
	uq, err := ParseUnion(src)
	if err != nil {
		panic(err)
	}
	return uq
}

// splitDisjuncts splits src on "|" outside quoted strings.
func splitDisjuncts(src string) ([]string, error) {
	var parts []string
	var quote byte
	start := 0
	for i := 0; i < len(src); i++ {
		c := src[i]
		switch {
		case quote != 0:
			if c == quote {
				quote = 0
			}
		case c == '"' || c == '\'':
			quote = c
		case c == '|':
			parts = append(parts, src[start:i])
			start = i + 1
		}
	}
	if quote != 0 {
		return nil, fmt.Errorf("ppd: unterminated string in union query")
	}
	parts = append(parts, src[start:])
	for i, p := range parts {
		if strings.TrimSpace(p) == "" {
			return nil, fmt.Errorf("ppd: empty disjunct %d in union query", i+1)
		}
	}
	return parts, nil
}

// Validate checks that the union has at least one disjunct, that every
// disjunct is itself valid, and that all disjuncts query the same
// p-relation.
func (uq *UnionQuery) Validate() error {
	if len(uq.Disjuncts) == 0 {
		return fmt.Errorf("ppd: union query has no disjuncts")
	}
	for i, q := range uq.Disjuncts {
		if err := q.Validate(); err != nil {
			return fmt.Errorf("ppd: disjunct %d: %w", i+1, err)
		}
	}
	rel := uq.Disjuncts[0].Prefs[0].Rel
	for i, q := range uq.Disjuncts[1:] {
		if q.Prefs[0].Rel != rel {
			return fmt.Errorf("ppd: disjunct %d queries p-relation %q, disjunct 1 queries %q",
				i+2, q.Prefs[0].Rel, rel)
		}
	}
	return nil
}

// String renders the union in the notation ParseUnion reads.
func (uq *UnionQuery) String() string {
	parts := make([]string, len(uq.Disjuncts))
	for i, q := range uq.Disjuncts {
		parts[i] = strings.TrimPrefix(q.String(), "Q() <- ")
	}
	return "Q() <- " + strings.Join(parts, " | ")
}

// UnionGrounders validates the union and builds one grounder per disjunct,
// checking that every disjunct grounds over the same p-relation. It is the
// grounding front end of DB.Ground. A single-disjunct union is a plain
// query, and its errors carry no "disjunct 1" prefix.
func UnionGrounders(db *DB, uq *UnionQuery) ([]*Grounder, error) {
	if len(uq.Disjuncts) == 1 {
		g, err := NewGrounder(db, uq.Disjuncts[0])
		if err != nil {
			return nil, err
		}
		return []*Grounder{g}, nil
	}
	if err := uq.Validate(); err != nil {
		return nil, err
	}
	grounders := make([]*Grounder, len(uq.Disjuncts))
	for i, q := range uq.Disjuncts {
		g, err := NewGrounder(db, q)
		if err != nil {
			return nil, fmt.Errorf("ppd: disjunct %d: %w", i+1, err)
		}
		grounders[i] = g
		if g.Pref() != grounders[0].Pref() {
			return nil, fmt.Errorf("ppd: disjuncts ground over different p-relations")
		}
	}
	return grounders, nil
}

// GroundMerged grounds one session under every grounder and merges the
// disjuncts' unions into the single equivalent inference request. A lone
// grounder's union is returned as is: GroundSession already deduplicates
// its patterns by key, which is all Merge would do to it.
func GroundMerged(grounders []*Grounder, s *Session) (pattern.Union, error) {
	if len(grounders) == 1 {
		gq, err := grounders[0].GroundSession(s)
		if err != nil {
			return nil, err
		}
		return gq.Union, nil
	}
	unions := make([]pattern.Union, 0, len(grounders))
	for _, g := range grounders {
		gq, err := g.GroundSession(s)
		if err != nil {
			return nil, err
		}
		unions = append(unions, gq.Union)
	}
	return pattern.Merge(unions...), nil
}
