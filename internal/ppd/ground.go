package ppd

import (
	"encoding/binary"
	"fmt"
	"slices"
	"sort"
	"strconv"

	"probpref/internal/label"
	"probpref/internal/pattern"
)

// Grounder analyzes a query against a database and produces, per session,
// the union of label patterns equivalent to the query (Algorithm 2,
// DecomposeQuery): variables that prevent label-pattern reduction (V+) are
// instantiated over their active domains, rewriting the query into a union
// of itemwise CQs, each of which reduces to one label pattern.
//
// Grounding a session has two halves. The session half binds the session
// terms, tests the session comparisons and joins the context atoms; the
// instantiation half (V+ domains, their Cartesian product, one pattern per
// instantiation) reads only the joined environments' values of the
// variables the item atoms read — the session's signature. Sessions with
// equal signatures ground to the same union, so a Grounder runs the
// instantiation once per signature and hands every later session of that
// signature the same *GroundedQuery. The memo lives as long as the
// Grounder, which is one grounding pass for DB.Ground.
//
// A Grounder is not safe for concurrent use, and a GroundedQuery it returns
// is shared by every session of its signature and must not be modified.
type Grounder struct {
	db   *DB
	q    *Query
	pref *PrefRelation

	sessionVars  map[string]int // var name -> session attr index
	sessionComps []Compare
	itemTerms    []Term         // item nodes in pattern order
	itemIdx      map[string]int // item var name -> node index
	edges        [][2]int       // pattern edges from preference atoms
	itemAtoms    []RelAtom      // atoms over the item relation
	contextAtoms []RelAtom      // atoms over other relations
	varComps     map[string][]Compare
	keyIndexes   map[string]map[string][]int // relation -> first-attr value -> tuple rows
	// patterns interns the grounded patterns by key, so that sessions
	// grounding to the same pattern share one value instead of each
	// keeping a copy alive in the groups of a Grounded. A pattern's key
	// spells out its nodes and edges, so equal keys mean identical
	// patterns and sharing cannot change an answer.
	patterns map[string]*pattern.Pattern
	// sigVars lists the variables the item atoms read that a session's
	// terms or context atoms can bind: a session's signature is its joined
	// environments projected onto them (see signature).
	sigVars []string
	// vplus is V+ (Algorithm 2), sorted, and doms its active domains:
	// the same for every session (see NewGrounder).
	vplus []string
	doms  map[string][]string
	// bySig memoises the instantiation half by signature; sigBuf is the
	// reused buffer a signature is encoded into.
	bySig  map[string]*GroundedQuery
	sigBuf []byte
	// world is the per-session matcher table of the possible-world helpers
	// (see worldMatchers); nil until HoldsIn or CountIn first runs.
	world []*pattern.Matcher
}

// NewGrounder validates the query against the database and prepares the
// static analysis.
func NewGrounder(db *DB, q *Query) (*Grounder, error) {
	if err := q.Validate(); err != nil {
		return nil, err
	}
	pref, ok := db.Prefs[q.Prefs[0].Rel]
	if !ok {
		return nil, fmt.Errorf("ppd: unknown p-relation %q", q.Prefs[0].Rel)
	}
	if len(q.Prefs[0].Session) != len(pref.SessionAttrs) {
		return nil, fmt.Errorf("ppd: p-relation %q has %d session attributes, query uses %d",
			pref.Name, len(pref.SessionAttrs), len(q.Prefs[0].Session))
	}
	g := &Grounder{
		db:          db,
		q:           q,
		pref:        pref,
		sessionVars: make(map[string]int),
		itemIdx:     make(map[string]int),
		varComps:    make(map[string][]Compare),
		keyIndexes:  make(map[string]map[string][]int),
		patterns:    make(map[string]*pattern.Pattern),
		bySig:       make(map[string]*GroundedQuery),
	}
	for i, t := range q.Prefs[0].Session {
		if t.Kind == Var {
			if _, dup := g.sessionVars[t.Value]; !dup {
				g.sessionVars[t.Value] = i
			}
		}
	}
	// Item terms from preference atoms. Variables and constants are shared
	// across occurrences; each wildcard is a distinct anonymous node.
	constIdx := make(map[string]int)
	termNode := func(t Term) (int, error) {
		switch t.Kind {
		case Var:
			if _, isSession := g.sessionVars[t.Value]; isSession {
				return 0, fmt.Errorf("ppd: session variable %q used as item", t.Value)
			}
			if idx, ok := g.itemIdx[t.Value]; ok {
				return idx, nil
			}
			g.itemIdx[t.Value] = len(g.itemTerms)
		case Const:
			if idx, ok := constIdx[t.Value]; ok {
				return idx, nil
			}
			constIdx[t.Value] = len(g.itemTerms)
		}
		g.itemTerms = append(g.itemTerms, t)
		return len(g.itemTerms) - 1, nil
	}
	for _, a := range q.Prefs {
		l, err := termNode(a.Left)
		if err != nil {
			return nil, err
		}
		r, err := termNode(a.Right)
		if err != nil {
			return nil, err
		}
		if l == r {
			return nil, fmt.Errorf("ppd: preference atom %s compares an item with itself", a)
		}
		g.edges = append(g.edges, [2]int{l, r})
	}
	// Partition ordinary atoms.
	for _, a := range q.Rels {
		rel, ok := db.Relations[a.Rel]
		if !ok {
			return nil, fmt.Errorf("ppd: unknown relation %q", a.Rel)
		}
		if len(a.Args) != len(rel.Attrs) {
			return nil, fmt.Errorf("ppd: atom %s has %d arguments, relation has %d", a, len(a.Args), len(rel.Attrs))
		}
		if a.Rel == db.ItemRelation.Name {
			// Item atom: the first argument identifies the item node. A
			// wildcard becomes a fresh existence-only variable so the
			// atom's labels attach to an isolated node.
			if a.Args[0].Kind == Wild {
				fresh := fmt.Sprintf("_anon%d", len(g.itemTerms))
				a.Args = append([]Term(nil), a.Args...)
				a.Args[0] = V(fresh)
			}
			first := a.Args[0]
			if first.Kind == Var {
				if _, isSession := g.sessionVars[first.Value]; isSession {
					return nil, fmt.Errorf("ppd: session variable %q used as item", first.Value)
				}
				if _, ok := g.itemIdx[first.Value]; !ok {
					// Existence-only item variable: isolated pattern node.
					g.itemIdx[first.Value] = len(g.itemTerms)
					g.itemTerms = append(g.itemTerms, first)
				}
			}
			g.itemAtoms = append(g.itemAtoms, a)
			continue
		}
		g.contextAtoms = append(g.contextAtoms, a)
	}
	// Comparisons by variable; session comparisons kept separately.
	for _, c := range q.Comps {
		if _, isSession := g.sessionVars[c.Left.Value]; isSession {
			g.sessionComps = append(g.sessionComps, c)
			continue
		}
		if _, isItem := g.itemIdx[c.Left.Value]; isItem {
			return nil, fmt.Errorf("ppd: comparison on item variable %q unsupported", c.Left.Value)
		}
		g.varComps[c.Left.Value] = append(g.varComps[c.Left.Value], c)
	}
	// The signature variables: read by an item atom past its item argument
	// (domains and buildPattern read nothing else of an environment), and
	// bound by a session term or a context atom (nothing else binds one).
	binds := make(map[string]bool)
	for v := range g.sessionVars {
		binds[v] = true
	}
	for _, a := range g.contextAtoms {
		for _, t := range a.Args {
			if t.Kind == Var {
				binds[t.Value] = true
			}
		}
	}
	for _, a := range g.itemAtoms {
		for _, t := range a.Args[1:] {
			if t.Kind == Var && binds[t.Value] && !slices.Contains(g.sigVars, t.Value) {
				g.sigVars = append(g.sigVars, t.Value)
			}
		}
	}
	// V+: the item-attribute variables nothing binds that appear more than
	// once or in comparisons; any other unbound one is projected out and
	// acts as a wildcard. Every joined environment binds exactly the
	// variables in binds, so V+ and its active domains — the values of the
	// column at the variable's first occurrence that pass its comparisons
	// — are the same for every session.
	occurrences := make(map[string]int)
	firstCol := make(map[string]int)
	for _, a := range g.itemAtoms {
		for ai, t := range a.Args[1:] {
			if _, isItem := g.itemIdx[t.Value]; t.Kind != Var || binds[t.Value] || isItem {
				continue
			}
			if occurrences[t.Value] == 0 {
				firstCol[t.Value] = ai + 1
			}
			occurrences[t.Value]++
		}
	}
	g.doms = make(map[string][]string)
	for v, n := range occurrences {
		if n > 1 || len(g.varComps[v]) > 0 {
			g.vplus = append(g.vplus, v)
			g.doms[v] = g.activeDomain(firstCol[v], g.varComps[v])
		}
	}
	sort.Strings(g.vplus)
	return g, nil
}

// Pref returns the queried p-relation.
func (g *Grounder) Pref() *PrefRelation { return g.pref }

// GroundedQuery is the per-session reduction of the query.
type GroundedQuery struct {
	// Union is the union of label patterns equivalent to the query on this
	// session. Empty when the session is filtered out or no grounding
	// exists.
	Union pattern.Union
	// Groundings counts the (environment, V+ instantiation) pairs.
	Groundings int
	// Itemwise reports whether the query reduced to a single pattern with
	// no grounded variables (the tractable class of Kenig et al.).
	Itemwise bool
}

// GroundSession reduces the query on one session. Sessions of one
// signature share the returned value, which must not be modified.
func (g *Grounder) GroundSession(s *Session) (*GroundedQuery, error) {
	envs := g.joinSession(s)
	if len(envs) == 0 {
		return &GroundedQuery{}, nil
	}
	sig := g.signature(envs)
	if gq, ok := g.bySig[string(sig)]; ok {
		return gq, nil
	}
	gq := g.instantiate(envs)
	g.bySig[string(sig)] = gq
	return gq, nil
}

// joinSession is the session half of a grounding: it binds the session
// terms, tests the session comparisons and joins the context atoms,
// returning the joined environments (none when the session is filtered
// out).
func (g *Grounder) joinSession(s *Session) []map[string]string {
	env := make(map[string]string)
	// Bind session terms.
	for i, t := range g.q.Prefs[0].Session {
		switch t.Kind {
		case Const:
			if s.Key[i] != t.Value {
				return nil
			}
		case Var:
			if prev, ok := env[t.Value]; ok {
				if prev != s.Key[i] {
					return nil
				}
			} else {
				env[t.Value] = s.Key[i]
			}
		}
	}
	for _, c := range g.sessionComps {
		if !evalCompare(env[c.Left.Value], c.Op, c.Right.Value) {
			return nil
		}
	}
	// Join context atoms.
	envs := []map[string]string{env}
	for _, a := range g.contextAtoms {
		rel := g.db.Relations[a.Rel]
		var next []map[string]string
		for _, e := range envs {
			for _, row := range g.matchRows(rel, a, e) {
				ne := cloneEnv(e)
				ok := true
				for ai, t := range a.Args {
					if t.Kind != Var {
						continue
					}
					if prev, bound := ne[t.Value]; bound {
						if prev != row[ai] {
							ok = false
							break
						}
					} else {
						ne[t.Value] = row[ai]
					}
				}
				if ok && g.compsHold(ne) {
					next = append(next, ne)
				}
			}
		}
		envs = next
		if len(envs) == 0 {
			return nil
		}
	}
	return envs
}

// signature encodes the joined environments projected onto sigVars, in
// order: the environment count, then per environment and variable either
// 0 (unbound) or the value's length plus one and the value. Equal
// signatures make instantiate read equal inputs. The result aliases
// g.sigBuf.
func (g *Grounder) signature(envs []map[string]string) []byte {
	b := binary.AppendUvarint(g.sigBuf[:0], uint64(len(envs)))
	for _, e := range envs {
		for _, v := range g.sigVars {
			val, bound := e[v]
			if !bound {
				b = append(b, 0)
				continue
			}
			b = binary.AppendUvarint(b, uint64(len(val))+1)
			b = append(b, val...)
		}
	}
	g.sigBuf = b
	return b
}

// instantiate is the signature half of a grounding: per joined
// environment, it instantiates V+ over its active domains and builds one
// pattern per instantiation, interned on the Grounder.
func (g *Grounder) instantiate(envs []map[string]string) *GroundedQuery {
	res := &GroundedQuery{}
	seen := make(map[string]bool)
	for _, e := range envs {
		g.cartesian(e, g.vplus, g.doms, 0, func(full map[string]string) {
			res.Groundings++
			pat := g.buildPattern(full)
			k := pat.Key()
			if !seen[k] {
				seen[k] = true
				if first, ok := g.patterns[k]; ok {
					pat = first
				} else {
					g.patterns[k] = pat
				}
				res.Union = append(res.Union, pat)
			}
		})
	}
	res.Itemwise = len(envs) == 1 && len(g.vplus) == 0 && len(res.Union) <= 1
	return res
}

// matchRows returns the tuples of rel compatible with atom a under env,
// using a first-attribute hash index when the first argument is bound.
func (g *Grounder) matchRows(rel *Relation, a RelAtom, env map[string]string) [][]string {
	bound := func(t Term) (string, bool) {
		switch t.Kind {
		case Const:
			return t.Value, true
		case Var:
			v, ok := env[t.Value]
			return v, ok
		default:
			return "", false
		}
	}
	candidates := rel.Tuples
	if v, ok := bound(a.Args[0]); ok {
		idx := g.keyIndexes[rel.Name]
		if idx == nil {
			idx = make(map[string][]int, len(rel.Tuples))
			for ri, row := range rel.Tuples {
				idx[row[0]] = append(idx[row[0]], ri)
			}
			g.keyIndexes[rel.Name] = idx
		}
		candidates = nil
		for _, ri := range idx[v] {
			candidates = append(candidates, rel.Tuples[ri])
		}
	}
	var out [][]string
	for _, row := range candidates {
		ok := true
		for ai, t := range a.Args {
			if v, isBound := bound(t); isBound && row[ai] != v {
				ok = false
				break
			}
			// Repeated unbound variables within the atom must agree.
			if t.Kind == Var {
				if _, isBound := env[t.Value]; !isBound {
					for aj := ai + 1; aj < len(a.Args); aj++ {
						if a.Args[aj].Kind == Var && a.Args[aj].Value == t.Value && row[aj] != row[ai] {
							ok = false
							break
						}
					}
				}
			}
			if !ok {
				break
			}
		}
		if ok {
			out = append(out, row)
		}
	}
	return out
}

// compsHold checks every comparison whose variable is bound in env.
func (g *Grounder) compsHold(env map[string]string) bool {
	for v, comps := range g.varComps {
		val, bound := env[v]
		if !bound {
			continue
		}
		for _, c := range comps {
			if !evalCompare(val, c.Op, c.Right.Value) {
				return false
			}
		}
	}
	return true
}

// activeDomain returns the sorted distinct values of the item relation's
// column col that pass comps.
func (g *Grounder) activeDomain(col int, comps []Compare) []string {
	set := make(map[string]bool)
	var vals []string
	for _, row := range g.db.ItemRelation.Tuples {
		val := row[col]
		if set[val] {
			continue
		}
		set[val] = true
		if !slices.ContainsFunc(comps, func(c Compare) bool { return !evalCompare(val, c.Op, c.Right.Value) }) {
			vals = append(vals, val)
		}
	}
	sort.Strings(vals)
	return vals
}

// cartesian enumerates the Cartesian product of the V+ domains (the loop of
// Algorithm 2), invoking fn with env extended by each instantiation.
func (g *Grounder) cartesian(env map[string]string, vplus []string, doms map[string][]string, i int, fn func(map[string]string)) {
	if i == len(vplus) {
		fn(env)
		return
	}
	v := vplus[i]
	for _, val := range doms[v] {
		env[v] = val
		g.cartesian(env, vplus, doms, i+1, fn)
	}
	delete(env, v)
}

// buildPattern assembles the label pattern of one fully grounded itemwise
// query: one node per item term, labeled by the attribute constraints of its
// item atoms, with the preference atoms as edges.
func (g *Grounder) buildPattern(env map[string]string) *pattern.Pattern {
	nodes := make([]pattern.Node, len(g.itemTerms))
	var collect func(node int) []label.Label
	collect = func(node int) []label.Label {
		var ls []label.Label
		t := g.itemTerms[node]
		if t.Kind == Const {
			ls = append(ls, g.db.LabelFor(g.db.ItemRelation.Attrs[0], t.Value))
		}
		for _, a := range g.itemAtoms {
			first := a.Args[0]
			switch {
			case first.Kind == Var && t.Kind == Var && first.Value == t.Value:
			case first.Kind == Const && t.Kind == Const && first.Value == t.Value:
			default:
				continue
			}
			for ai := 1; ai < len(a.Args); ai++ {
				arg := a.Args[ai]
				var val string
				switch arg.Kind {
				case Const:
					val = arg.Value
				case Var:
					v, bound := env[arg.Value]
					if !bound {
						continue
					}
					val = v
				default:
					continue
				}
				ls = append(ls, g.db.LabelFor(g.db.ItemRelation.Attrs[ai], val))
			}
		}
		return ls
	}
	for i := range g.itemTerms {
		nodes[i].Labels = label.NewSet(collect(i)...)
	}
	return pattern.MustNew(nodes, g.edges)
}

func cloneEnv(e map[string]string) map[string]string {
	ne := make(map[string]string, len(e)+2)
	for k, v := range e {
		ne[k] = v
	}
	return ne
}

// evalCompare applies a comparison between two values, numerically when both
// parse as numbers, lexicographically otherwise.
func evalCompare(a, op, b string) bool {
	af, aerr := strconv.ParseFloat(a, 64)
	bf, berr := strconv.ParseFloat(b, 64)
	if aerr == nil && berr == nil {
		switch op {
		case "=":
			return af == bf
		case "!=":
			return af != bf
		case "<":
			return af < bf
		case "<=":
			return af <= bf
		case ">":
			return af > bf
		case ">=":
			return af >= bf
		}
		return false
	}
	switch op {
	case "=":
		return a == b
	case "!=":
		return a != b
	case "<":
		return a < b
	case "<=":
		return a <= b
	case ">":
		return a > b
	case ">=":
		return a >= b
	}
	return false
}
