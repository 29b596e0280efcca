package ppd

import (
	"math/rand"

	"probpref/internal/pattern"
	"probpref/internal/rank"
)

// World is one possible world of a RIM-PPD: a deterministic ranking per
// session, drawn from the stored models. Under possible-world semantics the
// probability of a Boolean query is the probability that it holds in a
// random world (Section 1).
type World struct {
	// Rankings holds one ranking per session, in p-relation order, keyed by
	// p-relation name.
	Rankings map[string][]rank.Ranking
}

// SampleWorld draws a possible world: one ranking per session of every
// p-relation.
func (db *DB) SampleWorld(rng *rand.Rand) *World {
	w := &World{Rankings: make(map[string][]rank.Ranking, len(db.Prefs))}
	for name, p := range db.Prefs {
		rs := make([]rank.Ranking, p.Sessions.Len())
		for i, s := range p.Sessions.All() {
			rs[i] = s.Model.Sample(rng)
		}
		w.Rankings[name] = rs
	}
	return w
}

// HoldsIn reports whether the query holds in the given world: some session
// whose grounded pattern union matches the session's ranking. It evaluates
// the same grounding the probabilistic evaluator uses, so Monte Carlo over
// worlds converges to the engine's Boolean (KindBool) answer.
func (g *Grounder) HoldsIn(w *World) (bool, error) {
	mts, err := g.worldMatchers()
	if err != nil {
		return false, err
	}
	rs := w.Rankings[g.pref.Name]
	for si, mt := range mts {
		if mt != nil && mt.Matches(rs[si]) {
			return true, nil
		}
	}
	return false, nil
}

// CountIn returns the number of sessions satisfying the query in the world
// (the deterministic count whose expectation Count-Session computes).
func (g *Grounder) CountIn(w *World) (int, error) {
	mts, err := g.worldMatchers()
	if err != nil {
		return 0, err
	}
	rs := w.Rankings[g.pref.Name]
	count := 0
	for si, mt := range mts {
		if mt != nil && mt.Matches(rs[si]) {
			count++
		}
	}
	return count, nil
}

// worldMatchers returns, per session of the queried p-relation, the
// session's grounded union compiled against the database labeling (nil
// where the query grounds to nothing on the session). Monte Carlo over
// worlds puts one world after another to the same groundings, so the table
// is built by the first HoldsIn or CountIn and kept; sessions grounding to
// the same union share a matcher. Like GroundSession it is not safe for
// concurrent use.
func (g *Grounder) worldMatchers() ([]*pattern.Matcher, error) {
	if g.world != nil {
		return g.world, nil
	}
	mts := make([]*pattern.Matcher, g.pref.Sessions.Len())
	byUnion := make(map[string]*pattern.Matcher)
	for si, s := range g.pref.Sessions.All() {
		gq, err := g.GroundSession(s)
		if err != nil {
			return nil, err
		}
		if len(gq.Union) == 0 {
			continue
		}
		k := gq.Union.Key()
		if byUnion[k] == nil {
			byUnion[k] = pattern.CompileMatcher(gq.Union, g.db.Labeling(), g.db.M())
		}
		mts[si] = byUnion[k]
	}
	g.world = mts
	return mts, nil
}
