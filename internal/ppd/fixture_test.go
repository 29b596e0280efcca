package ppd

import (
	"context"
	"testing"

	"probpref/internal/rank"
	"probpref/internal/rim"
)

// figure1DB reproduces the RIM-PPD instance of Figure 1 of the paper:
// candidates Trump(0), Clinton(1), Sanders(2), Rubio(3); voters Ann, Bob,
// Dave; polls with Mallows models.
func figure1DB(t *testing.T) *DB {
	t.Helper()
	cands, err := NewRelation("C",
		[]string{"candidate", "party", "sex", "age", "edu", "reg"},
		[][]string{
			{"Trump", "R", "M", "70", "BS", "NE"},
			{"Clinton", "D", "F", "69", "JD", "NE"},
			{"Sanders", "D", "M", "75", "BS", "NE"},
			{"Rubio", "R", "M", "45", "JD", "S"},
		})
	if err != nil {
		t.Fatal(err)
	}
	db, err := NewDB(cands)
	if err != nil {
		t.Fatal(err)
	}
	voters, err := NewRelation("V",
		[]string{"voter", "sex", "age", "edu"},
		[][]string{
			{"Ann", "F", "20", "BS"},
			{"Bob", "M", "30", "BS"},
			{"Dave", "M", "50", "MS"},
		})
	if err != nil {
		t.Fatal(err)
	}
	if err := db.AddRelation(voters); err != nil {
		t.Fatal(err)
	}
	// Centers use item ids: Trump=0, Clinton=1, Sanders=2, Rubio=3.
	polls := &PrefRelation{
		Name:         "P",
		SessionAttrs: []string{"voter", "date"},
		Sessions: SessionSlice{
			{Key: []string{"Ann", "5/5"}, Model: rim.MustMallows(rank.Ranking{1, 2, 3, 0}, 0.3)},
			{Key: []string{"Bob", "5/5"}, Model: rim.MustMallows(rank.Ranking{0, 3, 2, 1}, 0.3)},
			{Key: []string{"Dave", "6/5"}, Model: rim.MustMallows(rank.Ranking{1, 2, 3, 0}, 0.5)},
		},
	}
	if err := db.AddPrefRelation(polls); err != nil {
		t.Fatal(err)
	}
	return db
}

// The helpers below phrase the common single-purpose requests of the suite
// over Engine.Do, each over the union of qs (one query for a plain CQ).

// evalBool answers a KindBool request: confidence, expected count and the
// per-session rows.
func evalBool(e *Engine, qs ...*Query) (*Response, error) {
	return e.Do(context.Background(), &Request{Kind: KindBool, Queries: qs})
}

// ungrouped answers a KindBool request the way the paper's naive strategy
// does, the reference grouping must match: each session's union is grounded
// and solved alone under e's method, no solve shared between sessions.
func ungrouped(t *testing.T, e *Engine, qs ...*Query) *Response {
	t.Helper()
	grounders, err := UnionGrounders(e.DB, &UnionQuery{Disjuncts: qs})
	if err != nil {
		t.Fatal(err)
	}
	resp := &Response{Kind: KindBool}
	for _, s := range grounders[0].Pref().Sessions.All() {
		u, err := GroundMerged(grounders, s)
		if err != nil {
			t.Fatal(err)
		}
		if len(u) == 0 {
			continue
		}
		p, _, err := e.solve(context.Background(), e.Method, 0, s.Model, u)
		if err != nil {
			t.Fatal(err)
		}
		resp.PerSession = append(resp.PerSession, SessionProb{Session: s, Prob: p})
		resp.Solves++
	}
	resp.Prob, resp.Count = BoolAggregate(resp.PerSession)
	return resp
}

// figure1Chain is a chain query over figure1DB: a multi-edge pattern, so
// bounded top-k relaxes it and solves the relaxation with Bipartite.
const figure1Chain = `P(_, _; c1; c2), P(_, _; c2; c3), C(c1, _, F, _, _, _), C(c2, D, _, _, _, _), C(c3, R, _, _, _, _)`

// topK answers a KindTopK request.
func topK(e *Engine, k, boundEdges int, qs ...*Query) ([]SessionProb, *TopKDiag, error) {
	resp, err := e.Do(context.Background(), &Request{Kind: KindTopK, Queries: qs, K: k, BoundEdges: boundEdges})
	if err != nil {
		return nil, nil, err
	}
	return resp.Top, resp.Diag, nil
}

// countDist answers a KindCountDist request.
func countDist(e *Engine, qs ...*Query) (*CountDistribution, error) {
	resp, err := e.Do(context.Background(), &Request{Kind: KindCountDist, Queries: qs})
	if err != nil {
		return nil, err
	}
	return resp.Dist, nil
}

// aggregate answers a KindAggregate request.
func aggregate(e *Engine, q *Query, rel, attr string) (*AggregateResult, error) {
	resp, err := e.Do(context.Background(), &Request{Kind: KindAggregate, Queries: []*Query{q}, AggRel: rel, AggAttr: attr})
	if err != nil {
		return nil, err
	}
	return resp.Agg, nil
}
