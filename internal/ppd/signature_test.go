package ppd_test

import (
	"context"
	"encoding/json"
	"os"
	"testing"

	"probpref/internal/dataset"
	"probpref/internal/ppd"
)

// A Grounder runs the instantiation half of a grounding once per session
// signature and hands later sessions of the signature the memoised result.
// These tests hold that memoised pass to the reference: a fresh Grounder
// per session, which shares nothing between sessions.

// checkSignatureGrounding grounds text over db twice — memoised through
// DB.Ground and one UnionGrounders pass, and with fresh grounders per
// session — and compares the two session by session: the same union (by
// key), the same Groundings and Itemwise, the same Live rows and groups.
// Within the memoised pass, sessions of one signature share one
// GroundedQuery. It returns the memoised pass's grounders and the live
// session count.
func checkSignatureGrounding(t *testing.T, db *ppd.DB, text string) ([]*ppd.Grounder, int) {
	t.Helper()
	uq, err := ppd.ParseUnion(text)
	if err != nil {
		t.Fatalf("%s: %v", text, err)
	}
	gr, err := db.Ground(context.Background(), uq)
	if err != nil {
		t.Fatalf("%s: %v", text, err)
	}
	memo, err := ppd.UnionGrounders(db, uq)
	if err != nil {
		t.Fatal(err)
	}
	var (
		live     int
		groupOf  = make(map[string]int)
		bySig    = make(map[*ppd.GroundedQuery]string) // memoised result -> its union's key
		sessions = memo[0].Pref().Sessions
	)
	for si, s := range sessions.All() {
		fresh, err := ppd.UnionGrounders(db, uq)
		if err != nil {
			t.Fatal(err)
		}
		want, err := ppd.GroundMerged(fresh, s)
		if err != nil {
			t.Fatal(err)
		}
		got, err := ppd.GroundMerged(memo, s)
		if err != nil {
			t.Fatal(err)
		}
		if got.Key() != want.Key() {
			t.Fatalf("%s: session %d grounds to %s, fresh grounder %s", text, si, got.Key(), want.Key())
		}
		for d := range memo {
			m, err := memo[d].GroundSession(s)
			if err != nil {
				t.Fatal(err)
			}
			f, err := fresh[d].GroundSession(s)
			if err != nil {
				t.Fatal(err)
			}
			if m.Groundings != f.Groundings || m.Itemwise != f.Itemwise || m.Union.Key() != f.Union.Key() {
				t.Fatalf("%s: disjunct %d, session %d: memoised %+v, fresh %+v", text, d, si, *m, *f)
			}
			if len(m.Union) > 0 {
				if k, seen := bySig[m]; seen && k != m.Union.Key() {
					t.Fatalf("%s: a shared grounding changed from %s to %s", text, k, m.Union.Key())
				}
				bySig[m] = m.Union.Key()
			}
		}
		if len(want) == 0 {
			continue
		}
		if live >= len(gr.Live) {
			t.Fatalf("%s: %d live rows, want more", text, len(gr.Live))
		}
		row := gr.Live[live]
		live++
		gk := s.Model.Rehash() + "||" + want.Key()
		gi, seen := groupOf[gk]
		if !seen {
			gi = len(groupOf)
			groupOf[gk] = gi
		}
		if row.Session != s || row.Group != gi {
			t.Fatalf("%s: live row %d = (%p, group %d), want (%p, group %d)", text, live-1, row.Session, row.Group, s, gi)
		}
		if g := gr.Groups[gi]; g.Model != s.Model && g.Model.Rehash() != s.Model.Rehash() || g.Union.Key() != want.Key() {
			t.Fatalf("%s: group %d grounds to %s, session %d to %s", text, gi, g.Union.Key(), si, want.Key())
		}
	}
	if live != len(gr.Live) || len(groupOf) != len(gr.Groups) {
		t.Fatalf("%s: %d live rows and %d groups, want %d and %d", text, len(gr.Live), len(gr.Groups), live, len(groupOf))
	}
	return memo, live
}

func TestGroundBySignatureDemoQueries(t *testing.T) {
	for _, cfg := range []dataset.BuildConfig{
		{Name: "figure1"},
		{Name: "polls", Seed: 1, Candidates: 20, Voters: 60},
		{Name: "crowdrank", Seed: 1, Workers: 300},
		{Name: "movielens", Seed: 1, Movies: 40},
	} {
		db, query, err := dataset.Build(cfg)
		if err != nil {
			t.Fatal(err)
		}
		memo, live := checkSignatureGrounding(t, db, query)
		if live == 0 {
			t.Fatalf("%s: no live session", cfg.Name)
		}
		runs := ppd.Instantiations(memo[0])
		switch cfg.Name {
		case "polls", "figure1":
			// A wildcard-session query has one signature.
			if runs != 1 {
				t.Errorf("%s: %d instantiations for a wildcard-session query, want 1", cfg.Name, runs)
			}
		case "crowdrank":
			// V(v, sex, age): the signature is the worker's (sex, age).
			distinct := make(map[[2]string]bool)
			for _, row := range db.Relations["V"].Tuples {
				distinct[[2]string{row[1], row[2]}] = true
			}
			if runs < 1 || runs > len(distinct) {
				t.Errorf("crowdrank: %d instantiations for %d distinct (sex, age)", runs, len(distinct))
			}
		}
		t.Logf("%s: %d live sessions, %d instantiations", cfg.Name, live, runs)
	}
}

// TestGroundBySignaturePool runs every 7th query of the benchmark's frozen
// pool (read as data) over the polls relation the benchmark serves.
func TestGroundBySignaturePool(t *testing.T) {
	if testing.Short() {
		t.Skip("grounds ~750 queries twice")
	}
	raw, err := os.ReadFile("../../benchmark/queries.json")
	if err != nil {
		t.Skipf("benchmark pool not readable: %v", err)
	}
	var pool []struct {
		Q string `json:"q"`
	}
	if err := json.Unmarshal(raw, &pool); err != nil {
		t.Fatal(err)
	}
	db, err := dataset.Polls(dataset.PollsConfig{Candidates: 20, Voters: 60, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < len(pool); i += 7 {
		checkSignatureGrounding(t, db, pool[i].Q)
	}
}

// TestGroundBySignatureSessionShapes covers what makes a signature: a
// session constant that filters sessions, a session variable joined through
// a context relation, a session comparison, an item atom reading a session
// variable, a comparison on a joined variable, a V+ variable beside a joined
// one, and a union of disjuncts.
func TestGroundBySignatureSessionShapes(t *testing.T) {
	db, err := dataset.Polls(dataset.PollsConfig{Candidates: 20, Voters: 60, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	for _, q := range []string{
		`P(_, "5/5"; l; r), C(l, _, F, _, _, _), C(r, _, M, _, _, _)`,
		`P(v, _; l; r), V(v, s, _, _), C(l, _, s, _, _, _), C(r, _, _, _, _, NE)`,
		`P(_, d; l; r), C(l, _, F, _, _, _), C(r, _, M, _, _, _), d != "5/5"`,
		`P(v, d; l; r), C(l, _, F, _, _, _), C(r, _, _, d, _, _)`,
		`P(v, _; l; r), V(v, s, a, _), C(l, _, s, _, _, _), C(r, _, _, _, BS, _), a >= 40`,
		`P(v, _; l; r), V(v, s, _, e), C(l, p, s, _, _, _), C(r, p, _, _, e, _)`,
		`P(v, _; l; r), V(v, s, _, _), C(l, _, s, _, _, _), C(r, _, M, _, _, _) | P(_, _; l; r), C(l, D, _, _, _, _), C(r, R, _, _, _, _)`,
	} {
		memo, live := checkSignatureGrounding(t, db, q)
		if live == 0 {
			t.Errorf("%s: no live session", q)
		}
		t.Logf("%s: %d live sessions, %d instantiations", q, live, ppd.Instantiations(memo[0]))
	}
}
