package solver_test

import (
	"testing"

	"probpref/internal/dataset"
	"probpref/internal/ppd"
	"probpref/internal/solver"
)

// coldQueries are hard queries of the benchmark pool's cold band (5 000 to
// 60 000 calibrated transitions), spread evenly over it by their work.
var coldQueries = []string{
	"P(_, _; l; r), C(l, D, j, _, BA, _), C(r, _, j, 20, _, _)",
	"P(_, _; l; r), C(l, R, j, _, JD, _), C(r, D, j, _, _, MW)",
	"P(_, _; l; r), C(l, _, j, _, BA, _), C(r, D, j, _, _, W)",
	"P(_, _; l; r), C(l, j, _, _, _, NE), C(r, j, _, 20, _, _)",
	"P(_, _; l; r), C(l, j, F, 40, _, _), C(r, j, F, 20, _, _)",
	"P(_, _; l; r), C(l, j, _, _, MS, _), C(r, j, F, _, _, SW)",
	"P(_, _; l; r), C(l, _, j, _, JD, _), C(r, R, j, _, _, MW)",
	"P(_, _; l; r), C(l, D, j, _, BA, _), C(r, R, j, _, PhD, _)",
}

// BenchmarkTwoLabelCold is the exact engine's share of a cold request on
// the benchmark's serve_cold database (polls, 20 candidates, 60 voters):
// per op, every query of coldQueries is grounded on every session, its
// distinct (session model, union) groups are found, and each group's union
// is compiled onto the heap and walked by the two-label solver — with no
// grounding memo, plan cache or solve cache. transitions/op is the walks'
// Stats.Transitions, a count that repeats exactly.
func BenchmarkTwoLabelCold(b *testing.B) {
	db, _, err := dataset.Build(dataset.BuildConfig{Name: "polls", Seed: 1, Candidates: 20, Voters: 60})
	if err != nil {
		b.Fatal(err)
	}
	lab := db.Labeling()
	queries := make([]*ppd.Query, len(coldQueries))
	for i, text := range coldQueries {
		queries[i] = ppd.MustParse(text)
	}
	b.ReportAllocs()
	var transitions, groups int
	for b.Loop() {
		transitions, groups = 0, 0
		for _, q := range queries {
			g, err := ppd.NewGrounder(db, q)
			if err != nil {
				b.Fatal(err)
			}
			seen := make(map[string]bool)
			for _, s := range g.Pref().Sessions.All() {
				gq, err := g.GroundSession(s)
				if err != nil {
					b.Fatal(err)
				}
				if len(gq.Union) == 0 {
					continue
				}
				key := s.Model.Rehash() + "|" + gq.Union.Key()
				if seen[key] {
					continue
				}
				seen[key] = true
				p, err := solver.CompilePlan(solver.AlgoTwoLabel, s.Model.Reference(), lab, gq.Union, solver.Options{})
				if err != nil {
					b.Fatal(err)
				}
				var st solver.Stats
				if _, err := p.Solve(s.Model.Model(), solver.Options{Stats: &st}); err != nil {
					b.Fatal(err)
				}
				transitions += st.Transitions
				groups++
			}
		}
	}
	b.ReportMetric(float64(transitions), "transitions/op")
	b.ReportMetric(float64(groups), "groups/op")
}
