package ppd_test

import (
	"context"
	"maps"
	"slices"
	"testing"

	"probpref/internal/dataset"
	"probpref/internal/ppd"
)

// Explain is a dry run of the engine: on every demo dataset's stock query
// it reports the live sessions and groups a -method adaptive evaluation
// solves, and recommends the single solver every group routes to exactly,
// or adaptive once the route samples a group. The evaluation grounds
// nothing: it gets the grounding Explain built from the memo.
//
// To keep the test short the engine caps a sampled group at 2 000 draws
// and fixes the budget at DefaultAdaptiveBudget (ppd.Tune), which is the
// stock budget of a 20-item model such as polls' and CrowdRank's. The
// stock engine's explanation, the one hardq -explain prints, must come to
// the same recommendation.
func TestExplainRecommendsTheEvaluatedRoute(t *testing.T) {
	for _, cfg := range []dataset.BuildConfig{
		{Name: "figure1"},
		{Name: "polls", Seed: 1, Candidates: 20, Voters: 100},
		{Name: "movielens", Seed: 1},
		{Name: "crowdrank", Seed: 1, Workers: 2000},
	} {
		t.Run(cfg.Name, func(t *testing.T) {
			db, text, err := dataset.Build(cfg)
			if err != nil {
				t.Fatal(err)
			}
			uq := ppd.MustParseUnion(text)
			stock, err := (&ppd.Engine{DB: db}).Explain(uq.Disjuncts[0])
			if err != nil {
				t.Fatal(err)
			}
			if ppd.Memoised(db, uq) == nil {
				t.Fatal("Explain left no grounding in the memo")
			}
			eng := ppd.Tune(&ppd.Engine{DB: db, Method: ppd.MethodAdaptive}, ppd.Tuning{Draws: 2000, Budget: ppd.DefaultAdaptiveBudget})
			ex, err := eng.Explain(uq.Disjuncts[0])
			if err != nil {
				t.Fatal(err)
			}
			gr := ppd.Memoised(db, uq)
			resp, err := eng.Do(context.Background(), &ppd.Request{Kind: ppd.KindCount, Queries: uq.Disjuncts})
			if err != nil {
				t.Fatal(err)
			}
			if ppd.Memoised(db, uq) != gr {
				t.Fatal("Do grounded the query again instead of reading the grounding Explain built")
			}
			if ex.LiveSessions != len(resp.PerSession) || ex.DistinctGroups != resp.Solves {
				t.Fatalf("Explain: %d live, %d groups; Do: %d live, %d solves",
					ex.LiveSessions, ex.DistinctGroups, len(resp.PerSession), resp.Solves)
			}
			want := ppd.MethodAdaptive
			if resp.Plan.SampledGroups == 0 {
				routes := slices.Collect(maps.Keys(resp.Plan.Methods))
				if len(routes) != 1 {
					t.Fatalf("exact groups route to %v", routes)
				}
				if want, err = ppd.ParseMethod(routes[0]); err != nil {
					t.Fatal(err)
				}
			}
			if ex.Recommended != want {
				t.Fatalf("Explain recommends %v; the evaluation's plan %+v comes to %v", ex.Recommended, resp.Plan, want)
			}
			if stock.Recommended != want {
				t.Fatalf("the stock engine's Explain recommends %v, want %v", stock.Recommended, want)
			}
			if cfg.Name == "movielens" && want == ppd.MethodBipartite {
				t.Fatal("movielens recommended bipartite")
			}
		})
	}
}
