package ppd_test

import (
	"context"
	"testing"
	"time"

	"probpref/internal/dataset"
	"probpref/internal/ppd"
)

// TestAggregateIsGroupedFold: an aggregate is a fold of the grouped
// evaluation a count of the same query runs, so it solves, hits the cache,
// plans and samples group for group as the count does, and shares a batch's
// groups with the bool and count requests beside it.
func TestAggregateIsGroupedFold(t *testing.T) {
	for _, name := range []string{"figure1", "polls"} {
		t.Run(name, func(t *testing.T) {
			db, query, err := dataset.Build(dataset.BuildConfig{Name: name, Candidates: 10, Voters: 20, Seed: 7})
			if err != nil {
				t.Fatal(err)
			}
			qs := []*ppd.Query{ppd.MustParse(query)}
			count := func(m ppd.Method, seed int64) *ppd.Request {
				return &ppd.Request{Kind: ppd.KindCount, Queries: qs, Method: m, Seed: seed}
			}
			agg := func(m ppd.Method, seed int64) *ppd.Request {
				return &ppd.Request{Kind: ppd.KindAggregate, Queries: qs, Method: m, Seed: seed, AggRel: "V", AggAttr: "age"}
			}
			do := func(ctx context.Context, eng *ppd.Engine, req *ppd.Request) *ppd.Response {
				t.Helper()
				resp, err := eng.Do(ctx, req)
				if err != nil {
					t.Fatal(err)
				}
				return resp
			}
			bg := context.Background()

			cc := do(bg, &ppd.Engine{DB: db}, count(ppd.MethodAuto, 0))
			ca := do(bg, &ppd.Engine{DB: db}, agg(ppd.MethodAuto, 0))
			groups := cc.Solves
			if groups == 0 || ca.Solves != groups || ca.CacheHits != 0 {
				t.Errorf("cold aggregate: solves=%d cache_hits=%d, cold count solves=%d", ca.Solves, ca.CacheHits, groups)
			}
			if ca.Count != cc.Count || ca.Agg.Count != cc.Count || ca.Agg.Sessions != len(cc.PerSession) {
				t.Fatalf("aggregate count %v (%d sessions), count %v (%d sessions)", ca.Count, ca.Agg.Sessions, cc.Count, len(cc.PerSession))
			}
			if ca.Prob != 0 || ca.PerSession != nil {
				t.Fatalf("aggregate carries a bool section: prob %v, %d rows", ca.Prob, len(ca.PerSession))
			}

			warmEng := &ppd.Engine{DB: db, Cache: &benchCache{m: map[string]float64{}}}
			do(bg, warmEng, agg(ppd.MethodAuto, 0))
			if warm := do(bg, warmEng, agg(ppd.MethodAuto, 0)); warm.Solves != 0 || warm.CacheHits != groups {
				t.Errorf("warm aggregate: solves=%d cache_hits=%d, want 0 and %d", warm.Solves, warm.CacheHits, groups)
			}

			expired, cancel := context.WithDeadline(bg, time.Now().Add(-time.Hour))
			defer cancel()
			late := do(expired, &ppd.Engine{DB: db}, agg(ppd.MethodAdaptive, 0))
			if p := late.Plan; p == nil || p.SampledGroups != groups || p.ExactGroups != 0 || p.CountHalfWidth <= 0 || p.ProbHalfWidth != 0 {
				t.Errorf("adaptive aggregate past its deadline: plan %+v, want %d sampled groups and a count half-width", late.Plan, groups)
			}

			for _, m := range []ppd.Method{ppd.MethodRejection, ppd.MethodMISLite, ppd.MethodAdaptive} {
				c := do(bg, &ppd.Engine{DB: db}, count(m, 5))
				a := do(bg, &ppd.Engine{DB: db}, agg(m, 5))
				if a.Count != c.Count || a.Solves != c.Solves {
					t.Errorf("%v seed 5: aggregate count %v (%d solves), count %v (%d solves)", m, a.Count, a.Solves, c.Count, c.Solves)
				}
			}

			var crs []*ppd.CompiledRequest
			for _, req := range []*ppd.Request{{Kind: ppd.KindBool, Queries: qs}, count(ppd.MethodAuto, 0), agg(ppd.MethodAuto, 0)} {
				crs = append(crs, req.MustCompile())
			}
			res, err := (&ppd.Engine{DB: db}).DoGrouped(bg, crs)
			if err != nil {
				t.Fatal(err)
			}
			if res.Groups != groups || res.Solved != groups || res.Instances != 3*len(cc.PerSession) {
				t.Fatalf("batch: groups=%d solved=%d instances=%d, want %d, %d and %d", res.Groups, res.Solved, res.Instances, groups, groups, 3*len(cc.PerSession))
			}
			got, want := res.Responses[2].Agg, ca.Agg
			if got.Sum != want.Sum || got.Count != want.Count || got.Avg != want.Avg || got.Sessions != want.Sessions {
				t.Fatalf("batched aggregate %+v, alone %+v", *got, *want)
			}
		})
	}
}

// TestAggregateSkipsSessionsWithoutValue: a session whose key has no row
// in the value relation drops out of the fold, and the rest fold in
// session order as a hand fold of the bool answer's rows does.
func TestAggregateSkipsSessionsWithoutValue(t *testing.T) {
	db, query, err := dataset.Build(dataset.BuildConfig{Name: "figure1"})
	if err != nil {
		t.Fatal(err)
	}
	scores, err := ppd.NewRelation("S", []string{"voter", "score"}, [][]string{{"Ann", "2.5"}, {"Dave", "4"}})
	if err != nil {
		t.Fatal(err)
	}
	if err := db.AddRelation(scores); err != nil {
		t.Fatal(err)
	}
	qs := []*ppd.Query{ppd.MustParse(query)}
	eng := &ppd.Engine{DB: db}
	b, err := eng.Do(context.Background(), &ppd.Request{Kind: ppd.KindBool, Queries: qs})
	if err != nil {
		t.Fatal(err)
	}
	a, err := eng.Do(context.Background(), &ppd.Request{Kind: ppd.KindAggregate, Queries: qs, AggRel: "S", AggAttr: "score"})
	if err != nil {
		t.Fatal(err)
	}
	value := map[string]float64{"Ann": 2.5, "Dave": 4}
	var sum, count float64
	n := 0
	for _, sp := range b.PerSession {
		if v, ok := value[sp.Session.Key[0]]; ok {
			sum += sp.Prob * v
			count += sp.Prob
			n++
		}
	}
	if n != 2 || a.Agg.Sessions != n || a.Agg.Sum != sum || a.Agg.Count != count || a.Count != count {
		t.Fatalf("aggregate sum=%v count=%v over %d sessions, hand fold %v %v over %d", a.Agg.Sum, a.Agg.Count, a.Agg.Sessions, sum, count, n)
	}
}
