package ppd

import (
	"context"
	"errors"
	"fmt"
	"math"
	"strings"
	"testing"
	"time"

	"probpref/internal/consensus"
	"probpref/internal/label"
	"probpref/internal/pattern"
	"probpref/internal/solver"
)

// TestAdaptiveMatchesExactBitIdentical is the planner's core correctness
// contract: on groups it routes to an exact solver, MethodAdaptive must
// return the exact solver's answer bit-for-bit (same solver function, same
// options — no drift through the planner layer).
func TestAdaptiveMatchesExactBitIdentical(t *testing.T) {
	db := figure1DB(t)
	q := MustParse(`P(_, _; c1; c2), C(c1, _, F, _, _, _), C(c2, _, M, _, _, _)`)
	g, err := NewGrounder(db, q)
	if err != nil {
		t.Fatal(err)
	}
	eng := &Engine{DB: db, Method: MethodAdaptive} // default budget: exact routes
	for _, s := range g.Pref().Sessions.All() {
		gq, err := g.GroundSession(s)
		if err != nil {
			t.Fatal(err)
		}
		if len(gq.Union) == 0 {
			continue
		}
		got, rep, err := eng.solve(context.Background(), MethodAdaptive, 1, s.Model, gq.Union)
		if err != nil {
			t.Fatal(err)
		}
		if rep.Sampled {
			t.Fatalf("default budget routed session %v to sampling (cost %g)", s.Key, rep.Cost)
		}
		var want float64
		switch rep.Method {
		case MethodTwoLabel:
			want, err = solver.TwoLabel(s.Model.Model(), db.Labeling(), gq.Union, solver.Options{})
		case MethodBipartite:
			want, err = solver.Bipartite(s.Model.Model(), db.Labeling(), gq.Union, solver.Options{})
		case MethodRelOrder:
			want, err = solver.RelOrder(s.Model.Model(), db.Labeling(), gq.Union, solver.Options{})
		default:
			t.Fatalf("unexpected routed method %v", rep.Method)
		}
		if err != nil {
			t.Fatal(err)
		}
		if got != want { // bit-identical, not approximately equal
			t.Fatalf("session %v: adaptive %v != %v (%v)", s.Key, got, want, rep.Method)
		}
	}
}

// TestAdaptiveZeroBudgetSamples: with an exhausted budget every group is
// sampled and carries a positive confidence half-width, and the evaluation
// still answers (degrade, don't die).
func TestAdaptiveZeroBudgetSamples(t *testing.T) {
	db := figure1DB(t)
	q := MustParse(`P(_, _; c1; c2), C(c1, _, F, _, _, _), C(c2, _, M, _, _, _)`)
	eng := &Engine{DB: db, Method: MethodAdaptive}

	ctx, cancel := context.WithTimeout(context.Background(), time.Nanosecond)
	defer cancel()
	time.Sleep(time.Millisecond) // deadline certainly expired
	res, err := eng.Do(ctx, &Request{Kind: KindBool, Queries: []*Query{q}})
	if err != nil {
		t.Fatalf("adaptive eval under expired deadline: %v", err)
	}
	if res.Plan == nil {
		t.Fatal("no plan attached")
	}
	if res.Plan.ExactGroups != 0 || res.Plan.SampledGroups != res.Solves {
		t.Fatalf("expired budget should sample every group: %+v (solves %d)", res.Plan, res.Solves)
	}
	if res.Plan.MaxHalfWidth <= 0 || res.Plan.Samples == 0 {
		t.Fatalf("sampled plan missing half-width/samples: %+v", res.Plan)
	}
	if res.Plan.CountHalfWidth <= 0 {
		t.Fatalf("count half-width not propagated: %+v", res.Plan)
	}
	// The estimates must still be near the exact answer (figure1 groups are
	// high-probability events; the sample floor resolves them well).
	exact, err := evalBool(&Engine{DB: db, Method: MethodAuto}, q)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(res.Count-exact.Count) > 3*res.Plan.CountHalfWidth+0.05 {
		t.Fatalf("sampled count %v too far from exact %v (hw %v)", res.Count, exact.Count, res.Plan.CountHalfWidth)
	}
}

// TestAdaptiveExplicitBudgetRouting: a request's deadline is its budget; a
// budget below the predicted cost (1 ns) samples, one above (an hour) goes
// exact.
func TestAdaptiveExplicitBudgetRouting(t *testing.T) {
	db := figure1DB(t)
	q := MustParse(`P(_, _; c1; c2), C(c1, _, F, _, _, _), C(c2, _, M, _, _, _)`)
	eng := &Engine{DB: db, Method: MethodAdaptive}

	res, err := eng.Do(context.Background(), &Request{Kind: KindBool, Queries: []*Query{q}, Deadline: time.Nanosecond})
	if err != nil {
		t.Fatal(err)
	}
	if res.Plan.SampledGroups == 0 {
		t.Fatalf("a 1 ns budget should sample, plan %+v", res.Plan)
	}

	res, err = eng.Do(context.Background(), &Request{Kind: KindBool, Queries: []*Query{q}, Deadline: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	if res.Plan.SampledGroups != 0 || res.Plan.ExactGroups == 0 {
		t.Fatalf("an hour's budget should go exact, plan %+v", res.Plan)
	}
	exact, err := evalBool(&Engine{DB: db, Method: MethodAuto}, q)
	if err != nil {
		t.Fatal(err)
	}
	if res.Prob != exact.Prob {
		t.Fatalf("exact-routed adaptive prob %v != auto %v", res.Prob, exact.Prob)
	}
}

// TestAdaptiveCancelAborts: outright cancellation must abort an adaptive
// evaluation (only deadlines degrade).
func TestAdaptiveCancelAborts(t *testing.T) {
	db := figure1DB(t)
	q := MustParse(`P(_, _; c1; c2), C(c1, _, F, _, _, _), C(c2, _, M, _, _, _)`)
	eng := &Engine{DB: db, Method: MethodAdaptive}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := eng.Do(ctx, &Request{Kind: KindBool, Queries: []*Query{q}}); !errors.Is(err, context.Canceled) {
		t.Fatalf("want context.Canceled, got %v", err)
	}
}

// TestEvalCtxCancelExactMethods: cancellation aborts the exact methods too,
// through the solver DP layers.
func TestEvalCtxCancelExactMethods(t *testing.T) {
	db := figure1DB(t)
	q := MustParse(`P(_, _; c1; c2), C(c1, _, F, _, _, _), C(c2, _, M, _, _, _)`)
	for _, m := range []Method{MethodAuto, MethodTwoLabel, MethodBipartite, MethodGeneral, MethodRelOrder} {
		eng := &Engine{DB: db, Method: m}
		ctx, cancel := context.WithCancel(context.Background())
		cancel()
		if _, err := eng.Do(ctx, &Request{Kind: KindBool, Queries: []*Query{q}}); !errors.Is(err, context.Canceled) {
			t.Fatalf("method %v: want context.Canceled, got %v", m, err)
		}
	}
}

// TestEstimateCostShapes checks the estimator's routing features: two-label
// unions get a finite two-label/bipartite cost, wider patterns cost more,
// and the cost grows with the model size.
func TestEstimateCostShapes(t *testing.T) {
	db := figure1DB(t)
	q := MustParse(`P(_, _; c1; c2), C(c1, _, F, _, _, _), C(c2, _, M, _, _, _)`)
	g, err := NewGrounder(db, q)
	if err != nil {
		t.Fatal(err)
	}
	s := g.Pref().Sessions.At(0)
	gq, err := g.GroundSession(s)
	if err != nil {
		t.Fatal(err)
	}
	est := EstimateCost(s.Model, db.Labeling(), gq.Union, 12)
	if est.Solver != MethodTwoLabel && est.Solver != MethodBipartite && est.Solver != MethodRelOrder {
		t.Fatalf("unexpected solver %v", est.Solver)
	}
	if math.IsInf(est.States, 1) || est.States <= 0 {
		t.Fatalf("unusable cost %v", est.States)
	}
	// A zero-involved-items limit leaves the tracker-based solvers only.
	est2 := EstimateCost(s.Model, db.Labeling(), gq.Union, 0)
	if est2.Solver == MethodRelOrder {
		t.Fatalf("relorder chosen despite zero involved-item limit")
	}
}

// TestDetachDeadline checks the two DetachDeadline behaviors the planner
// relies on: an expired deadline does not propagate, a cancellation does.
func TestDetachDeadline(t *testing.T) {
	parent, cancel := context.WithTimeout(context.Background(), time.Nanosecond)
	defer cancel()
	time.Sleep(time.Millisecond)
	d, stop := DetachDeadline(parent)
	defer stop()
	if d.Err() != nil {
		t.Fatalf("deadline leaked through: %v", d.Err())
	}
	if _, ok := d.Deadline(); ok {
		t.Fatal("detached context still has a deadline")
	}

	parent2, cancel2 := context.WithCancel(context.Background())
	d2, stop2 := DetachDeadline(parent2)
	defer stop2()
	cancel2()
	select {
	case <-d2.Done():
	case <-time.After(2 * time.Second):
		t.Fatal("cancellation did not propagate through DetachDeadline")
	}

	// A custom cancellation cause is still an outright cancellation, not a
	// deadline expiry.
	parent3, cancel3 := context.WithCancelCause(context.Background())
	d3, stop3 := DetachDeadline(parent3)
	defer stop3()
	cancel3(errors.New("client went away"))
	select {
	case <-d3.Done():
	case <-time.After(2 * time.Second):
		t.Fatal("cause-cancellation did not propagate through DetachDeadline")
	}
}

// TestParseMethodAdaptiveAndErrors holds the method table to its readers:
// every method's canonical name round-trips through ParseMethod, every
// listed name and alias parses, the error of an unknown name enumerates the
// valid ones, PlanAlgo and Exact hold for exactly the methods that compile
// plans and answer exactly, and a value outside the table is refused by
// every kind of request the engine answers.
func TestParseMethodAdaptiveAndErrors(t *testing.T) {
	names := []string{"auto", "two-label", "bipartite", "general", "relorder",
		"mis-amp-adaptive", "mis-amp-lite", "rejection", "adaptive"}
	for i, name := range names {
		m := Method(i)
		if m.String() != name {
			t.Errorf("Method(%d).String() = %q, want %q", i, m.String(), name)
		}
		if got, err := ParseMethod(m.String()); err != nil || got != m {
			t.Errorf("ParseMethod(%q) = %v, %v; want %v", m.String(), got, err, m)
		}
	}
	for _, m := range []Method{-1, Method(len(names))} {
		if got, want := m.String(), fmt.Sprintf("method(%d)", int(m)); got != want {
			t.Errorf("Method(%d).String() = %q, want %q", int(m), got, want)
		}
	}
	for alias, want := range map[string]Method{
		"twolabel": MethodTwoLabel, "mis-adaptive": MethodMISAdaptive,
		"mis-lite": MethodMISLite, "lite": MethodMISLite, "rs": MethodRejection,
		"planner": MethodAdaptive, "Adaptive": MethodAdaptive,
	} {
		if got, err := ParseMethod(alias); err != nil || got != want {
			t.Errorf("ParseMethod(%q) = %v, %v; want %v", alias, got, err, want)
		}
	}
	_, err := ParseMethod("bogus")
	if err == nil {
		t.Fatal("want error for bogus method")
	}
	for _, name := range MethodNames() {
		if !strings.Contains(err.Error(), name) {
			t.Fatalf("error %q does not enumerate %q", err.Error(), name)
		}
		if _, perr := ParseMethod(name); perr != nil {
			t.Fatalf("listed name %q does not parse: %v", name, perr)
		}
	}

	// Exactness and compiled plans.
	two := pattern.Union{pattern.TwoLabel(label.NewSet(0), label.NewSet(1))}
	chain := pattern.Union{pattern.MustNew(
		[]pattern.Node{{Labels: label.NewSet(0)}, {Labels: label.NewSet(1)}, {Labels: label.NewSet(2)}},
		[][2]int{{0, 1}, {1, 2}})}
	for i := range names {
		m := Method(i)
		exact := m <= MethodRelOrder
		if m.Exact() != exact {
			t.Errorf("%v.Exact() = %v, want %v", m, m.Exact(), exact)
		}
		planned := m == MethodAuto || m == MethodTwoLabel || m == MethodBipartite || m == MethodRelOrder
		if _, ok := PlanAlgo(m, two); ok != planned {
			t.Errorf("PlanAlgo(%v, two-label) ok = %v, want %v", m, ok, planned)
		}
		if _, ok := PlanAlgo(m, chain); ok != (planned && m != MethodBipartite) {
			t.Errorf("PlanAlgo(%v, chain) ok = %v", m, ok)
		}
	}
	if Method(42).Exact() {
		t.Error("Method(42).Exact() = true")
	}
	if _, ok := PlanAlgo(Method(42), two); ok {
		t.Error("PlanAlgo(Method(42)) ok")
	}

	// A value outside the table answers nothing.
	db := figure1DB(t)
	eng := &Engine{DB: db, Method: Method(42)}
	q := `P(_, _; c1; c2), C(c1, _, F, _, _, _), C(c2, _, M, _, _, _)`
	for _, req := range []*Request{
		{Kind: KindBool, Query: q},
		{Kind: KindTopK, Query: q, K: 1},
		{Kind: KindAggregate, Query: q, AggRel: "V", AggAttr: "age"},
		{Kind: KindConsensus, Query: q, ConsensusTarget: consensus.TargetMedian},
	} {
		_, err := eng.Do(context.Background(), req)
		if err == nil || err.Error() != "ppd: unknown method method(42)" {
			t.Errorf("%v under Method(42): err %v", req.Kind, err)
		}
	}
}

// TestAdaptiveEmptyUnion: a union without patterns matches nothing, exactly
// and for free, under any budget — an expired deadline included.
func TestAdaptiveEmptyUnion(t *testing.T) {
	db := figure1DB(t)
	s := db.Prefs["P"].Sessions.At(0)
	ctx, cancel := context.WithTimeout(context.Background(), time.Nanosecond)
	defer cancel()
	time.Sleep(time.Millisecond)
	eng := &Engine{DB: db, Method: MethodAdaptive}
	for _, c := range []context.Context{context.Background(), ctx} {
		rn, c, cancel := eng.start(c, MethodAuto, 0, 0)
		budget := DefaultAdaptiveBudget
		if rn.priced {
			budget = rn.budget
		}
		p, rep, err := eng.solveRoute(c, 1, s.Model, nil, eng.route(s.Model, nil, budget))
		cancel()
		if err != nil || p != 0 || rep.Sampled || rep.Method != MethodAuto || rep.Cost != 0 {
			t.Fatalf("empty union: p %v report %+v err %v, want an exact 0", p, rep, err)
		}
	}
}
