package ppd

import (
	"bytes"
	"context"
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"testing"
	"time"

	"probpref/internal/consensus"
)

var updateGolden = flag.Bool("update", false, "rewrite golden files")

func TestParseKindRoundTrip(t *testing.T) {
	for _, name := range KindNames() {
		k, err := ParseKind(name)
		if err != nil {
			t.Fatalf("ParseKind(%q): %v", name, err)
		}
		if k.String() != name {
			t.Errorf("ParseKind(%q).String() = %q", name, k.String())
		}
	}
	if _, err := ParseKind("nope"); err == nil {
		t.Error("ParseKind(nope): want error")
	}
}

func TestKindStringUnknown(t *testing.T) {
	if got := Kind(42).String(); got != "kind(42)" {
		t.Errorf("Kind(42).String() = %q", got)
	}
}

// TestCompileErrorGolden pins the exact error text of every contradictory
// Request shape: the errors are part of the API (CLI users and HTTP clients
// read them verbatim), and the enumerated-value ones must keep listing the
// full closed set, mirroring ParseMethod.
func TestCompileErrorGolden(t *testing.T) {
	q := MustParseUnion(`P(_, _; a; b), C(a, _, F, _, _, _)`).Disjuncts[0]
	cases := []struct {
		name string
		req  Request
	}{
		{"unknown kind", Request{Kind: Kind(7), Query: "x"}},
		{"negative kind", Request{Kind: Kind(-1), Query: "x"}},
		{"unknown method", Request{Kind: KindBool, Method: Method(99), Query: "x"}},
		{"no query", Request{Kind: KindBool}},
		{"both query forms", Request{Kind: KindBool, Query: "x", Queries: []*Query{q}}},
		{"k without topk", Request{Kind: KindBool, Queries: []*Query{q}, K: 3}},
		{"bound without topk", Request{Kind: KindCount, Queries: []*Query{q}, BoundEdges: 1}},
		{"topk without k", Request{Kind: KindTopK, Queries: []*Query{q}}},
		{"topk negative bound", Request{Kind: KindTopK, Queries: []*Query{q}, K: 2, BoundEdges: -1}},
		{"aggregate without target", Request{Kind: KindAggregate, Queries: []*Query{q}}},
		{"aggregate union", Request{Kind: KindAggregate, AggRel: "V", AggAttr: "age",
			Queries: MustParseUnion(`P(_, _; a; b), C(a, _, F, _, _, _) | P(_, _; a; b), C(a, D, _, _, _, _)`).Disjuncts}},
		{"agg fields without aggregate", Request{Kind: KindBool, Queries: []*Query{q}, AggRel: "V", AggAttr: "age"}},
		{"consensus without target", Request{Kind: KindConsensus, Queries: []*Query{q}}},
		{"consensus unknown target", Request{Kind: KindConsensus, Queries: []*Query{q}, ConsensusTarget: consensus.Target(9)}},
		{"target without consensus", Request{Kind: KindBool, Queries: []*Query{q}, ConsensusTarget: consensus.TargetMedian}},
		{"consensus topk without k", Request{Kind: KindConsensus, Queries: []*Query{q}, ConsensusTarget: consensus.TargetTopK}},
		{"consensus k without topk", Request{Kind: KindConsensus, Queries: []*Query{q}, ConsensusTarget: consensus.TargetMedian, K: 3}},
		{"consensus bound", Request{Kind: KindConsensus, Queries: []*Query{q}, ConsensusTarget: consensus.TargetTopK, K: 2, BoundEdges: 1}},
		{"negative deadline", Request{Kind: KindBool, Queries: []*Query{q}, Deadline: -time.Second}},
		{"parse error passthrough", Request{Kind: KindBool, Query: "not a query("}},
		{"invalid single query", Request{Kind: KindBool, Queries: []*Query{{}}}},
	}
	var buf bytes.Buffer
	for _, tc := range cases {
		_, err := tc.req.Compile()
		if err == nil {
			t.Errorf("%s: want error", tc.name)
			continue
		}
		fmt.Fprintf(&buf, "%-28s %s\n", tc.name+":", err)
	}
	path := filepath.Join("testdata", "compile_errors.golden")
	if *updateGolden {
		if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden file (run go test -run TestCompileErrorGolden -update): %v", err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Errorf("error text differs from %s:\n-- got --\n%s\n-- want --\n%s", path, buf.Bytes(), want)
	}
}

func TestCompileValidRequests(t *testing.T) {
	valid := []Request{
		{Kind: KindBool, Query: `P(_, _; a; b), C(a, _, F, _, _, _)`},
		{Kind: KindCount, Query: `P(_, _; a; b), C(a, _, F, _, _, _)`, Method: MethodBipartite, Seed: 7},
		{Kind: KindTopK, Query: `P(_, _; a; b), C(a, _, F, _, _, _)`, K: 2},
		{Kind: KindTopK, Query: `P(_, _; a; b), C(a, _, F, _, _, _)`, K: 1, BoundEdges: 2, Deadline: time.Second},
		{Kind: KindAggregate, Query: `P(_, _; a; b), C(a, _, F, _, _, _)`, AggRel: "V", AggAttr: "age"},
		{Kind: KindCountDist, Query: `P(_, _; a; b), C(a, _, F, _, _, _) | P(_, _; a; b), C(a, D, _, _, _, _)`},
		{Kind: KindConsensus, Query: `P(_, _; a; b), C(a, _, F, _, _, _)`, ConsensusTarget: consensus.TargetMAP},
		{Kind: KindConsensus, Query: `P(_, _; a; b), C(a, _, F, _, _, _)`, ConsensusTarget: consensus.TargetMedian, Seed: 5},
		{Kind: KindConsensus, Query: `P(_, _; a; b), C(a, _, F, _, _, _)`, ConsensusTarget: consensus.TargetTopK, K: 2},
	}
	for i, req := range valid {
		cr, err := req.Compile()
		if err != nil {
			t.Errorf("request %d: %v", i, err)
			continue
		}
		if cr.Kind != req.Kind || cr.Union == nil || len(cr.Union.Disjuncts) == 0 {
			t.Errorf("request %d: bad compiled form %+v", i, cr)
		}
		if cr.Key() == "" {
			t.Errorf("request %d: empty key", i)
		}
	}
}

// TestCompiledRequestKey: the key must separate requests that differ in any
// load-bearing field and agree for equal requests.
func TestCompiledRequestKey(t *testing.T) {
	base := Request{Kind: KindTopK, Query: `P(_, _; a; b), C(a, _, F, _, _, _)`, K: 2}
	same := base
	variants := []Request{
		{Kind: KindBool, Query: base.Query},
		{Kind: KindTopK, Query: base.Query, K: 3},
		{Kind: KindTopK, Query: base.Query, K: 2, BoundEdges: 1},
		{Kind: KindTopK, Query: base.Query, K: 2, Model: "other"},
		{Kind: KindTopK, Query: base.Query, K: 2, Method: MethodGeneral},
		{Kind: KindTopK, Query: base.Query, K: 2, Seed: 9},
		{Kind: KindTopK, Query: `P(_, _; a; b), C(a, D, _, _, _, _)`, K: 2},
		{Kind: KindConsensus, Query: base.Query, ConsensusTarget: consensus.TargetTopK, K: 2},
	}
	baseKey := base.MustCompile().Key()
	if got := same.MustCompile().Key(); got != baseKey {
		t.Errorf("equal requests disagree: %q vs %q", got, baseKey)
	}
	for i, v := range variants {
		if got := v.MustCompile().Key(); got == baseKey {
			t.Errorf("variant %d collides with base key %q", i, baseKey)
		}
	}
	med := Request{Kind: KindConsensus, Query: base.Query, ConsensusTarget: consensus.TargetMedian}
	mp := Request{Kind: KindConsensus, Query: base.Query, ConsensusTarget: consensus.TargetMAP}
	if med.MustCompile().Key() == mp.MustCompile().Key() {
		t.Error("consensus requests differing only in target share a key")
	}
}

// TestResponseSessionsStreams: the iterator yields the rows in order, stops
// when the consumer stops, and surfaces a cancelled context as the final
// error instead of yielding further rows.
func TestResponseSessionsStreams(t *testing.T) {
	db := figure1DB(t)
	eng := &Engine{DB: db}
	resp, err := eng.Do(context.Background(), &Request{
		Kind:  KindTopK,
		Query: `P(_, _; c1; c2), C(c1, _, F, _, _, _), C(c2, _, M, _, _, _)`,
		K:     3,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(resp.Top) == 0 {
		t.Fatal("no topk rows")
	}

	var rows []SessionProb
	for sp, err := range resp.Sessions(context.Background()) {
		if err != nil {
			t.Fatalf("unexpected stream error: %v", err)
		}
		rows = append(rows, sp)
	}
	if len(rows) != len(resp.Top) {
		t.Fatalf("streamed %d rows, want %d", len(rows), len(resp.Top))
	}

	// Cancel mid-stream: the iterator must stop emitting rows and yield the
	// cancellation as its final error.
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var got int
	var streamErr error
	for _, err := range resp.Sessions(ctx) {
		if err != nil {
			streamErr = err
			break
		}
		got++
		cancel()
	}
	if got != 1 {
		t.Fatalf("cancelled stream emitted %d rows, want 1", got)
	}
	if !errors.Is(streamErr, context.Canceled) {
		t.Fatalf("want context.Canceled, got %v", streamErr)
	}
}

// TestEngineDoDeadline: Request.Deadline arms a real deadline — an
// un-meetable one aborts exact evaluation with DeadlineExceeded.
func TestEngineDoDeadline(t *testing.T) {
	db := figure1DB(t)
	eng := &Engine{DB: db}
	req := &Request{
		Kind:     KindBool,
		Query:    `P(_, _; c1; c2), C(c1, _, F, _, _, _), C(c2, _, M, _, _, _)`,
		Deadline: time.Nanosecond,
	}
	time.Sleep(time.Millisecond)
	if _, err := eng.Do(context.Background(), req); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("want DeadlineExceeded, got %v", err)
	}
}

// TestEngineDoSeedAndMethodOverride: per-request Seed/Method must not
// mutate the engine, and a seeded sampling request must be reproducible.
func TestEngineDoSeedAndMethodOverride(t *testing.T) {
	db := figure1DB(t)
	eng := &Engine{DB: db, Method: MethodAuto}
	req := &Request{
		Kind:   KindBool,
		Query:  `P(_, _; c1; c2), C(c1, _, F, _, _, _), C(c2, _, M, _, _, _)`,
		Method: MethodRejection,
		Seed:   42,
	}
	a, err := eng.Do(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	if eng.Method != MethodAuto {
		t.Fatalf("engine method mutated to %v", eng.Method)
	}
	b, err := eng.Do(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	if a.Prob != b.Prob {
		t.Fatalf("seeded request not reproducible: %v vs %v", a.Prob, b.Prob)
	}
	exact, err := eng.Do(context.Background(), &Request{Kind: KindBool, Query: req.Query})
	if err != nil {
		t.Fatal(err)
	}
	if a.Prob == exact.Prob {
		t.Logf("rejection estimate happens to equal the exact answer (%v); harmless", a.Prob)
	}
}

// TestDoTextualQueryMatchesPreParsed: a Request carrying the query text
// must answer identically to one carrying the pre-parsed disjuncts.
func TestDoTextualQueryMatchesPreParsed(t *testing.T) {
	db := figure1DB(t)
	ctx := context.Background()
	const src = `P(_, _; c1; c2), C(c1, _, F, _, _, _), C(c2, _, M, _, _, _)`
	textual, err := (&Engine{DB: db}).Do(ctx, &Request{Kind: KindBool, Query: src})
	if err != nil {
		t.Fatal(err)
	}
	parsed, err := (&Engine{DB: db}).Do(ctx, &Request{Kind: KindBool, Queries: MustParseUnion(src).Disjuncts})
	if err != nil {
		t.Fatal(err)
	}
	if textual.Prob != parsed.Prob || textual.Count != parsed.Count || textual.Solves != parsed.Solves ||
		len(textual.PerSession) != len(parsed.PerSession) {
		t.Fatalf("textual %+v\nparsed  %+v", textual, parsed)
	}
	for i, sp := range textual.PerSession {
		if got := parsed.PerSession[i]; got.Session != sp.Session || got.Prob != sp.Prob {
			t.Errorf("row %d: textual %v %v, parsed %v %v", i, sp.Session.Key, sp.Prob, got.Session.Key, got.Prob)
		}
	}
}
