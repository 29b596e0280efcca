package main

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite golden files")

var elapsedRe = regexp.MustCompile(`(?m)^elapsed : .*$`)

// checkGolden compares output (with the wall-clock line normalized) to
// testdata/<name>.golden; -update rewrites the files.
func checkGolden(t *testing.T, name, out string) {
	t.Helper()
	got := []byte(elapsedRe.ReplaceAllString(out, "elapsed : <elapsed>"))
	path := filepath.Join("testdata", name+".golden")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden file (run go test -run %s -update): %v", t.Name(), err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("output differs from %s:\n-- got --\n%s\n-- want --\n%s", path, got, want)
	}
}

func TestGolden(t *testing.T) {
	cases := []struct {
		name string
		args []string
	}{
		{"bool", []string{"-dataset", "figure1", "-v"}},
		{"count", []string{"-dataset", "figure1", "-mode", "count"}},
		{"countdist", []string{"-dataset", "figure1", "-mode", "countdist"}},
		{"topk", []string{"-dataset", "figure1", "-mode", "topk", "-k", "2", "-bound", "1"}},
		{"bool_cache", []string{"-dataset", "figure1", "-cache", "1024"}},
		{"bool_cache_repeat", []string{"-dataset", "figure1", "-cache", "1024", "-repeat", "3"}},
		{"topk_cache", []string{"-dataset", "figure1", "-mode", "topk", "-k", "2", "-cache", "8"}},
		{"union", []string{"-dataset", "figure1", "-query",
			`P(_,_; a; b), C(a,_,F,_,_,_), C(b,_,M,_,_,_) | P(_,_; a; b), C(a,D,_,_,JD,_), C(b,R,_,_,_,_)`}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			checkGolden(t, tc.name, runOut(t, tc.args...))
		})
	}
}

func TestRunCacheStatsLine(t *testing.T) {
	out := runOut(t, "-dataset", "figure1", "-cache", "1024")
	if !strings.Contains(out, "cache   : hits=0 misses=3 evictions=0 entries=3/1024") {
		t.Errorf("missing or wrong cache stats line:\n%s", out)
	}
	// With -repeat the timed run solves nothing and probes nothing: the
	// warm-up run's answers are read off the query's grounding, so the
	// cache counts only the warm-up's misses.
	out = runOut(t, "-dataset", "figure1", "-cache", "1024", "-repeat", "2")
	if !strings.Contains(out, "solver calls = 0") || !strings.Contains(out, "hits=0 misses=3") {
		t.Errorf("warm repeat run should solve and probe nothing:\n%s", out)
	}
	// Without -cache no stats line appears.
	if out := runOut(t, "-dataset", "figure1"); strings.Contains(out, "cache   :") {
		t.Errorf("unexpected cache line without -cache:\n%s", out)
	}
}

func runOut(t *testing.T, args ...string) string {
	t.Helper()
	var buf bytes.Buffer
	if err := run(args, &buf); err != nil {
		t.Fatalf("run(%v): %v\noutput:\n%s", args, err, buf.String())
	}
	return buf.String()
}

func TestRunBoolMode(t *testing.T) {
	out := runOut(t, "-dataset", "figure1", "-v")
	for _, want := range []string{"Pr(Q|D)", "count(Q)", "session [Ann 5/5]"} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
}

func TestRunCountDistMode(t *testing.T) {
	out := runOut(t, "-dataset", "figure1", "-mode", "countdist", "-v")
	for _, want := range []string{"distribution over 3 sessions", "mean", "95% interval", "Pr(count = 3)"} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
}

func TestRunTopKMode(t *testing.T) {
	out := runOut(t, "-dataset", "figure1", "-mode", "topk", "-k", "2", "-bound", "1")
	if !strings.Contains(out, "top-2 sessions") || !strings.Contains(out, "bound solves") {
		t.Errorf("unexpected topk output:\n%s", out)
	}
}

func TestRunUnionQuery(t *testing.T) {
	out := runOut(t, "-dataset", "figure1", "-query",
		`P(_,_; a; b), C(a,_,F,_,_,_), C(b,_,M,_,_,_) | P(_,_; a; b), C(a,D,_,_,JD,_), C(b,R,_,_,_,_)`)
	if !strings.Contains(out, " | ") {
		t.Errorf("union separator missing from echo:\n%s", out)
	}
	if !strings.Contains(out, "Pr(Q|D)") {
		t.Errorf("missing result:\n%s", out)
	}
}

func TestRunExplain(t *testing.T) {
	out := runOut(t, "-dataset", "figure1", "-explain", "-query",
		`P(_, _; c1; c2), C(c1, D, _, _, e, _), C(c2, R, _, _, e, _)`)
	if !strings.Contains(out, "two-label") {
		t.Errorf("explain output missing recommendation:\n%s", out)
	}
}

func TestRunExplainUnion(t *testing.T) {
	out := runOut(t, "-dataset", "figure1", "-explain", "-query",
		`P(_,_; a; b), C(a,_,F,_,_,_), C(b,_,M,_,_,_) | P(_,_; a; b), C(a,D,_,_,e,_), C(b,R,_,_,e,_)`)
	for _, want := range []string{"union of 2 disjuncts", "-- merged --", "recommended"} {
		if !strings.Contains(out, want) {
			t.Errorf("explain-union output missing %q:\n%s", want, out)
		}
	}
}

func TestRunErrors(t *testing.T) {
	cases := [][]string{
		{"-dataset", "nope"},
		{"-dataset", "figure1", "-mode", "nope"},
		{"-dataset", "figure1", "-method", "nope"},
		{"-dataset", "figure1", "-query", "not a query("},
		{"-bogusflag"},
	}
	for _, args := range cases {
		var buf bytes.Buffer
		if err := run(args, &buf); err == nil {
			t.Errorf("run(%v): want error", args)
		}
	}
}

// TestGoldenMethodError pins the -method error message: it must enumerate
// every valid method name (including the planner's "adaptive") so a user
// typo is self-correcting.
func TestGoldenMethodError(t *testing.T) {
	var buf bytes.Buffer
	err := run([]string{"-dataset", "figure1", "-method", "bogus"}, &buf)
	if err == nil {
		t.Fatal("want error for -method bogus")
	}
	checkGolden(t, "method_bogus", err.Error()+"\n")
}

// TestRunDeadlineAdaptive is the CLI acceptance path: a 1ms deadline on a
// fixture whose exact inference cannot fit that budget returns a sampled
// answer with a non-zero confidence half-width instead of hanging or
// erroring. The deadline is priced once as a work budget and the estimates
// are seeded, so the answer is a golden.
func TestRunDeadlineAdaptive(t *testing.T) {
	out := runOut(t, "-dataset", "crowdrank", "-workers", "12", "-deadline", "1ms")
	checkGolden(t, "deadline_adaptive", out)
	for _, want := range []string{"method  : adaptive", "deadline: 1ms", "plan    :", "±", "(95%)"} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
	if strings.Contains(out, "sampled = 0,") {
		t.Errorf("1ms deadline should sample the crowdrank groups:\n%s", out)
	}
	if strings.Contains(out, "max half-width = 0\n") {
		t.Errorf("sampled run reports zero half-width:\n%s", out)
	}
}

// TestRunStockDatasetSizes: without -movies each dataset builds its own
// default — CrowdRank the paper's 20-movie HIT, not MovieLens's catalog
// size.
func TestRunStockDatasetSizes(t *testing.T) {
	for ds, want := range map[string]string{
		"crowdrank": "dataset : crowdrank (m=20 items, 500 sessions)\n",
		"movielens": "dataset : movielens (m=120 items, 16 sessions)\n",
	} {
		if out := runOut(t, "-dataset", ds, "-explain"); !strings.HasPrefix(out, want) {
			t.Errorf("-dataset %s: output does not start with %q:\n%s", ds, want, out)
		}
	}
	if out := runOut(t, "-dataset", "crowdrank", "-movies", "8", "-explain"); !strings.HasPrefix(out, "dataset : crowdrank (m=8 items,") {
		t.Errorf("-movies 8 not honoured for crowdrank:\n%s", out)
	}
}

// TestRunDeadlineKeepsForcedMethod: -deadline only implies adaptive when no
// method was forced.
func TestRunDeadlineKeepsForcedMethod(t *testing.T) {
	out := runOut(t, "-dataset", "figure1", "-method", "bipartite", "-deadline", "1s")
	if !strings.Contains(out, "method  : bipartite") {
		t.Errorf("forced method overridden:\n%s", out)
	}
}

func TestRunMethodsProduceSameAnswer(t *testing.T) {
	extract := func(out string) string {
		for _, line := range strings.Split(out, "\n") {
			if strings.HasPrefix(line, "Pr(Q|D)") {
				return line
			}
		}
		return ""
	}
	ref := extract(runOut(t, "-dataset", "figure1", "-method", "auto"))
	if ref == "" {
		t.Fatal("no Pr(Q|D) line")
	}
	for _, m := range []string{"bipartite", "general", "relorder"} {
		got := extract(runOut(t, "-dataset", "figure1", "-method", m))
		if got != ref {
			t.Errorf("method %s: %q != %q", m, got, ref)
		}
	}
}

// TestRunRepeatSameAnswer: a sampled answer does not depend on how many
// evaluations the engine ran before it, so -repeat 3 prints the answer of
// -repeat 1.
func TestRunRepeatSameAnswer(t *testing.T) {
	answer := func(repeat string) string {
		out := runOut(t, "-dataset", "polls", "-candidates", "8", "-voters", "20", "-mode", "count", "-method", "rejection", "-repeat", repeat)
		for _, line := range strings.Split(out, "\n") {
			if strings.HasPrefix(line, "count(Q)") {
				return line
			}
		}
		t.Fatalf("no count(Q) line:\n%s", out)
		return ""
	}
	if once, thrice := answer("1"), answer("3"); once != thrice {
		t.Errorf("-repeat 1 printed %q, -repeat 3 %q", once, thrice)
	}
}

// TestGoldenManifestModel evaluates against a named model picked from a
// manifest instead of the -dataset flags.
func TestGoldenManifestModel(t *testing.T) {
	var buf bytes.Buffer
	if err := run([]string{"-manifest", "testdata/manifest.json", "-model", "polls-small"}, &buf); err != nil {
		t.Fatalf("run: %v\n%s", err, buf.String())
	}
	checkGolden(t, "manifest_model", buf.String())
}

func TestRunManifestDefaultsToFirstModel(t *testing.T) {
	var buf bytes.Buffer
	if err := run([]string{"-manifest", "testdata/manifest.json"}, &buf); err != nil {
		t.Fatalf("run: %v\n%s", err, buf.String())
	}
	if !strings.Contains(buf.String(), "model figure1") {
		t.Fatalf("expected the manifest's first model:\n%s", buf.String())
	}
}

func TestRunManifestErrors(t *testing.T) {
	cases := [][]string{
		{"-manifest", "testdata/manifest.json", "-model", "ghost"},
		{"-manifest", "testdata/does-not-exist.json"},
		{"-model", "figure1"}, // -model without -manifest
		// Dataset-generator flags conflict with -manifest (the manifest
		// spec would silently override them).
		{"-manifest", "testdata/manifest.json", "-dataset", "polls"},
		{"-manifest", "testdata/manifest.json", "-candidates", "5"},
	}
	for _, args := range cases {
		var buf bytes.Buffer
		if err := run(args, &buf); err == nil {
			t.Errorf("run(%v): want error", args)
		}
	}
}

// TestHelpGolden pins the -help output to docs/hardq_help.txt so the
// documented flag reference cannot go stale: the docs CI job fails when a
// flag changes without regenerating the golden (go test -run Help -update).
func TestHelpGolden(t *testing.T) {
	var buf bytes.Buffer
	if err := run([]string{"-help"}, &buf); err != flag.ErrHelp {
		t.Fatalf("run(-help) = %v, want flag.ErrHelp", err)
	}
	path := filepath.Join("..", "..", "docs", "hardq_help.txt")
	if *update {
		if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing help golden (run go test -run TestHelpGolden -update): %v", err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Errorf("-help output differs from %s:\n-- got --\n%s\n-- want --\n%s", path, buf.Bytes(), want)
	}
}
