package main

import (
	"bytes"
	"context"
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"probpref/internal/ppd"
)

var update = flag.Bool("update", false, "rewrite golden files")

// TestHelpGolden pins the -help output to docs/ppdgen_help.txt, as hardq's
// and hardqd's do theirs: the docs CI job fails when a flag or a dataset
// name changes without regenerating the golden (go test -run Help -update).
func TestHelpGolden(t *testing.T) {
	var buf bytes.Buffer
	if err := run([]string{"-help"}, &buf); err != flag.ErrHelp {
		t.Fatalf("run(-help) = %v, want flag.ErrHelp", err)
	}
	path := filepath.Join("..", "..", "docs", "ppdgen_help.txt")
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

func TestRunRequiresOut(t *testing.T) {
	var buf bytes.Buffer
	if err := run([]string{"-dataset", "figure1"}, &buf); err == nil {
		t.Fatal("want error without -out")
	}
}

func TestRunRejectsUnknownDataset(t *testing.T) {
	var buf bytes.Buffer
	err := run([]string{"-dataset", "nope", "-out", t.TempDir()}, &buf)
	if err == nil || !strings.Contains(err.Error(), "unknown dataset") {
		t.Fatalf("err = %v, want unknown dataset", err)
	}
}

func TestRunRejectsBadFlags(t *testing.T) {
	var buf bytes.Buffer
	if err := run([]string{"-bogus"}, &buf); err == nil {
		t.Fatal("want flag parse error")
	}
}

func TestGenerateFigure1RoundTrips(t *testing.T) {
	dir := t.TempDir()
	var buf bytes.Buffer
	if err := run([]string{"-dataset", "figure1", "-out", dir}, &buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "dataset figure1") {
		t.Errorf("summary missing: %q", buf.String())
	}

	// Reload the written files into a fresh DB and evaluate a query.
	cf, err := os.Open(filepath.Join(dir, "C.csv"))
	if err != nil {
		t.Fatal(err)
	}
	defer cf.Close()
	items, err := ppd.LoadRelationCSV("C", cf)
	if err != nil {
		t.Fatal(err)
	}
	db, err := ppd.NewDB(items)
	if err != nil {
		t.Fatal(err)
	}
	pf, err := os.Open(filepath.Join(dir, "P.json"))
	if err != nil {
		t.Fatal(err)
	}
	defer pf.Close()
	pref, err := ppd.LoadPrefJSON(pf)
	if err != nil {
		t.Fatal(err)
	}
	if err := db.AddPrefRelation(pref); err != nil {
		t.Fatal(err)
	}
	eng := &ppd.Engine{DB: db, Method: ppd.MethodAuto}
	res, err := eng.Do(context.Background(), &ppd.Request{
		Kind:  ppd.KindBool,
		Query: `P(_, _; c1; c2), C(c1, _, "F", _, _, _), C(c2, _, "M", _, _, _)`,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Prob <= 0 || res.Prob > 1 {
		t.Fatalf("reloaded DB evaluated to %v", res.Prob)
	}
	if len(res.PerSession) != 3 {
		t.Fatalf("reloaded DB has %d sessions, want 3", len(res.PerSession))
	}
}

func TestGeneratePollsDeterministic(t *testing.T) {
	dirA, dirB := t.TempDir(), t.TempDir()
	var buf bytes.Buffer
	args := []string{"-dataset", "polls", "-candidates", "8", "-voters", "12", "-seed", "5"}
	if err := run(append(args, "-out", dirA), &buf); err != nil {
		t.Fatal(err)
	}
	if err := run(append(args, "-out", dirB), &buf); err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"C.csv", "V.csv", "P.json"} {
		a, err := os.ReadFile(filepath.Join(dirA, name))
		if err != nil {
			t.Fatal(err)
		}
		b, err := os.ReadFile(filepath.Join(dirB, name))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(a, b) {
			t.Errorf("%s differs between identical-seed runs", name)
		}
	}
}
