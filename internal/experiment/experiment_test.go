package experiment

import (
	"bytes"
	"context"
	"math"
	"strconv"
	"strings"
	"testing"
	"time"

	"probpref/internal/dataset"
	"probpref/internal/ppd"
)

// Every figure driver must run at small scale, produce a non-empty table,
// and print without panicking. This is the integration test for the whole
// reproduction pipeline.
func TestAllFiguresSmall(t *testing.T) {
	if testing.Short() {
		t.Skip("figure drivers are slow; skipped with -short")
	}
	for _, id := range FigureIDs {
		id := id
		t.Run("fig"+id, func(t *testing.T) {
			start := time.Now()
			tab, err := Figures[id](Small)
			if err != nil {
				t.Fatalf("figure %s: %v", id, err)
			}
			if len(tab.Rows) == 0 {
				t.Fatalf("figure %s: empty table", id)
			}
			var buf bytes.Buffer
			tab.Fprint(&buf)
			if !strings.Contains(buf.String(), id) {
				t.Fatalf("figure %s: missing id in rendered title:\n%s", id, buf.String())
			}
			t.Logf("figure %s: %d rows in %v", id, len(tab.Rows), time.Since(start))
		})
	}
}

func TestParseScale(t *testing.T) {
	if s, err := ParseScale("small"); err != nil || s != Small {
		t.Fatal("small")
	}
	if s, err := ParseScale("paper"); err != nil || s != Paper {
		t.Fatal("paper")
	}
	if _, err := ParseScale("bogus"); err == nil {
		t.Fatal("expected error")
	}
}

func TestTableFormatting(t *testing.T) {
	tab := &Table{Title: "Figure X", Columns: []string{"a", "b"}}
	tab.Add(1, 2.5)
	tab.Add("x", 150*time.Millisecond)
	tab.Notes = append(tab.Notes, "a note")
	var buf bytes.Buffer
	tab.Fprint(&buf)
	out := buf.String()
	for _, want := range []string{"Figure X", "2.5000", "150.00ms", "note: a note"} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
}

func TestStats(t *testing.T) {
	s := &stats{}
	for i := 1; i <= 5; i++ {
		s.add(float64(i))
	}
	if s.mean() != 3 {
		t.Errorf("mean = %v", s.mean())
	}
	if s.median() != 3 {
		t.Errorf("median = %v", s.median())
	}
	if s.quantile(1) != 5 || s.quantile(0) != 1 {
		t.Errorf("quantiles wrong")
	}
}

func TestRelErr(t *testing.T) {
	if relErr(1.1, 1.0) < 0.099 || relErr(1.1, 1.0) > 0.101 {
		t.Fatal("relErr wrong")
	}
	if relErr(0.5, 0) != 0.5 {
		t.Fatal("relErr at zero truth wrong")
	}
}

func TestFmtFloat(t *testing.T) {
	if fmtFloat(0) != "0" {
		t.Fatal("zero")
	}
	if !strings.Contains(fmtFloat(1e-7), "e-") {
		t.Fatal("scientific for tiny")
	}
	if _, err := strconv.ParseFloat(fmtFloat(0.25), 64); err != nil {
		t.Fatal("plain float must parse")
	}
}

// The naive baseline solves every session alone, and grouping changes only
// how often a request is solved: each session's probability, and the count
// folded from them, are the grouped evaluation's bit for bit.
func TestNaiveMatchesGrouped(t *testing.T) {
	db, err := dataset.CrowdRank(dataset.CrowdRankConfig{Workers: 50, Movies: 10, Seed: 15})
	if err != nil {
		t.Fatal(err)
	}
	q := ppd.MustParse(dataset.CrowdRankQuery)
	per, err := Naive(context.Background(), db, q)
	if err != nil {
		t.Fatal(err)
	}
	eng := &ppd.Engine{DB: db, Method: ppd.MethodRelOrder}
	resp, err := eng.Do(context.Background(), &ppd.Request{Kind: ppd.KindCount, Queries: []*ppd.Query{q}})
	if err != nil {
		t.Fatal(err)
	}
	if len(per) != len(resp.PerSession) || resp.Solves >= len(per) {
		t.Fatalf("naive solved %d sessions; grouped answered %d with %d solves", len(per), len(resp.PerSession), resp.Solves)
	}
	for i, sp := range per {
		if got := resp.PerSession[i]; got.Session != sp.Session || math.Float64bits(got.Prob) != math.Float64bits(sp.Prob) {
			t.Fatalf("session %d: naive %v = %v, grouped %v = %v", i, sp.Session.Key, sp.Prob, got.Session.Key, got.Prob)
		}
	}
	if _, count := ppd.BoolAggregate(per); math.Float64bits(count) != math.Float64bits(resp.Count) {
		t.Fatalf("naive count %v, grouped %v", count, resp.Count)
	}
}
