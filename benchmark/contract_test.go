package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"os"
	"testing"
)

var update = flag.Bool("update", false, "rewrite ../BENCHMARK.json from the tables in the code")

// TestBenchmarkJSONMatchesTheCode keeps the driver's contract file and the
// harness's own tables (workloads and their reasons, driver metrics, layer
// metrics) from drifting apart. Run with -update after changing a table.
func TestBenchmarkJSONMatchesTheCode(t *testing.T) {
	const path = "../BENCHMARK.json"
	want := fromCode()
	if *update {
		if err := os.WriteFile(path, want, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	if err := checkContract(path); err != nil {
		t.Error(err)
	}
}

func TestBenchmarkJSONLimits(t *testing.T) {
	var b benchmarkJSON
	if err := json.Unmarshal(fromCode(), &b); err != nil {
		t.Fatal(err)
	}
	if n := len(b.Workloads); n < 2 || n > 8 {
		t.Errorf("%d workloads, want 2..8", n)
	}
	if n := len(b.PerLayer); n < 1 || n > 128 {
		t.Errorf("%d per-layer metrics, want 1..128", n)
	}
	seen := make(map[string]bool)
	hasSetup := false
	for _, m := range b.EndToEnd {
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
		hasSetup = hasSetup || (m.Name == "setup_s" && m.Unit == "s" && m.Better == "lower")
		seen[m.Name] = true
	}
	if !hasSetup {
		t.Errorf("end_to_end must carry setup_s in s, lower is better")
	}
	for _, m := range b.PerLayer {
		if seen[m.Name] {
			t.Errorf("metric name %s used twice", m.Name)
		}
		seen[m.Name] = true
		if len(m.Name) > 64 || len(m.Unit) > 16 {
			t.Errorf("%s: name or unit too long", m.Name)
		}
	}
	for _, w := range b.Workloads {
		if len(w.Why) > 200 || bytes.ContainsRune([]byte(w.Why), '\n') {
			t.Errorf("%s: why must be one line of at most 200 characters (%d)", w.Name, len(w.Why))
		}
	}
}

// TestDriverLine checks the result line's shape for both trace settings.
func TestDriverLine(t *testing.T) {
	r := &runResult{Correct: true, Attempted: 10, Metrics: map[string]value{}, Layers: map[string]value{}}
	for _, name := range driverMetrics {
		r.Metrics[name] = value{Value: 1.5, Unit: "x"}
	}
	for _, trace := range []bool{false, true} {
		var got struct {
			Correct   *bool                     `json:"correct"`
			Attempted *int                      `json:"attempted"`
			Failed    *int                      `json:"failed"`
			Metrics   map[string]map[string]any `json:"metrics"`
		}
		if err := json.Unmarshal([]byte(driverLine(r, trace)), &got); err != nil {
			t.Fatal(err)
		}
		want := len(driverMetrics)
		if trace {
			want = len(layerDefs)
		}
		if got.Correct == nil || got.Attempted == nil || got.Failed == nil || len(got.Metrics) != want {
			t.Errorf("trace=%v: result line %s: want correct, attempted, failed and %d metrics", trace, driverLine(r, trace), want)
		}
	}
}
