package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// verdictsOf runs -compare on two fixtures and returns the verdict column
// keyed by "workload metric".
func verdictsOf(t *testing.T, base, cur string) (map[string]string, error) {
	t.Helper()
	var buf bytes.Buffer
	err := compareFiles(&buf, "testdata/"+base, "testdata/"+cur)
	out := make(map[string]string)
	for _, line := range strings.Split(buf.String(), "\n")[1:] {
		f := strings.Fields(line)
		if len(f) == 7 { // metric rows only, not the noise-probe notes
			out[f[0]+" "+f[1]] = f[len(f)-1]
		}
	}
	return out, err
}

func TestCompareWithinBounds(t *testing.T) {
	got, err := verdictsOf(t, "compare_base.json", "compare_within.json")
	if err != nil {
		t.Fatalf("differences inside their bounds must pass: %v", err)
	}
	for key, want := range map[string]string{
		"serve_hot setup_s":                 "ok",         // +17 %: inside 25 % (and inside +0.3 s)
		"serve_hot throughput_rps":          "ok",         // -4.7 % against -10 %
		"serve_hot latency_p95_ms":          "ok",         // improved
		"serve_hot latency_p99_ms":          "unresolved", // the new set's own spread (21 %) exceeds the 20 % bound
		"serve_sampled ci_coverage":         "ok",         // -0.03 absolute against -0.05
		"serve_sampled fail_ratio":          "ok",
		"serve_sampled throughput_rps":      "ok",
		"serve_hot fail_ratio":              "ok",
		"serve_hot topk_p50_ms":             "ok",
		"serve_sampled sampled_rel_err_p50": "ok",
	} {
		if got[key] != want {
			t.Errorf("%s: verdict %q, want %q", key, got[key], want)
		}
	}
	if _, ok := got["serve_sampled topk_p50_ms"]; ok {
		t.Errorf("topk_p50_ms does not apply to serve_sampled")
	}
}

func TestCompareBeyondBounds(t *testing.T) {
	got, err := verdictsOf(t, "compare_base.json", "compare_worse.json")
	if err == nil {
		t.Fatalf("a regression beyond its bound must fail the comparison")
	}
	for key, want := range map[string]string{
		"serve_hot throughput_rps":          "REGRESSION", // -11.8 % against -10 %
		"serve_hot fail_ratio":              "REGRESSION", // any increase
		"serve_hot latency_p50_ms":          "ok",
		"serve_sampled throughput_rps":      "ok",         // twice as fast ...
		"serve_sampled sampled_rel_err_p50": "REGRESSION", // ... bought with 3x the error
		"serve_sampled ci_coverage":         "REGRESSION", // -0.10 absolute against -0.05
	} {
		if got[key] != want {
			t.Errorf("%s: verdict %q, want %q", key, got[key], want)
		}
	}
}

// TestCompareRefusesDifferentlyLoadedSets: a set measured during a slow
// episode of the machine looks like a regression (or hides one); when the
// two sets' noise probes differ by more than 10 %, timings are unresolved
// and only the counted metrics are judged.
func TestCompareRefusesDifferentlyLoadedSets(t *testing.T) {
	withProbe := func(name string, probeMS string) string {
		b, err := os.ReadFile("testdata/" + name)
		if err != nil {
			t.Fatal(err)
		}
		entry := `"probe_ms": {"median": ` + probeMS + `, "q1": ` + probeMS + `, "q3": ` + probeMS + `, "unit": "ms", "n": 3},`
		out := strings.ReplaceAll(string(b), `"setup_s":`, entry+"\n      \"setup_s\":")
		path := filepath.Join(t.TempDir(), name)
		if err := os.WriteFile(path, []byte(out), 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	var buf bytes.Buffer
	err := compareFiles(&buf, withProbe("compare_base.json", "190"), withProbe("compare_worse.json", "250"))
	if err == nil || !strings.Contains(buf.String(), "not comparable") {
		t.Fatalf("want the probe note and a failure for fail_ratio alone, got %v\n%s", err, buf.String())
	}
	for _, line := range strings.Split(buf.String(), "\n") {
		if strings.HasPrefix(line, "serve_hot") && strings.Contains(line, "throughput_rps") && !strings.HasSuffix(line, "unresolved") {
			t.Errorf("serve_hot throughput under a 30 %% probe shift must be unresolved: %s", line)
		}
		if strings.HasPrefix(line, "serve_hot") && strings.Contains(line, "fail_ratio") && !strings.HasSuffix(line, "REGRESSION") {
			t.Errorf("a counted metric is judged whatever the probes say: %s", line)
		}
		if strings.Contains(line, "sampled_rel_err_p50") && !strings.HasSuffix(line, "REGRESSION") {
			t.Errorf("the sampled error depends on the seeds, not on the machine's load, and is judged: %s", line)
		}
	}
}

// edited writes a copy of a fixture with one substring replaced.
func edited(t *testing.T, name, old, new string) string {
	t.Helper()
	b, err := os.ReadFile("testdata/" + name)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(b), old) {
		t.Fatalf("%s does not contain %q", name, old)
	}
	path := filepath.Join(t.TempDir(), name)
	if err := os.WriteFile(path, []byte(strings.Replace(string(b), old, new, 1)), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// A NEW file that lacks a workload or a metric BASE measured hides whatever
// happened to it: the comparison fails.
func TestCompareFailsOnMissing(t *testing.T) {
	for _, c := range []struct{ what, old, new string }{
		{"workload", `"serve_sampled": {`, `"serve_other": {`},
		{"metric", `"topk_p50_ms":`, `"topk_other_ms":`},
	} {
		var buf bytes.Buffer
		err := compareFiles(&buf, "testdata/compare_base.json", edited(t, "compare_within.json", c.old, c.new))
		if err == nil || !strings.Contains(buf.String(), "missing from") {
			t.Errorf("a %s missing from NEW must fail the comparison, got %v\n%s", c.what, err, buf.String())
		}
	}
}

// Sets of different seeds or op counts ran different inputs.
func TestCompareRefusesDifferentInputs(t *testing.T) {
	for _, c := range []struct{ old, new string }{
		{`"seed": 1,`, `"seed": 2,`},
		{`"serve_hot": 1008,`, `"serve_hot": 504,`},
		{`"trace": false,`, `"trace": true,`},
	} {
		var buf bytes.Buffer
		err := compareFiles(&buf, "testdata/compare_base.json", edited(t, "compare_within.json", c.old, c.new))
		if err == nil || !strings.Contains(err.Error(), "not comparable") {
			t.Errorf("%s -> %s: want a refusal, got %v", c.old, c.new, err)
		}
	}
}
