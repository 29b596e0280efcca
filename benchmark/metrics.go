package main

import (
	"math"
	"os/exec"
	"runtime"
	"sort"
	"strings"
	"sync"
	"time"

	"probpref/internal/dataset"
	"probpref/internal/solver"
)

// value is one reported metric.
type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	// N is the sample count behind a timing or ratio (0 for plain counts).
	N int `json:"n,omitempty"`
}

// metricDef describes one end-to-end metric: its unit, direction, the
// workloads it applies to (nil = all) and the bound by which a set median
// may worsen before -compare calls it a regression.
type metricDef struct {
	name   string
	unit   string
	higher bool // higher is better
	// bound is relative to the baseline median; absSlack, when set, widens
	// it to "bound or absSlack, whichever is larger" (setup_s) and absolute
	// makes the bound an absolute difference (ci_coverage, fail_ratio).
	bound    float64
	absSlack float64
	absolute bool
	// timed marks wall-clock and CPU timings, the values that move with the
	// machine's load; the others are functions of the seeds and the code.
	timed     bool
	workloads []string
}

func (d metricDef) appliesTo(workload string) bool {
	if d.workloads == nil {
		return true
	}
	for _, w := range d.workloads {
		if w == workload {
			return true
		}
	}
	return false
}

var hotWorkloads = []string{"serve_hot", "cluster_hot"}

// endToEndDefs is the benchmark's end-to-end metric table (README.md holds
// the prose). The timing bounds are 2-5 points wider than the issue's: two
// 3-run sets of one commit and one seed, measured back to back on a quiet
// box, differed by 7.7 % in serve_sampled's throughput and 8.3 % in its CPU
// seconds, so the issue's 7 % and 10 % sat inside the noise they must clear. The first five apply to every workload and are never zero:
// they are the ones BENCHMARK.json hands to the driver.
var endToEndDefs = []metricDef{
	{name: "setup_s", unit: "s", bound: 0.25, absSlack: 0.3, timed: true},
	{name: "throughput_rps", unit: "ops/s", higher: true, bound: 0.10, timed: true},
	{name: "latency_p50_ms", unit: "ms", bound: 0.10, timed: true},
	{name: "latency_p95_ms", unit: "ms", bound: 0.15, timed: true},
	{name: "cpu_s_per_kop", unit: "s", bound: 0.12, timed: true},
	{name: "latency_p99_ms", unit: "ms", bound: 0.20, timed: true, workloads: hotWorkloads},
	{name: "topk_p50_ms", unit: "ms", bound: 0.12, timed: true, workloads: hotWorkloads},
	{name: "ingest_ack_p50_ms", unit: "ms", bound: 0.12, timed: true, workloads: []string{"ingest_mixed"}},
	{name: "fail_ratio", unit: "ratio", bound: 0, absolute: true},
	{name: "sampled_rel_err_p50", unit: "ratio", bound: 0.15, workloads: []string{"serve_sampled"}},
	{name: "ci_coverage", unit: "ratio", higher: true, bound: 0.05, absolute: true, workloads: []string{"serve_sampled"}},
}

// driverMetrics are the end-to-end metrics printed on the driver's result
// line (--workload with --trace 0): the ones every workload has.
var driverMetrics = []string{"setup_s", "throughput_rps", "latency_p50_ms", "latency_p95_ms", "cpu_s_per_kop"}

// driverBound is the bound BENCHMARK.json states for every driver metric:
// the share of the parent's median by which it may worsen. It is the widest
// the contract allows, and much wider than -compare's bounds, for two
// reasons the driver's protocol brings and a deliberate same-seed set does
// not have: every driver run uses another seed, and a lone run cannot be
// recognised as disturbed and rerun — the shared reference box has episodes
// of minutes in which everything, CPU seconds included, runs 15-40 % slow
// (README.md, "Spread across seeds").
const driverBound = 0.25

// minBeyond is how many samples must lie beyond a reported percentile.
const minBeyond = 10

// supported reports whether n samples support percentile p: at least
// minBeyond of them lie beyond it.
func supported(n int, p float64) bool {
	return float64(n)*(1-p) >= minBeyond-1e-9
}

// quantile returns the nearest-rank p-quantile of xs (which it sorts).
func quantile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	i := int(math.Ceil(p*float64(len(xs)))) - 1
	return xs[min(max(i, 0), len(xs)-1)]
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// quartiles returns Q1, median and Q3 by the method of Python's
// statistics.quantiles(values, n=4) (exclusive), the one the driver's
// spread check uses.
func quartiles(xs []float64) (q1, q2, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n == 0 {
		return 0, 0, 0
	}
	if n == 1 {
		return s[0], s[0], s[0]
	}
	at := func(k int) float64 {
		pos := float64(k) * float64(n+1) / 4 // 1-based position
		j := int(math.Floor(pos))
		j = min(max(j, 1), n-1)
		delta := pos - float64(j)
		return s[j-1] + delta*(s[j]-s[j-1])
	}
	return at(1), at(2), at(3)
}

// probeRuns and the instance are fixed: the noise probe is 20 two-label
// solves of the first Benchmark-D instance, pure CPU with no allocation
// pattern of its own, timed before and after every workload run.
const probeRuns = 20

var probeInstance = sync.OnceValue(func() dataset.Instance { return dataset.BenchmarkD(1)[0] })

// noiseProbe times the fixed pure-CPU probe and returns milliseconds.
func noiseProbe() float64 {
	in := probeInstance()
	start := time.Now()
	for i := 0; i < probeRuns; i++ {
		if _, err := solver.TwoLabel(in.Model.Model(), in.Lab, in.Union, solver.Options{}); err != nil {
			panic(err) // the instance is a fixed valid two-label union
		}
	}
	return msSince(start)
}

// disturbedBeyond is how far a run's probe may sit from its set's median
// probe before the run is marked disturbed.
const disturbedBeyond = 0.10

// environment is recorded in every result file.
type environment struct {
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	Commit     string `json:"commit"`
	GOOS       string `json:"goos"`
	GOARCH     string `json:"goarch"`
}

func readEnvironment(repoRoot string) environment {
	env := environment{
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		Commit:     "unknown", // the driver's checkout is not a git repository
		GOOS:       runtime.GOOS,
		GOARCH:     runtime.GOARCH,
	}
	cmd := exec.Command("git", "rev-parse", "--short", "HEAD")
	cmd.Dir = repoRoot
	if out, err := cmd.Output(); err == nil {
		env.Commit = strings.TrimSpace(string(out))
	}
	return env
}
