// Command benchmark is the repository's end-to-end benchmark: a
// five-workload closed-loop harness over real hardqd processes, plus an
// in-process traced run that peels every layer for its own numbers. See
// README.md in this directory.
//
// Run it from the repository root (the package is its own module, so that
// the root module's build and tests never pick it up):
//
//	go run -C benchmark . [-seed N] [-workload NAME] [-out FILE]
//	go run -C benchmark . -trace            per-layer numbers, in-process
//	go run -C benchmark . -sets 3           a set: medians and quartiles
//	go run -C benchmark . -compare A.json B.json
//	go run -C benchmark . -smoke            20 ops per workload, in-process
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// errFailed marks a completed run whose checks failed (the results were
// printed; the exit code must still be non-zero).
var errFailed = errors.New("benchmark: answers were wrong or operations failed")

func main() {
	err := realMain(os.Args[1:], os.Stdout)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
}

// resultFile is the JSON the benchmark writes (-out): every run made, the
// environment it ran in, and per-workload set statistics.
type resultFile struct {
	Env   environment `json:"env"`
	Seed  int64       `json:"seed"`
	Trace bool        `json:"trace"`
	// Ops is the measured operation count per workload.
	Ops  map[string]int `json:"ops"`
	Runs []*runResult   `json:"runs"`
	// Sets holds, per workload and metric, the median and quartiles over
	// the workload's undisturbed runs.
	Sets map[string]map[string]setStat `json:"sets"`
}

// normalizeArgs lets -trace be a plain switch ("-trace") for people and take
// the driver's separate value ("--trace 1"), which package flag would read
// as a switch followed by a positional argument.
func normalizeArgs(args []string) []string {
	out := make([]string, 0, len(args))
	for i := 0; i < len(args); i++ {
		a := args[i]
		if (a == "-trace" || a == "--trace") && i+1 < len(args) && (args[i+1] == "0" || args[i+1] == "1") {
			out = append(out, "-trace="+args[i+1])
			i++
			continue
		}
		out = append(out, a)
	}
	return out
}

func realMain(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	var (
		workloadName = fs.String("workload", "", "run one workload ("+strings.Join(workloadNames(), " | ")+") and print the driver's result line last; default: all five")
		seed         = fs.Int64("seed", 1, "workload seed: the same seed generates the same operation sequences")
		seconds      = fs.Float64("seconds", referenceSeconds, "accepted because the driver's command line carries it, and unused: a run is a frozen operation count")
		trace        = fs.Bool("trace", false, "traced run: per-layer metrics from the in-process peel, plus the counters of a short out-of-process run")
		sets         = fs.Int("sets", 1, "runs per workload; 3 or more make a set with medians and quartiles, and disturbed runs are rerun (at most twice)")
		out          = fs.String("out", "", "result file (default out/results.json, or out/trace.json with -trace)")
		compare      = fs.Bool("compare", false, "compare two result files: -compare BASE.json NEW.json")
		smoke        = fs.Bool("smoke", false, "smoke pass: 20 ops per workload through in-process handlers, every answer checked")
		recalibrate  = fs.Bool("calibrate", false, "rebuild queries.json, the frozen query pool (changes every workload's inputs: invalidates earlier baselines)")
	)
	if err := fs.Parse(normalizeArgs(args)); err != nil {
		return err
	}
	if *compare {
		if fs.NArg() != 2 {
			return fmt.Errorf("usage: -compare BASE.json NEW.json")
		}
		return compareFiles(stdout, fs.Arg(0), fs.Arg(1))
	}
	if fs.NArg() > 0 {
		return fmt.Errorf("unexpected arguments %v", fs.Args())
	}
	if *sets < 1 {
		return fmt.Errorf("-sets must be positive")
	}
	if *seconds != referenceSeconds {
		fmt.Fprintf(os.Stderr, "note: -seconds %v changes nothing: op counts are frozen, calibrated to measure for about %d s\n", *seconds, referenceSeconds)
	}
	if *recalibrate {
		return calibrate("queries.json")
	}
	ctx := context.Background()
	if *smoke {
		return runSmoke(ctx, stdout, *seed)
	}

	selected := workloads
	if *workloadName != "" {
		w, err := findWorkload(*workloadName)
		if err != nil {
			return err
		}
		selected = []*workload{w}
	}
	// The program runs in benchmark/ (go run -C benchmark .); the module it
	// measures is the parent directory.
	const repoRoot, outDir = "..", "out"
	if err := checkContract(filepath.Join(repoRoot, "BENCHMARK.json")); err != nil {
		return err
	}
	bin, err := buildDaemon(repoRoot, outDir)
	if err != nil {
		return err
	}
	rn := &runner{bin: bin, outDir: outDir, client: newHTTPClient()}
	file := &resultFile{
		Env: readEnvironment(repoRoot), Seed: *seed, Trace: *trace,
		Ops: make(map[string]int), Sets: make(map[string]map[string]setStat),
	}
	failed := false
	for _, w := range selected {
		runs, err := rn.runSet(ctx, w, *seed, *trace, *sets)
		if err != nil {
			return fmt.Errorf("%s: %w", w.name, err)
		}
		file.Ops[w.name] = runs[0].Ops
		file.Runs = append(file.Runs, runs...)
		file.Sets[w.name] = setStats(runs, *trace)
		for _, r := range runs {
			printRun(stdout, w, r, *trace)
			failed = failed || !r.Correct
		}
		if len(runs) > 1 {
			printSet(stdout, w, file.Sets[w.name])
		}
	}
	path := *out
	if path == "" {
		path = filepath.Join(outDir, "results.json")
		if *trace {
			path = filepath.Join(outDir, "trace.json")
		}
	}
	if err := writeJSON(path, file); err != nil {
		return err
	}
	fmt.Fprintf(stdout, "results written to %s\n", path)
	if *workloadName != "" {
		// The driver's contract: one JSON object, last line of stdout.
		fmt.Fprintln(stdout, driverLine(file.Runs[len(file.Runs)-1], *trace))
	}
	if failed {
		return errFailed
	}
	return nil
}

func workloadNames() []string {
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return names
}

func writeJSON(path string, v any) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	b, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

// runOnce makes one run of w: untraced (several set-ups, the full op count)
// or traced (one set-up, a short counter-collecting run, then the
// in-process peel).
func (rn *runner) runOnce(ctx context.Context, w *workload, seed int64, trace bool) (*runResult, error) {
	if !trace {
		g, err := generate(ctx, w, seed, w.ops)
		if err != nil {
			return nil, err
		}
		res, _, err := rn.run(ctx, w, seed, g, runOptions{setups: w.setups, chunks: w.chunks})
		return res, err
	}
	g, err := generate(ctx, w, seed, w.counterOps)
	if err != nil {
		return nil, err
	}
	res, samples, err := rn.run(ctx, w, seed, g, runOptions{setups: 1, chunks: 1, poll: true})
	if err != nil {
		return nil, err
	}
	layers, err := traceWorkload(ctx, w, g, w.traceOps, rn.outDir, samples)
	if err != nil {
		return nil, err
	}
	for name, v := range layers {
		res.Layers[name] = v
	}
	for _, d := range layerDefs {
		if _, ok := res.Layers[d.name]; !ok {
			res.Layers[d.name] = value{Unit: d.unit} // the workload never reaches the layer
		}
	}
	return res, nil
}

// driverLine renders the result line the driver reads: the end-to-end
// metrics every workload has (--trace 0) or every per-layer metric
// (--trace 1).
func driverLine(r *runResult, trace bool) string {
	metrics := make(map[string]value)
	if trace {
		for _, d := range layerDefs {
			metrics[d.name] = value{Value: r.Layers[d.name].Value, Unit: d.unit}
		}
	} else {
		for _, name := range driverMetrics {
			v := r.Metrics[name]
			metrics[name] = value{Value: v.Value, Unit: v.Unit}
		}
	}
	b, err := json.Marshal(map[string]any{
		"correct": r.Correct, "attempted": r.Attempted, "failed": r.Failed, "metrics": metrics,
	})
	if err != nil {
		panic(err) // plain data
	}
	return string(b)
}

// printRun prints every metric of a run by name with its unit and sample
// count.
func printRun(w io.Writer, wl *workload, r *runResult, trace bool) {
	state := "ok"
	if !r.Correct {
		state = "FAILED"
	}
	if r.Disturbed {
		state += ", disturbed"
	}
	fmt.Fprintf(w, "\n== %s  seed %d  %d ops  %d failed  [%s]  probe %.1f/%.1f ms\n", r.Workload, r.Seed, r.Ops, r.Failed, state, r.ProbeMS[0], r.ProbeMS[1])
	fmt.Fprintf(w, "   %s\n", wl.why)
	for _, f := range r.Failures {
		fmt.Fprintf(w, "   ! %s\n", f)
	}
	line := func(name string, v value) {
		n := ""
		if v.N > 0 {
			n = fmt.Sprintf("(n=%d)", v.N)
		}
		fmt.Fprintf(w, "  %-30s %14.4f %-6s %s\n", name, v.Value, v.Unit, n)
	}
	if trace {
		fmt.Fprintf(w, "  (end-to-end numbers of a traced run come from its short counter run: read them from an untraced run)\n")
	}
	for _, d := range endToEndDefs {
		if v, ok := r.Metrics[d.name]; ok {
			line(d.name, v)
		}
	}
	if trace {
		for _, d := range layerDefs {
			line(d.name, r.Layers[d.name])
		}
		return
	}
	// An untraced run still reads the daemons' counters once the clock has
	// stopped.
	names := make([]string, 0, len(r.Layers))
	for name := range r.Layers {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		line("  "+name, r.Layers[name])
	}
}

func printSet(w io.Writer, wl *workload, set map[string]setStat) {
	fmt.Fprintf(w, "\n-- %s set\n", wl.name)
	names := make([]string, 0, len(set))
	for name := range set {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		s := set[name]
		fmt.Fprintf(w, "  %-30s median %14.4f  q1 %14.4f  q3 %14.4f %-6s (runs=%d)\n", name, s.Median, s.Q1, s.Q3, s.Unit, s.N)
	}
}
