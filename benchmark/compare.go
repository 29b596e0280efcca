package main

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
)

// This file holds the set statistics (several runs of one workload, medians
// and quartiles, disturbed runs rerun) and -compare, which holds two result
// files against the benchmark's own bounds.

// setStat is one metric over the undisturbed runs of a set.
type setStat struct {
	Median float64 `json:"median"`
	Q1     float64 `json:"q1"`
	Q3     float64 `json:"q3"`
	Unit   string  `json:"unit"`
	// N is the number of runs behind the statistic.
	N int `json:"n"`
}

// spread is the set's own quartile spread as a share of its median.
func (s setStat) spread() float64 {
	if s.Median == 0 {
		return 0
	}
	return math.Abs(s.Q3-s.Q1) / math.Abs(s.Median)
}

// maxReruns is how often a disturbed run is rerun.
const maxReruns = 2

// runSet makes n runs of w. With 3 or more it is a set: every run's noise
// probe (the mean of the probe before and after) is held against the set's
// median probe, and a run more than 10 % off is marked disturbed and rerun,
// at most twice — one run in nine on the shared reference box was 25 %
// slow with CPU seconds up as well, and a rerun is cheaper than a verdict
// built on it.
func (rn *runner) runSet(ctx context.Context, w *workload, seed int64, trace bool, n int) ([]*runResult, error) {
	runs := make([]*runResult, n)
	for i := range runs {
		r, err := rn.runOnce(ctx, w, seed, trace)
		if err != nil {
			return nil, err
		}
		runs[i] = r
	}
	if n < 3 {
		return runs, nil
	}
	probe := func(r *runResult) float64 { return (r.ProbeMS[0] + r.ProbeMS[1]) / 2 }
	for attempt := 0; ; attempt++ {
		probes := make([]float64, len(runs))
		for i, r := range runs {
			probes[i] = probe(r)
		}
		mid := median(probes)
		clean := true
		for i, r := range runs {
			r.Disturbed = math.Abs(probe(r)-mid) > disturbedBeyond*mid
			if r.Disturbed && attempt < maxReruns {
				clean = false
				again, err := rn.runOnce(ctx, w, seed, trace)
				if err != nil {
					return nil, err
				}
				runs[i] = again
			}
		}
		if clean {
			return runs, nil
		}
	}
}

// setStats folds a workload's runs into per-metric medians and quartiles,
// leaving disturbed runs out unless nothing else is left.
func setStats(runs []*runResult, trace bool) map[string]setStat {
	var kept []*runResult
	for _, r := range runs {
		if !r.Disturbed {
			kept = append(kept, r)
		}
	}
	if len(kept) == 0 {
		kept = runs
	}
	values := make(map[string][]float64)
	units := make(map[string]string)
	for _, r := range kept {
		src := r.Metrics
		if trace {
			src = r.Layers
		}
		for name, v := range src {
			values[name] = append(values[name], v.Value)
			units[name] = v.Unit
		}
	}
	// The set's noise probe rides along as a pseudo-metric, so that -compare
	// can tell two sets measured on differently loaded machines apart.
	for _, r := range kept {
		values[probeMetric] = append(values[probeMetric], (r.ProbeMS[0]+r.ProbeMS[1])/2)
		units[probeMetric] = "ms"
	}
	out := make(map[string]setStat, len(values))
	for name, xs := range values {
		q1, q2, q3 := quartiles(xs)
		out[name] = setStat{Median: q2, Q1: q1, Q3: q3, Unit: units[name], N: len(xs)}
	}
	return out
}

// probeMetric is the key a set's noise-probe statistic is stored under.
const probeMetric = "probe_ms"

// verdict is -compare's judgement of one metric on one workload.
type verdict string

const (
	verdictOK         verdict = "ok"
	verdictRegression verdict = "REGRESSION"
	verdictUnresolved verdict = "unresolved"
)

// judge holds a new set median against the base one under the metric's
// bound. diff is the relative change in the worsening direction (positive =
// worse), or the absolute one for absolute-bound metrics. A set whose own
// quartile spread exceeds the bound cannot resolve a change of that size,
// and is reported as unresolved rather than as unchanged.
func judge(d metricDef, base, cur setStat) (diff, limit float64, v verdict) {
	worse := cur.Median - base.Median
	if d.higher {
		worse = -worse
	}
	if d.absolute {
		diff, limit = worse, d.bound
	} else {
		if base.Median == 0 {
			return 0, d.bound, verdictOK
		}
		diff, limit = worse/math.Abs(base.Median), d.bound
		if d.absSlack > 0 {
			limit = math.Max(limit, d.absSlack/math.Abs(base.Median))
		}
	}
	switch {
	case diff > limit+1e-12:
		return diff, limit, verdictRegression
	case !d.absolute && (base.spread() > limit || cur.spread() > limit):
		return diff, limit, verdictUnresolved
	}
	return diff, limit, verdictOK
}

func readResultFile(path string) (*resultFile, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var f resultFile
	if err := json.Unmarshal(b, &f); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &f, nil
}

// sameInputs refuses two result files that did not run the same thing: a
// difference between them would be a difference of inputs.
func sameInputs(base, cur *resultFile) error {
	if base.Seed != cur.Seed || base.Trace != cur.Trace {
		return fmt.Errorf("benchmark: not comparable: BASE is seed %d trace %v, NEW is seed %d trace %v", base.Seed, base.Trace, cur.Seed, cur.Trace)
	}
	for wl, n := range base.Ops {
		if m, ok := cur.Ops[wl]; ok && m != n {
			return fmt.Errorf("benchmark: not comparable: %s ran %d ops in BASE and %d in NEW", wl, n, m)
		}
	}
	return nil
}

// compareFiles prints, per workload and end-to-end metric, the relative
// difference of NEW against BASE next to the bound, and fails when any
// difference is beyond its bound or NEW lacks something BASE measured.
func compareFiles(w io.Writer, basePath, newPath string) error {
	base, err := readResultFile(basePath)
	if err != nil {
		return err
	}
	cur, err := readResultFile(newPath)
	if err != nil {
		return err
	}
	if err := sameInputs(base, cur); err != nil {
		return err
	}
	regressions, missing := 0, 0
	names := make([]string, 0, len(base.Sets))
	for name := range base.Sets {
		names = append(names, name)
	}
	sort.Strings(names)
	fmt.Fprintf(w, "%-14s %-22s %14s %14s %9s %9s  %s\n", "workload", "metric", "base", "new", "worse by", "bound", "verdict")
	for _, wl := range names {
		if _, ok := cur.Sets[wl]; !ok {
			fmt.Fprintf(w, "%-14s missing from %s\n", wl, newPath)
			missing++
			continue
		}
		// Two sets whose noise probes sit more than 10 % apart were measured
		// on differently loaded machines: per-run disturbance detection cannot
		// see an episode that slows a whole set, so no timing difference
		// between them is resolved, in either direction. What does not depend
		// on the machine's load (fail_ratio, the sampled estimates' error and
		// coverage) is judged all the same.
		pb, pc := base.Sets[wl][probeMetric].Median, cur.Sets[wl][probeMetric].Median
		shifted := pb > 0 && pc > 0 && math.Abs(pb-pc) > disturbedBeyond*math.Min(pb, pc)
		if shifted {
			fmt.Fprintf(w, "%-14s noise probe %.1f ms against %.1f ms: the sets are not comparable, timings are unresolved\n", wl, pb, pc)
		}
		for _, d := range endToEndDefs {
			b, okB := base.Sets[wl][d.name]
			if !okB || !d.appliesTo(wl) {
				continue
			}
			c, okC := cur.Sets[wl][d.name]
			if !okC {
				fmt.Fprintf(w, "%-14s %-22s %14.4f %14s  missing from %s\n", wl, d.name, b.Median, "-", newPath)
				missing++
				continue
			}
			diff, limit, v := judge(d, b, c)
			if shifted && d.timed {
				v = verdictUnresolved
			}
			if v == verdictRegression {
				regressions++
			}
			unit := "%"
			scale := 100.0
			if d.absolute {
				unit, scale = "", 1
			}
			fmt.Fprintf(w, "%-14s %-22s %14.4f %14.4f %+8.2f%s %8.2f%s  %s\n", wl, d.name, b.Median, c.Median, diff*scale, unit, limit*scale, unit, v)
		}
	}
	if regressions > 0 || missing > 0 {
		return fmt.Errorf("benchmark: %d metric(s) worse than their bound, %d missing from %s", regressions, missing, newPath)
	}
	return nil
}
