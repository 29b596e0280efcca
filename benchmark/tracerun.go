package main

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"probpref/internal/ppd"
	"probpref/internal/server"
	"probpref/internal/store"
	"probpref/internal/wal"
)

// traceWorkload runs the traced, in-process pass over the first n ops of
// g's sequence, writes the span file, and returns every per-layer metric
// the ladders produce (the caller merges in the counters of the
// out-of-process run, when it made one). tcp holds that run's samples for
// the same leading ops; nil skips net.loopback_ms.
func traceWorkload(ctx context.Context, w *workload, g *generated, n int, outDir string, tcp []sample) (map[string]value, error) {
	n = min(n, len(g.seq))
	dir := filepath.Join(outDir, "state", fmt.Sprintf("trace-%s-%d", w.name, os.Getpid()))
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	p, err := newPeeler(ctx, w, g, filepath.Join(dir, "peel"))
	if err != nil {
		return nil, err
	}
	defer p.close()

	begin := time.Now()
	for i := 0; i < n; i++ {
		o := g.seq[i]
		switch {
		case w.cluster:
			err = p.peelCluster(i+1, o)
		case o.class == classIngest:
			err = p.peelIngest(i+1, o)
		default:
			err = p.peelQuery(ctx, i+1, o)
		}
		if err != nil {
			return nil, err
		}
	}
	traced := time.Since(begin)
	if p.cl != nil {
		p.cl.transport.inflight.Wait()
	}

	// The same ops through the outermost in-process entry point alone,
	// untraced, from the same starting state: the warm replica itself for the
	// hot workloads (a hot pass leaves nothing behind but LRU order), a
	// fresh one where the traced pass changed what a second pass would find.
	untraced, err := p.untracedPass(ctx, n, filepath.Join(dir, "plain"))
	if err != nil {
		return nil, err
	}

	if err := p.finishLayers(ctx); err != nil {
		return nil, err
	}
	if err := p.tr.writeJSONL(filepath.Join(outDir, "trace-"+w.name+".jsonl")); err != nil {
		return nil, err
	}
	return p.layers(n, traced, untraced, tcp), nil
}

// untracedPass replays the first n ops through the outermost handler
// without spans and returns the wall time.
func (p *peeler) untracedPass(ctx context.Context, n int, dir string) (time.Duration, error) {
	h := (handlerTarget{})
	switch {
	case p.cl != nil:
		p.cl.transport.begin = nil
		h.h = p.cl.handler
	case p.w.hot:
		h.h = p.s0.handler
	default:
		st, err := newStack(p.w, dir, false)
		if err != nil {
			return 0, err
		}
		defer st.close()
		for _, o := range p.g.warm {
			if status, body, _ := (handlerTarget{st.handler}).do(o); status != 200 {
				return 0, fmt.Errorf("untraced warm-up: status %d: %s", status, firstLine(body))
			}
		}
		h.h = st.handler
	}
	begin := time.Now()
	for i := 0; i < n; i++ {
		if status, body, _ := h.do(p.g.seq[i]); status != 200 {
			return 0, fmt.Errorf("untraced op %d: status %d: %s", i, status, firstLine(body))
		}
	}
	return time.Since(begin), nil
}

// finishLayers takes the one-off measurements that close a traced run:
// registry open/close on every workload, and on the durable one the log's
// replay and reopen and the snapshot's open and first touch, all at the
// run's final model size.
func (p *peeler) finishLayers(ctx context.Context) error {
	if p.s2 != nil {
		const opens = 2000
		start := time.Now()
		for i := 0; i < opens; i++ {
			h, err := p.s2.reg.Open(server.DefaultModel)
			if err != nil {
				return err
			}
			h.Close()
		}
		p.sample("registry.open.ns", float64(time.Since(start))/opens)
	}
	if !p.ingested {
		return nil
	}
	walDir := filepath.Join(p.dir, "wal-always")
	start := time.Now()
	records := 0
	for _, err := range p.walAlways.Replay() {
		if err != nil {
			return err
		}
		records++
	}
	p.tr.add(0, 0, "wal.replay", int64(start.Sub(p.tr.t0)), p.tr.now(), map[string]float64{"records": float64(records)})
	p.sample("wal.replay.ms", msSince(start))
	if err := p.walAlways.Close(); err != nil {
		return err
	}
	start = time.Now()
	l, err := wal.Open(walDir, wal.Options{Sync: wal.SyncAlways})
	if err != nil {
		return err
	}
	p.sample("wal.open.ms", msSince(start))
	p.walAlways = l

	if fi, err := os.Stat(p.snapPath); err == nil {
		p.sample("store.bytes", float64(fi.Size()))
	}
	start = time.Now()
	s, err := store.Open(p.snapPath)
	if err != nil {
		return err
	}
	p.sample("store.open.ms", msSince(start))
	s.Close()
	// First touch: the same uncached count query twice over a freshly opened
	// (mmap-backed) database; the difference is what faulting the pages in
	// cost. Five fresh opens, median.
	req := &ppd.Request{Kind: ppd.KindCount, Query: p.g.warm[0].reqs[0].Query}
	for rep := 0; rep < 5; rep++ {
		s, err := store.Open(p.snapPath)
		if err != nil {
			return err
		}
		eng := &ppd.Engine{DB: s.DB(), Method: ppd.MethodAuto}
		var touch [2]float64
		for i := range touch {
			start = time.Now()
			if _, err := eng.Do(ctx, req); err != nil {
				s.Close()
				return err
			}
			touch[i] = msSince(start)
		}
		s.Close()
		p.sample("store.first_touch.ms", touch[0]-touch[1])
	}
	return nil
}

// layers derives the per-layer metrics from the spans, samples and counts.
func (p *peeler) layers(n int, traced, untraced time.Duration, tcp []sample) map[string]value {
	out := make(map[string]value)
	med := func(name, unit string) {
		if xs := p.samples[name]; len(xs) > 0 {
			// Some samples are differences of two timings (first touch minus
			// second, a span minus its replayed child); see selfMS below.
			out[name] = value{Value: max(median(append([]float64(nil), xs...)), 0), Unit: unit, N: len(xs)}
		}
	}
	for _, d := range layerDefs {
		med(d.name, d.unit) // every metric sampled under its own name
	}

	// Self times and cache timings come from the span tree.
	self := selfTimes(p.tr.spans)
	byName := make(map[string][]float64)
	selfByName := make(map[string][]float64)
	for i := range p.tr.spans {
		s := &p.tr.spans[i]
		byName[s.Name] = append(byName[s.Name], float64(s.durNS()))
		selfByName[s.Name] = append(selfByName[s.Name], float64(self[s.ID]))
	}
	// A ladder level and the next-deeper one run on separate replicas, so
	// where a layer costs less than the noise between two replays the median
	// difference can come out below zero. A negative duration is noise, not
	// a measurement: it reads as 0.
	selfMS := func(metric, span string) {
		if xs := selfByName[span]; len(xs) > 0 {
			out[metric] = value{Value: max(median(xs), 0) / 1e6, Unit: "ms", N: len(xs)}
		}
	}
	selfMS("server.http.self_ms", "server.http")
	selfMS("server.do.self_ms", "server.do")
	selfMS("ppd.do.self_ms", "ppd.do")
	selfMS("registry.append.self_ms", "registry.append")
	selfMS("cluster.http.self_ms", "cluster.http")
	durNS := func(metric, span string) {
		if xs := byName[span]; len(xs) > 0 {
			out[metric] = value{Value: median(xs), Unit: "ns", N: len(xs)}
		}
	}
	durNS("server.cache.get_ns", "server.cache.get")
	durNS("server.cache.put_ns", "server.cache.put")
	durNS("server.plancache.get_ns", "server.plancache.get")

	c := p.counts
	ratio := func(name string, num, den float64) {
		if den > 0 {
			out[name] = value{Value: num / den, Unit: "ratio", N: int(den)}
		}
	}
	ratio("server.cache.hit_ratio", c["cache.hits"], c["cache.hits"]+c["cache.misses"])
	ratio("server.plancache.hit_ratio", c["plans.hits"], c["plans.hits"]+c["plans.misses"])
	ratio("sampling.accept_ratio", c["sampling.accepts"], c["sampling.draws"])
	if c["request_ns"] > 0 {
		// Solver busy time over request time (both summed over the peeled
		// ops): top-k bound solves count, so it is not 0 on a hot workload.
		out["solver.share"] = value{Value: c["solver.busy_ns"] / c["request_ns"], Unit: "ratio", N: n}
	}
	if !p.w.cluster {
		out["server.cache.evictions"] = value{Value: float64(p.cache.Stats().Evictions), Unit: "count"}
		out["solver.solves_per_req"] = value{Value: c["solver.solves"] / float64(n), Unit: "count", N: n}
		for _, algo := range []string{"twolabel", "bipartite", "relorder", "general"} {
			out["solver.algo."+algo+".count"] = value{Value: c["solver.algo."+algo], Unit: "count"}
		}
	}
	if a, b := out["wal.append.us"], out["wal.append_nosync.us"]; a.N > 0 && b.N > 0 {
		out["wal.fsync.us"] = value{Value: max(a.Value-b.Value, 0), Unit: "us", N: a.N}
	}
	if untraced > 0 {
		out["trace.overhead_ratio"] = value{Value: traced.Seconds() / untraced.Seconds(), Unit: "ratio", N: n}
	}
	if len(tcp) > 0 {
		var wire []float64
		for i := 0; i < n && i < len(tcp); i++ {
			if tcp[i].done && tcp[i].status == 200 {
				wire = append(wire, tcp[i].latencyMS())
			}
		}
		if len(wire) > 0 {
			out["net.loopback_ms"] = value{Value: max(median(wire)-median(append([]float64(nil), p.l0MS...)), 0), Unit: "ms", N: len(wire)}
		}
	}
	return out
}
