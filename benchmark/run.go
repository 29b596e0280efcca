package main

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"probpref/internal/cluster"
	"probpref/internal/pool"
	"probpref/internal/ppd"
	"probpref/internal/server"
)

// This file runs one workload out of process: boot the daemon topology,
// replay the generated sequence from the closed-loop clients, check every
// answer, and turn the samples into the end-to-end metrics.

// runResult is everything one run of one workload produced.
type runResult struct {
	Workload string `json:"workload"`
	Seed     int64  `json:"seed"`
	// Ops is the operation count of the measured sequence.
	Ops       int  `json:"ops"`
	Attempted int  `json:"attempted"`
	Failed    int  `json:"failed"`
	Correct   bool `json:"correct"`
	// Disturbed marks a run whose noise probe sat more than 10 % from the
	// set's median probe.
	Disturbed bool `json:"disturbed,omitempty"`
	// ProbeMS is the noise probe before and after the run.
	ProbeMS [2]float64 `json:"probe_ms"`
	// Metrics are the end-to-end metrics (untraced, out of process).
	Metrics map[string]value `json:"metrics,omitempty"`
	// Layers are the per-layer metrics (-trace).
	Layers map[string]value `json:"layers,omitempty"`
	// Failures describes the first few failed ops.
	Failures []string `json:"failures,omitempty"`
}

func (r *runResult) fail(format string, args ...any) {
	r.Failed++
	if len(r.Failures) < 8 {
		r.Failures = append(r.Failures, fmt.Sprintf(format, args...))
	}
}

// runner carries what every run of the process shares.
type runner struct {
	bin      string // built hardqd
	outDir   string // benchmark/out
	client   *http.Client
	stateSeq int
}

// topology is a booted set of daemons for one workload.
type topology struct {
	procs    []*proc // every server process; the last one faces the clients
	stateDir string
	setupS   float64
}

func (t *topology) front() *proc { return t.procs[len(t.procs)-1] }

func (t *topology) teardown() {
	for _, p := range t.procs {
		p.kill()
	}
	if t.stateDir != "" {
		os.RemoveAll(t.stateDir)
	}
}

func (w *workload) daemonArgs(stateDir string) []string {
	args := []string{"-dataset", "polls", "-candidates", "20", "-seed", "1", "-voters", strconv.Itoa(w.voters)}
	if w.durable {
		args = append(args, "-wal-dir", filepath.Join(stateDir, "wal"), "-wal-sync", "always",
			"-snapshot-dir", filepath.Join(stateDir, "snap"))
	}
	return args
}

// boot starts the workload's daemons with stock flags on loopback ports,
// waits for /healthz and runs the warm-up pass; the elapsed time is the
// run's set-up time.
func (rn *runner) boot(w *workload, warm []*op) (*topology, error) {
	t := &topology{}
	if w.durable {
		rn.stateSeq++
		t.stateDir = filepath.Join(rn.outDir, "state", fmt.Sprintf("%s-%d-%d", w.name, os.Getpid(), rn.stateSeq))
		if err := os.MkdirAll(t.stateDir, 0o755); err != nil {
			return nil, err
		}
	}
	start := time.Now()
	add := func(name string, args ...string) error {
		p, err := startDaemon(name, rn.bin, args...)
		if err != nil {
			return err
		}
		t.procs = append(t.procs, p)
		return p.waitHealthy(rn.client)
	}
	var err error
	if w.cluster {
		// Each shard holds both partitions: a replica must hold every
		// partition it can be asked for.
		for _, name := range []string{"s0", "s1"} {
			if err = add(name, append(w.daemonArgs(""), "-shard", "0,1/2")...); err != nil {
				break
			}
		}
		if err == nil {
			// -cache 0 turns the merged-result cache off: with the default
			// 1024 entries the 56 distinct requests would never reach a
			// shard. Hedging and everything else stay at their defaults.
			spec := fmt.Sprintf("s0=%s,s1=%s", t.procs[0].url, t.procs[1].url)
			err = add("coordinator", "-coordinator", spec, "-cache", "0")
		}
	} else {
		err = add("hardqd", w.daemonArgs(t.stateDir)...)
	}
	if err == nil && len(warm) > 0 {
		samples, _ := runLoad(context.Background(), &httpTarget{rn.client, t.front().url}, warm, w.clients, nil)
		for i := range samples {
			if s := &samples[i]; s.err != nil || s.status != http.StatusOK {
				err = fmt.Errorf("warm-up op %d: status %d: %v %s", i, s.status, s.err, firstLine(s.body))
				break
			}
		}
	}
	if err != nil {
		t.teardown()
		return nil, err
	}
	t.setupS = time.Since(start).Seconds()
	return t, nil
}

func firstLine(b []byte) string {
	s := strings.TrimSpace(string(b))
	if i := strings.IndexByte(s, '\n'); i >= 0 {
		s = s[:i]
	}
	if len(s) > 200 {
		s = s[:200]
	}
	return s
}

func (rn *runner) getJSON(url string, into any) error {
	resp, err := rn.client.Get(url)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		io.Copy(io.Discard, resp.Body)
		return fmt.Errorf("GET %s: status %d", url, resp.StatusCode)
	}
	return json.NewDecoder(resp.Body).Decode(into)
}

// runOptions selects how much of a run's apparatus is used.
type runOptions struct {
	// setups is how many times the topology is booted (setup_s is the
	// median of all), chunks into how many parts the measured sequence is
	// cut: the last chunks boots replay one each.
	setups, chunks int
	// poll additionally samples /stats at 10 Hz during the measured phase
	// for the admission gate's high-water marks. Only the traced mode's
	// counter run does: the end-to-end numbers come from runs nobody polls.
	poll bool
}

// generated is a workload's inputs for one seed and op count, with the
// reference expectations of every op that does not depend on ingest order.
type generated struct {
	db        *ppd.DB
	warm, seq []*op
	ref       *reference
	expect    map[*op]*expectation
}

// generate builds the inputs and, in-process, the expected answers.
func generate(ctx context.Context, w *workload, seed int64, n int) (*generated, error) {
	db, err := pollsDB(w.voters)
	if err != nil {
		return nil, err
	}
	g := &generated{db: db, ref: newReference(db), expect: make(map[*op]*expectation)}
	if g.warm, g.seq, err = w.gen(seed, db, n); err != nil {
		return nil, err
	}
	if w.durable {
		return g, nil // expectations depend on the ingest order; see verifyIngest
	}
	// The reference costs what the daemon's run costs (it solves the same
	// groups), so the distinct ops are spread over every core. rim.Mallows
	// materializes its insertion matrix lazily and unsynchronized on first
	// use, so every session model is touched once before engines share them.
	for _, pref := range db.Prefs {
		for _, s := range pref.Sessions.All() {
			s.Model.Model()
		}
	}
	var distinct []*op
	for _, o := range g.seq {
		if _, dup := g.expect[o]; !dup {
			g.expect[o] = nil
			distinct = append(distinct, o)
		}
	}
	exps := make([]*expectation, len(distinct))
	err = pool.RunCtx(ctx, len(distinct), runtime.GOMAXPROCS(0), func(i int) error {
		exp, err := expect(ctx, g.ref, distinct[i])
		if err != nil {
			return fmt.Errorf("reference refused generated op %s: %w", distinct[i].body, err)
		}
		exps[i] = exp
		return nil
	})
	if err != nil {
		return nil, err
	}
	for i, o := range distinct {
		g.expect[o] = exps[i]
	}
	return g, nil
}

// run executes one out-of-process run of w and returns its result together
// with the raw samples of its last chunk (the trace run reuses them for
// net.loopback_ms). The topology is booted opt.setups times; the measured
// sequence is cut into opt.chunks equal chunks, one replayed after each of
// the last boots.
func (rn *runner) run(ctx context.Context, w *workload, seed int64, g *generated, opt runOptions) (*runResult, []sample, error) {
	res := &runResult{Workload: w.name, Seed: seed, Ops: len(g.seq), Metrics: make(map[string]value), Layers: make(map[string]value)}
	res.ProbeMS[0] = noiseProbe()

	var setups []float64
	var laps []lap
	var top *topology
	var last *chunk
	defer func() {
		if top != nil {
			top.teardown()
		}
	}()
	for i := 0; i < opt.setups; i++ {
		if top != nil {
			top.teardown()
		}
		var err error
		if top, err = rn.boot(w, g.warm); err != nil {
			return nil, nil, err
		}
		setups = append(setups, top.setupS)
		if c := i - (opt.setups - opt.chunks); c >= 0 {
			n := len(g.seq) / opt.chunks
			view := *g
			view.seq = g.seq[c*n : (c+1)*n]
			last = rn.measure(ctx, w, top, &view, opt.poll, res)
			laps = append(laps, last.laps...)
		}
	}
	res.Metrics["setup_s"] = value{Value: median(append([]float64(nil), setups...)), Unit: "s", N: len(setups)}

	rn.endToEnd(w, g, laps, res)
	rn.counters(w, top, last, res)
	if w.durable {
		rn.crashRecovery(ctx, w, top, last.g, last.samples, last.ok, res)
	}
	res.ProbeMS[1] = noiseProbe()
	res.Correct = res.Failed == 0
	res.Metrics["fail_ratio"] = value{Value: float64(res.Failed) / float64(max(res.Attempted, 1)), Unit: "ratio", N: res.Attempted}
	return res, last.samples, nil
}

// chunk is one measured replay: a stretch of the run's sequence against one
// booted topology, with what the per-layer counters need of it.
type chunk struct {
	g       *generated // the run's inputs, seq narrowed to the chunk
	samples []sample
	ok      []bool // served correctly
	laps    []lap
	// before and after are the server processes' kernel accounting around
	// the replay, svcBefore their /stats before it.
	before, after []procStat
	svcBefore     serviceCounts
	poll          *statsPoll
}

// measure replays g.seq against top from the workload's closed-loop clients
// and checks every answer once the clock has stopped, counting attempts and
// failures into res.
func (rn *runner) measure(ctx context.Context, w *workload, top *topology, g *generated, poll bool, res *runResult) *chunk {
	c := &chunk{g: g, svcBefore: rn.serviceStats(w, top, res)}
	runCtx, cancel := context.WithCancel(ctx)
	abortReason := "" // written by the watcher, read after watch.Wait
	abort := func(reason string) {
		abortReason = reason
		cancel()
	}
	var watch sync.WaitGroup
	watch.Add(1)
	go func() { defer watch.Done(); watchRSS(runCtx, top.procs, abort) }()
	if poll && !w.cluster {
		c.poll = &statsPoll{}
		watch.Add(1)
		go func() { defer watch.Done(); c.poll.run(runCtx, rn, top.front().url) }()
	}
	// The client that takes a lap's first op reads the servers' CPU clocks
	// on the way; the lap runs until the next lap's first op is taken.
	c.laps = splitLaps(len(g.seq), w.lapOps)
	stats := make([][]procStat, len(c.laps)+1)
	stats[0] = rn.procStats(top)
	samples, wall := runLoad(runCtx, &httpTarget{rn.client, top.front().url}, g.seq, w.clients, func(i int) {
		if li := i / w.lapOps; i%w.lapOps == 0 && li > 0 && li < len(c.laps) {
			stats[li] = rn.procStats(top)
		}
	})
	stats[len(c.laps)] = rn.procStats(top)
	cancel()
	watch.Wait()
	if abortReason != "" {
		res.fail("workload aborted: %s", abortReason)
	}
	c.samples, c.before, c.after = samples, stats[0], stats[len(c.laps)]

	c.ok = verify(ctx, w, g, samples, res)
	for i := range c.laps {
		l, end := &c.laps[i], wall
		if i+1 < len(c.laps) {
			end = samples[c.laps[i+1].lo].start
		}
		l.wall = end - samples[l.lo].start
		for j := range min(len(stats[i]), len(stats[i+1])) { // nil past the lap an aborted run stopped in
			l.cpuS += (stats[i+1][j].userS + stats[i+1][j].sysS) - (stats[i][j].userS + stats[i][j].sysS)
		}
		l.ops, l.samples, l.ok = g.seq[l.lo:l.hi], samples[l.lo:l.hi], c.ok[l.lo:l.hi]
		if w.durable {
			l.group = i // the model grows with every ingest of the chunk
		}
	}
	return c
}

// verify checks every sample — transport error, status, then the answer
// against the in-process reference — counting attempts and failures into
// res, and returns which ops were served correctly.
func verify(ctx context.Context, w *workload, g *generated, samples []sample, res *runResult) []bool {
	ok := make([]bool, len(samples))
	for i := range samples {
		s := &samples[i]
		res.Attempted++
		switch {
		case !s.done:
			res.fail("op %d never sent (run aborted)", i)
		case s.err != nil:
			res.fail("op %d (%s): %v", i, g.seq[i].class, s.err)
		case s.status != http.StatusOK:
			res.fail("op %d (%s): status %d: %s", i, g.seq[i].class, s.status, firstLine(s.body))
		default:
			ok[i] = true
		}
	}
	if w.durable {
		verifyIngest(ctx, w, g, samples, ok, res)
		return ok
	}
	for i := range samples {
		if ok[i] {
			if why := check(g.seq[i], samples[i].body, g.expect[g.seq[i]]); why != "" {
				ok[i] = false
				res.fail("op %d (%s): %s", i, g.seq[i].class, why)
			}
		}
	}
	return ok
}

// procStats reads the kernel accounting of every server process.
func (rn *runner) procStats(t *topology) []procStat {
	out := make([]procStat, len(t.procs))
	for i, p := range t.procs {
		out[i], _ = readProcStat(p.pid())
	}
	return out
}

// quietLaps returns, for each group of comparable laps, the keep laps that
// took the least wall time.
func quietLaps(laps []lap, keep int) []lap {
	groups := make(map[int][]lap)
	for _, l := range laps {
		if l.wall > 0 { // an aborted run never reached the others
			groups[l.group] = append(groups[l.group], l)
		}
	}
	var quiet []lap
	for _, ls := range groups {
		sort.Slice(ls, func(i, j int) bool { return ls[i].wall < ls[j].wall })
		quiet = append(quiet, ls[:min(keep, len(ls))]...)
	}
	return quiet
}

// endToEnd turns the laps into the end-to-end metrics. The timings are
// taken over the run's quiet laps, pooled: their ops over their wall time,
// the percentiles of their latencies, their CPU seconds per 1000 ops. The
// accuracy metrics are functions of the seeds and take every lap.
func (rn *runner) endToEnd(w *workload, g *generated, laps []lap, res *runResult) {
	var all, topk, ingest []float64
	var wall time.Duration
	cpu, n := 0.0, 0
	for _, l := range quietLaps(laps, w.keep) {
		wall += l.wall
		cpu += l.cpuS
		n += len(l.ops)
		for i, o := range l.ops {
			if !l.ok[i] {
				continue
			}
			ms := l.samples[i].latencyMS()
			all = append(all, ms)
			switch o.class {
			case classTopK:
				topk = append(topk, ms)
			case classIngest:
				ingest = append(ingest, ms)
			}
		}
	}
	m := res.Metrics
	m["throughput_rps"] = value{Value: float64(len(all)) / max(wall.Seconds(), 1e-9), Unit: "ops/s", N: len(all)}
	m["latency_p50_ms"] = value{Value: quantile(all, 0.50), Unit: "ms", N: len(all)}
	m["latency_p95_ms"] = value{Value: quantile(all, 0.95), Unit: "ms", N: len(all)}
	// The quiet laps do not put 10 samples beyond their 99th percentile; the
	// hot workloads' whole runs do, so theirs is over every op, bursts and
	// all.
	if metricApplies("latency_p99_ms", w.name) {
		var every []float64
		for _, l := range laps {
			for i := range l.ops {
				if l.ok[i] {
					every = append(every, l.samples[i].latencyMS())
				}
			}
		}
		if supported(len(every), 0.99) {
			m["latency_p99_ms"] = value{Value: quantile(every, 0.99), Unit: "ms", N: len(every)}
		}
	}
	if len(topk) > 0 && metricApplies("topk_p50_ms", w.name) {
		m["topk_p50_ms"] = value{Value: median(topk), Unit: "ms", N: len(topk)}
	}
	if len(ingest) > 0 {
		m["ingest_ack_p50_ms"] = value{Value: median(ingest), Unit: "ms", N: len(ingest)}
	}
	m["cpu_s_per_kop"] = value{Value: cpu / float64(max(n, 1)) * 1000, Unit: "s", N: n}

	// Accuracy of the sampled count estimates against the exact counts.
	var relErr []float64
	covered, adaptive := 0, 0
	for _, l := range laps {
		for i, o := range l.ops {
			if !isSampledCount(o.class) || l.samples[i].status != http.StatusOK {
				continue
			}
			got, err := parseAnswers(o, l.samples[i].body)
			if err != nil {
				continue
			}
			exact := g.expect[o].exact
			relErr = append(relErr, math.Abs(got[0].Count-exact)/exact)
			if o.class == classAdaptive {
				adaptive++
				hw := 0.0
				if got[0].Plan != nil {
					hw = got[0].Plan.CountHalfWidth
				}
				if math.Abs(got[0].Count-exact) <= hw+1e-12 {
					covered++
				}
			}
		}
	}
	if len(relErr) > 0 {
		m["sampled_rel_err_p50"] = value{Value: median(relErr), Unit: "ratio", N: len(relErr)}
		m["ci_coverage"] = value{Value: float64(covered) / float64(max(adaptive, 1)), Unit: "ratio", N: adaptive}
	}
}

func metricApplies(name, workload string) bool {
	for _, d := range endToEndDefs {
		if d.name == name {
			return d.appliesTo(workload)
		}
	}
	return false
}

// ingestAck is one acknowledged ingest, in application order.
type ingestAck struct {
	idx        int // op index
	start, end time.Duration
	resp       server.IngestResponse
}

// ackedIngests returns the run's acknowledged ingests in the order the
// daemon applied them (the model's session total after each is strictly
// increasing, and two clients may overlap two batches).
func ackedIngests(g *generated, samples []sample, ok []bool) []ingestAck {
	var acks []ingestAck
	for i := range samples {
		if g.seq[i].class != classIngest || !ok[i] {
			continue
		}
		a := ingestAck{idx: i, start: samples[i].start, end: samples[i].end}
		if json.Unmarshal(samples[i].body, &a.resp) != nil {
			ok[i] = false
			continue
		}
		acks = append(acks, a)
	}
	sort.Slice(acks, func(i, j int) bool { return acks[i].resp.Sessions < acks[j].resp.Sessions })
	return acks
}

// verifyIngest checks ingest_mixed's answers. A read that overlaps an
// ingest in time may see the model before or after it, so each read is
// accepted when it equals the reference at any model version it could have
// observed: from the batches acked before it was sent to the batches sent
// before it returned.
func verifyIngest(ctx context.Context, w *workload, g *generated, samples []sample, ok []bool, res *runResult) {
	acks := ackedIngests(g, samples, ok)
	refs := []*reference{g.ref}
	for j, a := range acks {
		want := w.voters + ingestBatch*(j+1)
		if a.resp.Appended != ingestBatch || a.resp.Sessions != want {
			ok[a.idx] = false
			res.fail("op %d (ingest): appended %d sessions %d, want %d and %d", a.idx, a.resp.Appended, a.resp.Sessions, ingestBatch, want)
		}
		next, err := refs[j].grown(g.seq[a.idx].ingest)
		if err != nil {
			ok[a.idx] = false
			res.fail("op %d (ingest): reference refused the batch: %v", a.idx, err)
			return
		}
		refs = append(refs, next)
	}
	type key struct {
		o *op
		v int
	}
	memo := make(map[key]*expectation)
	for i := range samples {
		o := g.seq[i]
		if !ok[i] || o.class == classIngest {
			continue
		}
		lo, hi := 0, 0
		for j, a := range acks {
			if a.end <= samples[i].start {
				lo = j + 1
			}
			if a.start < samples[i].end {
				hi = j + 1
			}
		}
		why := ""
		for v := lo; v <= hi; v++ {
			exp := memo[key{o, v}]
			if exp == nil {
				var err error
				if exp, err = expect(ctx, refs[v], o); err != nil {
					why = fmt.Sprintf("reference refused: %v", err)
					break
				}
				memo[key{o, v}] = exp
			}
			if why = check(o, samples[i].body, exp); why == "" {
				break
			}
		}
		if why != "" {
			ok[i] = false
			res.fail("op %d (%s, model versions %d..%d): %s", i, o.class, lo, hi, why)
		}
	}
	g.ref = refs[len(refs)-1] // the model as the daemon last acknowledged it
}

// crashRecovery SIGKILLs ingest_mixed's daemon and restarts it on the same
// directories: /stats must show the initial sessions plus 8 x the acked
// batches, and a fixed probe query must answer as it did before the kill.
func (rn *runner) crashRecovery(ctx context.Context, w *workload, top *topology, g *generated, samples []sample, ok []bool, res *runResult) {
	acked := 0
	for i := range samples {
		if g.seq[i].class == classIngest && samples[i].status == http.StatusOK {
			acked++
		}
	}
	probe := g.warm[1] // the first hot query's count request
	ask := func(url string) ([]byte, error) {
		status, body, err := (&httpTarget{rn.client, url}).do(probe)
		if err == nil && status != http.StatusOK {
			err = fmt.Errorf("status %d: %s", status, firstLine(body))
		}
		return body, err
	}
	pre, err := ask(top.front().url)
	if err != nil {
		res.fail("recovery: probe before the kill: %v", err)
		return
	}
	old := top.front()
	killed := time.Now()
	old.kill()
	p, err := startDaemon("hardqd", rn.bin, w.daemonArgs(top.stateDir)...)
	if err != nil {
		res.fail("recovery: restart: %v", err)
		return
	}
	top.procs[len(top.procs)-1] = p
	if err := p.waitHealthy(rn.client); err != nil {
		res.fail("recovery: %v", err)
		return
	}
	var st server.StatsResponse
	if err := rn.getJSON(p.url+"/stats", &st); err != nil {
		res.fail("recovery: /stats: %v", err)
		return
	}
	recoveryMS := msSince(killed)
	if want := w.voters + ingestBatch*acked; st.Sessions != want {
		res.fail("recovery: %d sessions after restart, want %d (%d initial + %d x %d acked batches)", st.Sessions, want, w.voters, ingestBatch, acked)
	}
	post, err := ask(p.url)
	if err != nil {
		res.fail("recovery: probe after the restart: %v", err)
		return
	}
	exp, err := expect(ctx, g.ref, probe)
	if err != nil {
		res.fail("recovery: reference: %v", err)
		return
	}
	for _, b := range [][]byte{pre, post} {
		if why := check(probe, b, exp); why != "" {
			res.fail("recovery: probe query: %s", why)
		}
	}
	res.Layers["hardqd.recovery_ms"] = value{Value: recoveryMS, Unit: "ms"}
}

// statsPoll samples /stats at 10 Hz during the measured phase for the
// admission gate's high-water marks.
type statsPoll struct {
	queuedMax, inFlightMax int
}

func (sp *statsPoll) run(ctx context.Context, rn *runner, url string) {
	t := time.NewTicker(100 * time.Millisecond)
	defer t.Stop()
	for {
		select {
		case <-ctx.Done():
			return
		case <-t.C:
			var st server.StatsResponse
			if rn.getJSON(url+"/stats", &st) == nil {
				sp.queuedMax = max(sp.queuedMax, st.Service.Queued)
				sp.inFlightMax = max(sp.inFlightMax, st.Service.InFlight)
			}
		}
	}
}

// serviceCounts sums what the model-serving daemons' /stats count since
// boot.
type serviceCounts struct {
	solves, sheds uint64
	cache, plans  server.CacheStats
}

// serviceStats reads /stats of every daemon that serves models.
func (rn *runner) serviceStats(w *workload, top *topology, res *runResult) serviceCounts {
	var c serviceCounts
	for _, p := range top.procs {
		if w.cluster && p == top.front() {
			continue // the coordinator serves no models
		}
		var st server.StatsResponse
		if err := rn.getJSON(p.url+"/stats", &st); err != nil {
			res.fail("reading %s/stats: %v", p.name, err)
			continue
		}
		c.solves += st.Service.Solves
		c.sheds += st.Service.Sheds
		for _, acc := range []struct{ sum, add *server.CacheStats }{{&c.cache, &st.Service.Cache}, {&c.plans, &st.Service.PlanCache}} {
			acc.sum.Hits += acc.add.Hits
			acc.sum.Misses += acc.add.Misses
			acc.sum.Evictions += acc.add.Evictions
		}
	}
	return c
}

// counters reads the per-layer counters the issue marks (counter): /stats,
// /cluster/stats and /cluster/placement after the run, /proc accounting
// around it. Every run collects them (they cost a few GETs once the clock
// has stopped); a traced run merges them with the peel's numbers. The /stats
// counters are differences over the measured phase: what the warm-up pass
// solved and missed is not in them.
func (rn *runner) counters(w *workload, top *topology, c *chunk, res *runResult) {
	g, samples, ok, before, after, svcBefore, poll := c.g, c.samples, c.ok, c.before, c.after, c.svcBefore, c.poll
	l := res.Layers
	count := func(name string, v float64) { l[name] = value{Value: v, Unit: "count"} }
	ratio := func(name string, num, den float64) { l[name] = ratioValue(num, den) }
	now := rn.serviceStats(w, top, res)
	solves := float64(now.solves - svcBefore.solves)
	sheds := now.sheds - svcBefore.sheds
	delta := func(a, b server.CacheStats) server.CacheStats {
		return server.CacheStats{Hits: a.Hits - b.Hits, Misses: a.Misses - b.Misses, Evictions: a.Evictions - b.Evictions}
	}
	cache, plans := delta(now.cache, svcBefore.cache), delta(now.plans, svcBefore.plans)
	ratio("server.cache.hit_ratio", float64(cache.Hits), float64(cache.Hits+cache.Misses))
	count("server.cache.evictions", float64(cache.Evictions))
	ratio("server.plancache.hit_ratio", float64(plans.Hits), float64(plans.Hits+plans.Misses))
	count("server.admission.sheds", float64(sheds))
	// Groups the daemons answered without their cache, per client op. Sampler
	// runs count here too, which is why solver.solves_per_req comes from the
	// trace's solver spans instead.
	l["server.solves_per_req"] = value{Value: solves / float64(max(len(samples), 1)), Unit: "count", N: len(samples)}
	if poll != nil {
		count("server.admission.queued_max", float64(poll.queuedMax))
	}
	if w.cluster {
		rn.clusterCounters(top, res)
	}
	var user, sys, hwm, wchar float64
	boot := 0.0
	for i, p := range top.procs {
		user += after[i].userS - before[i].userS
		sys += after[i].sysS - before[i].sysS
		hwm = max(hwm, after[i].hwmMB)
		wchar += after[i].wchar - before[i].wchar
		boot = max(boot, p.bootMS)
	}
	l["hardqd.boot_ms"] = value{Value: boot, Unit: "ms"}
	l["hardqd.rss_peak_mb"] = value{Value: hwm, Unit: "MB"}
	l["hardqd.cpu_user_s"] = value{Value: user, Unit: "s"}
	l["hardqd.cpu_sys_s"] = value{Value: sys, Unit: "s"}

	if w.durable {
		ingestCounters(g, samples, ok, wchar, res)
	}
}

// clusterCounters reads the coordinator's /cluster/stats and
// /cluster/placement.
func (rn *runner) clusterCounters(top *topology, res *runResult) {
	l := res.Layers
	var cs cluster.StatsJSON
	if err := rn.getJSON(top.front().url+"/cluster/stats", &cs); err != nil {
		res.fail("reading /cluster/stats: %v", err)
		return
	}
	l["cluster.hedge_ratio"] = ratioValue(float64(cs.Hedges), float64(cs.Fanouts))
	l["cluster.hedge_win_ratio"] = ratioValue(float64(cs.HedgeWins), float64(cs.Hedges))
	l["cluster.retries"] = value{Value: float64(cs.Retries), Unit: "count"}
	l["cluster.degraded"] = value{Value: float64(cs.Degraded), Unit: "count"}
	// Every query fetches each partition from its owner, so a shard's share
	// of owner fetches is its share of partitions.
	var pl cluster.PlacementResponse
	if err := rn.getJSON(top.front().url+"/cluster/placement", &pl); err != nil {
		res.fail("reading /cluster/placement: %v", err)
		return
	}
	owned := make(map[string]float64)
	most := 0.0
	for _, p := range pl.Partitions {
		owned[p.Owner]++
		most = max(most, owned[p.Owner])
	}
	l["cluster.owner_skew"] = ratioValue(most, float64(len(pl.Partitions)))
}

// ingestCounters derives ingest_mixed's client-side layer numbers: ack
// tail, purge size, the read stall an ack causes, and the daemon's bytes
// written (wchar) per byte of ingest payload.
func ingestCounters(g *generated, samples []sample, ok []bool, wchar float64, res *runResult) {
	var ackMS, purged, firstRead, steadyRead []float64
	payload := 0.0
	for _, a := range ackedIngests(g, samples, ok) {
		ackMS = append(ackMS, samples[a.idx].latencyMS())
		purged = append(purged, float64(a.resp.PurgedSolves+a.resp.PurgedPlans))
		payload += float64(len(g.seq[a.idx].body))
	}
	// The first read sent after an ack pays the purge; the reads late in the
	// 8-op cycle are the steady state it is compared with.
	for i := range samples {
		if !ok[i] || g.seq[i].class == classIngest {
			continue
		}
		if i > 0 && g.seq[i-1].class == classIngest {
			firstRead = append(firstRead, samples[i].latencyMS())
		} else if i%ingestEvery > 2 {
			steadyRead = append(steadyRead, samples[i].latencyMS())
		}
	}
	l := res.Layers
	l["server.ingest.ack_p95_ms"] = value{Value: quantile(ackMS, 0.95), Unit: "ms", N: len(ackMS)}
	l["server.ingest.purged_entries"] = value{Value: median(purged), Unit: "count", N: len(purged)}
	l["server.ingest.read_stall_ms"] = value{Value: max(median(firstRead)-median(steadyRead), 0), Unit: "ms", N: len(firstRead)}
	l["store.write_amp"] = value{Value: ratioValue(wchar, payload).Value, Unit: "ratio", N: len(ackMS)}
}

// ratioValue is num/den as a ratio metric (0 when den is 0), with the
// denominator as its sample count.
func ratioValue(num, den float64) value {
	v := 0.0
	if den > 0 {
		v = num / den
	}
	return value{Value: v, Unit: "ratio", N: int(den)}
}
