package main

import (
	"fmt"

	"probpref/internal/ppd"
)

// referenceSeconds is BENCHMARK.json's run_seconds: the measured-phase
// length the frozen op counts below were calibrated for on the 2-core
// reference box. A run is always a fixed operation count, never a fixed time
// (fixed-time runs of the cold mix varied 20 % with which queries happened
// to be reached, fixed-count runs 2-3 %), and nothing scales the counts:
// serve_cold and serve_sampled draw one query per stratum of their count, so
// another count is another query mix.
const referenceSeconds = 12

// workload is one traffic mix with its daemon topology.
type workload struct {
	name string
	// why is the one sentence on why the workload exists (also in
	// BENCHMARK.json and README.md).
	why string
	// voters is the daemons' -voters.
	voters int
	// clients is the closed loop's client count (goroutines and keep-alive
	// connections): 2 against one daemon, 1 against the cluster, whose
	// coordinator and two shards already keep both cores of the reference
	// box busy for a single request.
	clients int
	// ops is the frozen operation count of an untraced run: a whole number
	// of laps of lapOps operations (see lap). A traced run generates
	// counterOps (a few laps) for its short out-of-process counter run, and its
	// ladders peel the leading traceOps of them.
	ops, lapOps, counterOps, traceOps int
	// keep is how many laps of each group of comparable laps the end-to-end
	// timings are taken over: the ones that took the least wall time (see
	// lap).
	keep int
	// setups is how often an untraced run boots the topology for setup_s:
	// fewer where the warm-up pass makes a set-up take seconds, more where
	// it takes a fraction of one. The measured sequence is cut into chunks
	// equal parts, one replayed after each of the last chunks boots. Every
	// boot gets one where the server is in the same state after each
	// warm-up: the hot workloads, so that the laps span the whole run and
	// not its last seconds, and ingest_mixed, whose replay grows the model,
	// so that laps recur against the same state. serve_cold and
	// serve_sampled replay after the last boot: a daemon must see more
	// distinct queries than its caches hold.
	setups, chunks int
	// cluster boots two shards and a coordinator instead of one daemon;
	// durable adds -wal-dir/-snapshot-dir on fresh directories.
	cluster, durable bool
	// hot says the measured sequence repeats the warm-up pass's requests, so
	// replaying it leaves nothing behind but LRU order.
	hot bool
	// gen builds the warm-up pass and the op sequence.
	gen func(seed int64, db *ppd.DB, n int) (warm, seq []*op, err error)
}

var workloads = []*workload{
	{
		// Everything but the solver works here: decode, compile, ground, cache get, fold, encode.
		name:   "serve_hot",
		why:    "8 hot queries x 7 kinds on a warm solve cache: everything but the solver works (decode, compile, ground, cache get, fold, encode)",
		voters: 150, clients: 2, ops: 30 * hotLapOps, lapOps: hotLapOps, keep: 5, counterOps: 6 * hotLapOps, traceOps: 224, setups: 3, chunks: 3, hot: true,
		gen: genHot,
	},
	{
		// The exact DP solvers and plan compilation do nearly all the work.
		name:   "serve_cold",
		why:    "distinct queries issued once, working set far above both caches: the exact DP solvers and plan compilation do nearly all the work",
		voters: 60, clients: 2, ops: 15 * onceLapOps, lapOps: onceLapOps, keep: 5, counterOps: 4 * onceLapOps, traceOps: 48, setups: 5, chunks: 1,
		gen: genCold,
	},
	{
		// sampling, rim and consensus do all the work and solver does none.
		name:   "serve_sampled",
		why:    "distinct seeded rejection / mis-lite / adaptive / consensus requests: sampling, rim and consensus do all the work and the exact solver none",
		voters: 5, clients: 2, ops: 20 * onceLapOps, lapOps: onceLapOps, keep: 10, counterOps: 4 * onceLapOps, traceOps: 60, setups: 5, chunks: 1,
		gen: genSampled,
	},
	{
		// Writes beside reads on the same caches and registry entry.
		name:   "ingest_mixed",
		why:    "every 8th op appends a session batch (WAL fsync, swap, cache purge, snapshot rewrite) beside hot reads on the same caches and registry entry",
		voters: 16, clients: 2, ops: 10 * 5 * ingestLapOps, lapOps: ingestLapOps, keep: 3, counterOps: 5 * ingestLapOps, traceOps: 200, setups: 10, chunks: 10, durable: true,
		gen: genIngest,
	},
	{
		// The shards are warm and the coordinator cache is off, so every request pays fan-out, wire, hedge and merge and nothing else.
		name:   "cluster_hot",
		why:    "serve_hot's exact sequence, from one client, through a coordinator (result cache off) over two warm shards: every request pays fan-out, wire, hedge and merge and nothing else",
		voters: 150, clients: 1, ops: 30 * hotLapOps, lapOps: hotLapOps, keep: 5, counterOps: 6 * hotLapOps, traceOps: 224, setups: 3, chunks: 3, cluster: true, hot: true,
		gen: genHot,
	},
}

func findWorkload(name string) (*workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}
