// Command hardqd serves hard queries over RIM-PPDs as an HTTP/JSON daemon:
// it loads a catalog of models — either one of the paper's datasets
// (-dataset, served as model "default") or a whole manifest of named
// dataset-backed models (-manifest) — wraps it in the concurrent query
// service of internal/server (shared solve cache namespaced per model,
// batch dedup, bounded worker pool), and exposes:
//
//	POST   /v1/query              unified query endpoint: one typed request
//	                              (kind: bool | count | topk | aggregate |
//	                              countdist | consensus) or a {"requests":
//	                              [...]} batch, NDJSON streaming of session
//	                              rows via "stream"
//	POST   /v1/rows               the same body answered as one packed binary
//	                              frame: the coordinator's hop to a shard
//	POST   /v1/sessions           append sessions to a model's p-relation
//	                              (both caches stay warm); logged to -wal-dir
//	                              before the ack, and checkpointed into
//	                              -snapshot-dir behind it (before it, with
//	                              no log)
//	GET    /models                list the model catalog
//	POST   /models                register a model at runtime
//	GET    /models/{name}         one catalog row
//	DELETE /models/{name}         evict a model (in-flight queries finish first)
//	GET    /stats                 service, catalog and cache statistics
//	GET    /healthz               liveness probe
//
// The daemon also plays the two roles of the sharded serving tier
// (internal/cluster): -shard serves only the listed contiguous session-range
// partitions of each model (as models "<name>--p<i>"), and -coordinator runs
// the fan-out/merge front end over a set of shards instead of serving local
// models — same /v1/query wire format, byte-identical answers, plus the
// /cluster/* management endpoints.
//
// Usage examples:
//
//	hardqd -dataset figure1 -addr :8080
//	hardqd -manifest examples/registry/manifest.json -cache 65536 -parallel 8
//	hardqd -dataset polls -voters 500 -snapshot-dir /var/lib/hardqd
//	hardqd -dataset polls -voters 500 -shard 0,2/4 -addr :8081
//	hardqd -coordinator "s0=http://localhost:8081,s1=http://localhost:8082" -partitions 4
//	curl -d '{"kind":"bool","query":"P(_,_;a;b),C(a,_,F,_,_,_),C(b,_,M,_,_,_)"}' localhost:8080/v1/query
//	curl -d '{"kind":"topk","query":"...","k":3,"stream":true}' localhost:8080/v1/query
//	curl -d '{"requests":[{"kind":"bool","query":"...","model":"polls-small"},{"kind":"count","query":"...","model":"polls-small"}]}' localhost:8080/v1/query
//	curl localhost:8080/models
//
// See docs/API.md for the full endpoint reference and docs/ARCHITECTURE.md
// for how the daemon, service, registry, cluster and engine layers fit
// together.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"log"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"syscall"
	"time"

	"probpref/internal/cluster"
	"probpref/internal/dataset"
	"probpref/internal/ppd"
	"probpref/internal/registry"
	"probpref/internal/server"
	"probpref/internal/wal"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "hardqd:", err)
		os.Exit(1)
	}
}

// daemon is a configured hardqd ready to serve: the handler for its role
// plus the durability state the graceful-shutdown path must flush. Exactly
// one of reg/cl is non-nil (model-serving roles vs coordinator).
type daemon struct {
	handler http.Handler
	addr    string
	// drain bounds http.Server.Shutdown: in-flight queries and NDJSON
	// streams get this long to finish before connections are cut.
	drain time.Duration
	reg   *registry.Registry   // model catalog (nil in the coordinator role)
	wlog  *wal.Log             // ingest WAL (nil without -wal-dir)
	cl    *cluster.Coordinator // fan-out front end (nil unless -coordinator)
}

func run(args []string, out io.Writer) error {
	d, err := setup(args, out)
	if err != nil {
		return err
	}
	ln, err := net.Listen("tcp", d.addr)
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "listening on %s\n", ln.Addr())
	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, os.Interrupt, syscall.SIGTERM)
	defer signal.Stop(sigc)
	return serve(d, ln, sigc, out)
}

// serve runs the HTTP server until it fails or a signal arrives, then walks
// the drain ladder: stop accepting connections, let in-flight requests and
// streams finish (bounded by -drain-timeout), checkpoint every model whose
// snapshot lags the log (waiting out a checkpoint an ingest left running),
// compact and close the WAL. Split from run so shutdown tests
// can deliver signals on a plain channel.
func serve(d *daemon, ln net.Listener, sigc <-chan os.Signal, out io.Writer) error {
	srv := &http.Server{
		Handler:           d.handler,
		ReadHeaderTimeout: 10 * time.Second,
		ReadTimeout:       time.Minute,
	}
	errc := make(chan error, 1)
	go func() { errc <- srv.Serve(ln) }()
	select {
	case err := <-errc:
		return err
	case sig := <-sigc:
		fmt.Fprintf(out, "received %v, draining (timeout %s)\n", sig, d.drain)
	}
	ctx, cancel := context.WithTimeout(context.Background(), d.drain)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		// Deadline passed with requests still running; cut them off rather
		// than hang shutdown. Durability is unaffected: acked ingests are
		// already in the WAL.
		fmt.Fprintf(out, "drain timed out, closing %v\n", err)
		srv.Close()
	}
	<-errc // Serve has returned ErrServerClosed by now
	return d.shutdown(out)
}

// shutdown flushes durability state after the listener is closed, in this
// order: the registry's Checkpoint — which first waits for any checkpoint an
// ingest started off its ack path, then brings every lagging snapshot up to
// the log and compacts behind it — and only then the WAL close, so nothing
// of the catalog touches a closed log. Checkpoint failures are reported but
// not fatal — the closed WAL still holds every acked batch for the next
// start's replay.
func (d *daemon) shutdown(out io.Writer) error {
	var firstErr error
	if d.cl != nil {
		d.cl.Close()
	}
	if d.reg != nil && d.wlog != nil {
		if err := d.reg.Checkpoint(); err != nil {
			fmt.Fprintf(out, "checkpoint: %v (WAL retains the batches)\n", err)
		}
	}
	if d.wlog != nil {
		if err := d.wlog.Close(); err != nil {
			firstErr = err
		}
	}
	fmt.Fprintln(out, "shutdown complete")
	return firstErr
}

// setup parses flags and builds the daemon for its role — a model-serving
// Service (whole models or, with -shard, partition models) or a cluster
// Coordinator (-coordinator); split from run so tests can drive the handler
// without binding a port.
func setup(args []string, out io.Writer) (*daemon, error) {
	fs := flag.NewFlagSet("hardqd", flag.ContinueOnError)
	var (
		addr     = fs.String("addr", "127.0.0.1:8080", "listen address")
		ds       = fs.String("dataset", "figure1", "dataset: "+strings.Join(dataset.Names(), " | ")+" (served as model \"default\")")
		manifest = fs.String("manifest", "", "model manifest file; serves every named model of the catalog (overrides -dataset)")
		snapDir  = fs.String("snapshot-dir", "", "directory of columnar model snapshots (<model>.ppds): models cold-start from their snapshot when present, and generator builds persist back. Session ingests reach it by checkpoint: before every ack without -wal-dir; with it, off the ack path once a model's unsnapshotted log reaches the size of its snapshot (at least 256 KiB), and at graceful shutdown")
		method   = fs.String("method", "auto", "solver: "+strings.Join(ppd.MethodNames(), " | "))
		cache    = fs.Int("cache", server.DefaultCacheSize, "solve-cache capacity in entries (0 disables); keys are namespaced per model. On the coordinator it sizes the merged-result cache, keyed by model and request only: it never sees an ingest sent to a shard, so use 0 there when shards take /v1/sessions")
		par      = fs.Int("parallel", 4, "worker goroutines for batch fan-out and group solving")
		seed     = fs.Int64("seed", 1, "generator and sampler seed")
		cands    = fs.Int("candidates", 20, "polls: number of candidates")
		voters   = fs.Int("voters", 100, "polls: number of voters")
		movies   = fs.Int("movies", 0, "movielens: catalog size (default 120); crowdrank: HIT size (default 20)")
		workers  = fs.Int("workers", 500, "crowdrank: number of workers")

		walDir  = fs.String("wal-dir", "", "write-ahead-log directory: ingest batches are logged and fsynced before they are acknowledged, and replayed over snapshots on startup")
		walSync = fs.String("wal-sync", "always", "WAL fsync policy: always | interval | never (requires -wal-dir)")
		maxInFl = fs.Int("max-inflight", server.DefaultMaxInFlight, "admitted query/ingest requests running at once; one queue of the same depth waits behind them, the rest are shed with 503 (negative disables admission control)")
		maxQ    = fs.Int("max-queue", server.DefaultMaxQueue, "requests waiting for an admission slot before shedding (negative: shed as soon as all slots are busy)")
		drain   = fs.Duration("drain-timeout", 15*time.Second, "graceful-shutdown budget for in-flight requests and streams after SIGINT/SIGTERM")

		shardSpec = fs.String("shard", "", "serve as a cluster shard: \"i[,j...]/n\" lists the contiguous session-range partitions (of n) this shard holds; each model is served as \"<model>--p<i>\"")
		coord     = fs.String("coordinator", "", "run as the cluster coordinator over comma-separated name=url shards: /v1/query fans out per partition and merges (no local models)")
		parts     = fs.Int("partitions", 0, "coordinator: session-range partitions per model (default: shard count)")
		hedge     = fs.Duration("hedge-after", cluster.DefaultHedgeAfter, "coordinator: hedge a slow partition fetch to the replica after this delay (adapts to the shard's latency p95 once warmed)")
		probe     = fs.Duration("probe-every", 2*time.Second, "coordinator: background shard health-probe period (0 disables probing)")
	)
	fs.SetOutput(out)
	if err := fs.Parse(args); err != nil {
		return nil, err
	}

	size := *cache
	if size <= 0 {
		size = -1 // flag semantics: 0 (or negative) disables, matching hardq
	}
	// given lists which of the named flags were set explicitly (whatever
	// their value), so a flag that does not apply fails loudly instead of
	// being ignored.
	set := map[string]bool{}
	fs.Visit(func(f *flag.Flag) { set[f.Name] = true })
	given := func(names ...string) (out []string) {
		for _, name := range names {
			if set[name] {
				out = append(out, "-"+name)
			}
		}
		return out
	}

	if *coord != "" {
		// Everything that shapes local model serving is meaningless on the
		// coordinator, which holds no models; reject it rather than ignore.
		conflict := given("candidates", "dataset", "manifest", "max-inflight", "max-queue",
			"method", "movies", "parallel", "seed", "shard", "snapshot-dir", "voters",
			"wal-dir", "wal-sync", "workers")
		if len(conflict) > 0 {
			return nil, fmt.Errorf("%s cannot be combined with -coordinator: the coordinator serves no local models", strings.Join(conflict, ", "))
		}
		shards, err := parseShards(*coord)
		if err != nil {
			return nil, err
		}
		cl, err := cluster.New(shards, cluster.Config{
			Partitions: *parts,
			HedgeAfter: *hedge,
			CacheSize:  size,
			ProbeEvery: *probe,
		})
		if err != nil {
			return nil, err
		}
		fmt.Fprintf(out, "coordinator: %d shards, %d partitions per model\n", len(shards), cl.Partitions())
		for _, sc := range shards {
			fmt.Fprintf(out, "  %-14s %s\n", sc.Name, sc.URL)
		}
		if size > 0 {
			fmt.Fprintf(out, "cache   : %d merged results capacity\n", size)
		} else {
			fmt.Fprintf(out, "cache   : disabled\n")
		}
		return &daemon{handler: cl.Handler(), addr: *addr, drain: *drain, cl: cl}, nil
	}
	if only := given("hedge-after", "partitions", "probe-every"); len(only) > 0 {
		return nil, fmt.Errorf("%s requires -coordinator", strings.Join(only, ", "))
	}

	m, err := ppd.ParseMethod(*method)
	if err != nil {
		return nil, err
	}
	cfg := server.Config{
		Method:      m,
		Workers:     *par,
		CacheSize:   size,
		Seed:        *seed,
		MaxInFlight: *maxInFl,
		MaxQueue:    *maxQ,
	}
	var shardParts []int
	shardTotal := 0
	if *shardSpec != "" {
		if shardParts, shardTotal, err = parseShardSpec(*shardSpec); err != nil {
			return nil, err
		}
	}

	if *snapDir != "" {
		if err := os.MkdirAll(*snapDir, 0o755); err != nil {
			return nil, err
		}
	}
	var wlog *wal.Log
	if *walDir != "" {
		pol, err := wal.ParseSyncPolicy(*walSync)
		if err != nil {
			return nil, err
		}
		if wlog, err = wal.Open(*walDir, wal.Options{Sync: pol}); err != nil {
			return nil, err
		}
		if n := wlog.TornRepairs(); n > 0 {
			fmt.Fprintf(out, "wal     : repaired %d torn segment tail(s)\n", n)
		}
	} else if set["wal-sync"] {
		return nil, fmt.Errorf("-wal-sync requires -wal-dir")
	}
	var svc *server.Service
	if *manifest != "" {
		// Dataset-generator flags would be silently overridden by the
		// manifest specs; reject the combination. (-seed stays legal: it
		// also seeds the samplers via Config.Seed.)
		if conflict := given("candidates", "dataset", "movies", "voters", "workers"); len(conflict) > 0 {
			return nil, fmt.Errorf("%s cannot be combined with -manifest: dataset parameters come from the manifest", strings.Join(conflict, ", "))
		}
		man, err := registry.LoadManifest(*manifest)
		if err != nil {
			return nil, err
		}
		if shardTotal > 0 {
			man = partitionManifest(man, shardParts, shardTotal)
		}
		reg, err := newRegistry(*snapDir, wlog)
		if err != nil {
			return nil, err
		}
		if err := reg.Apply(man); err != nil {
			return nil, err
		}
		svc = server.NewMulti(reg, cfg)
		fmt.Fprintf(out, "manifest: %s (%d models)\n", *manifest, reg.Len())
		for _, in := range reg.List() {
			if in.Loaded {
				fmt.Fprintf(out, "  %-14s %-10s loaded (m=%d items, %d sessions)\n", in.Name, in.Dataset, in.Items, in.Sessions)
			} else {
				fmt.Fprintf(out, "  %-14s %-10s lazy\n", in.Name, in.Dataset)
			}
		}
	} else {
		// The single dataset is served through the same registry build path
		// as manifest models, so -snapshot-dir restores it from
		// default.ppds when present and persists generator builds and
		// ingests back.
		reg, err := newRegistry(*snapDir, wlog)
		if err != nil {
			return nil, err
		}
		base := registry.Spec{
			Name: server.DefaultModel, Dataset: *ds, Seed: *seed,
			Candidates: *cands, Voters: *voters, Movies: *movies, Workers: *workers,
			Preload: true,
		}
		for _, spec := range partitionSpecs(base, shardParts, shardTotal) {
			if err := reg.Register(spec); err != nil {
				return nil, err
			}
		}
		svc = server.NewMulti(reg, cfg)
		if shardTotal > 0 {
			fmt.Fprintf(out, "shard   : dataset %s split %d ways\n", *ds, shardTotal)
			for _, in := range reg.List() {
				fmt.Fprintf(out, "  %-14s (m=%d items, %d sessions)\n", in.Name, in.Items, in.Sessions)
			}
		} else {
			in, err := reg.Lookup(server.DefaultModel)
			if err != nil {
				return nil, err
			}
			fmt.Fprintf(out, "dataset : %s (m=%d items, %d sessions)\n", *ds, in.Items, in.Sessions)
		}
	}
	fmt.Fprintf(out, "method  : %s\n", m)
	if c := svc.Cache(); c != nil {
		fmt.Fprintf(out, "cache   : %d entries capacity\n", c.Stats().Capacity)
	} else {
		fmt.Fprintf(out, "cache   : disabled\n")
	}
	if wlog != nil {
		fmt.Fprintf(out, "wal     : %s (sync %s, last seq %d)\n", *walDir, *walSync, wlog.LastSeq())
	}
	return &daemon{handler: svc.Handler(), addr: *addr, drain: *drain, reg: svc.Registry(), wlog: wlog}, nil
}

// newRegistry builds the model registry shared by the -dataset and
// -manifest roles: snapshots in snapDir, WAL replay and compaction against
// wlog, operational messages (snapshot failures, compaction errors) on the
// process log.
func newRegistry(snapDir string, wlog *wal.Log) (*registry.Registry, error) {
	reg := registry.New()
	reg.SetSnapshotDir(snapDir)
	reg.SetLogf(log.Printf)
	if wlog != nil {
		if err := reg.SetWAL(wlog); err != nil {
			return nil, err
		}
	}
	return reg, nil
}

// parseShards parses the -coordinator shard list: comma-separated name=url.
func parseShards(s string) ([]cluster.ShardConfig, error) {
	var out []cluster.ShardConfig
	for _, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		name, url, ok := strings.Cut(part, "=")
		if !ok || name == "" || url == "" {
			return nil, fmt.Errorf("bad shard %q (want name=url)", part)
		}
		out = append(out, cluster.ShardConfig{Name: name, URL: url})
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("-coordinator needs at least one name=url shard")
	}
	return out, nil
}

// parseShardSpec parses the -shard value "i[,j...]/n" into the partition
// indexes this shard holds and the total partition count.
func parseShardSpec(s string) (parts []int, total int, err error) {
	list, tot, ok := strings.Cut(s, "/")
	if !ok {
		return nil, 0, fmt.Errorf("bad -shard %q (want \"i[,j...]/n\", e.g. \"0,2/4\")", s)
	}
	if total, err = strconv.Atoi(tot); err != nil || total < 1 {
		return nil, 0, fmt.Errorf("bad -shard %q: total partitions %q must be a positive integer", s, tot)
	}
	seen := make(map[int]bool)
	for _, f := range strings.Split(list, ",") {
		i, err := strconv.Atoi(strings.TrimSpace(f))
		if err != nil || i < 0 || i >= total {
			return nil, 0, fmt.Errorf("bad -shard %q: partition %q must be in [0, %d)", s, f, total)
		}
		if seen[i] {
			return nil, 0, fmt.Errorf("bad -shard %q: partition %d listed twice", s, i)
		}
		seen[i] = true
		parts = append(parts, i)
	}
	return parts, total, nil
}

// partitionSpecs expands a model spec into one spec per held partition
// (named by cluster.PartitionModel); with no shard spec it returns the base
// spec unchanged.
func partitionSpecs(base registry.Spec, parts []int, total int) []registry.Spec {
	if total == 0 {
		return []registry.Spec{base}
	}
	out := make([]registry.Spec, 0, len(parts))
	for _, p := range parts {
		spec := base
		spec.Name = cluster.PartitionModel(base.Name, p)
		spec.Partition = p
		spec.Partitions = total
		out = append(out, spec)
	}
	return out
}

// partitionManifest expands every model of a manifest into the held
// partitions, mirroring partitionSpecs.
func partitionManifest(man *registry.Manifest, parts []int, total int) *registry.Manifest {
	out := &registry.Manifest{}
	for _, spec := range man.Models {
		out.Models = append(out.Models, partitionSpecs(spec, parts, total)...)
	}
	return out
}
