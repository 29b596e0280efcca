// Package cluster implements the sharded scale-out serving tier: a
// fan-out/merge coordinator in front of hardqd shard processes. Every model
// is split into a fixed number of contiguous session-range partitions
// (ppd.PartitionRange); each partition is served by a shard as an ordinary
// model named "<base>--p<i>", placed on an owner and a replica by a
// consistent-hash ring. The coordinator forwards each /v1/query request to
// the owning shards' POST /v1/rows, which answers with a packed binary frame
// (server.DecodeRows): a small JSON head per result, the per-session
// probabilities as raw float64 bits, and the session keys only when the
// client asked for per-session rows. It merges the partitions' answers per
// kind by refolding the concatenated rows through the very same aggregation
// code a single process runs — never by combining per-shard aggregates, whose
// float additions would reassociate — and therefore returns byte-identical
// responses to a single process over the unsplit model. Slow shards are
// hedged to the replica after a per-shard latency percentile, failed shards
// are excluded by consecutive-failure health tracking, and a
// coordinator-level result cache keyed like the service's solve cache
// answers repeated (model, union) requests without touching the shards.
package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"slices"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"probpref/internal/server"
)

// ShardConfig names one shard of the cluster at construction.
type ShardConfig struct {
	// Name is the shard's cluster-unique name.
	Name string `json:"name"`
	// URL is the shard's base URL (e.g. http://host:port).
	URL string `json:"url"`
}

// Config tunes a Coordinator.
type Config struct {
	// Partitions is the number of contiguous session-range partitions every
	// model is split into; 0 means one per initial shard. The count is fixed
	// for the coordinator's lifetime — shards may join or leave, partitions
	// may move, but the data split never changes.
	Partitions int
	// HedgeAfter is the hedge trigger used until a shard has enough latency
	// samples for a p95 estimate (default 50ms). A negative value disables
	// hedged duplicate attempts entirely — the replica is then used only for
	// retries after the owner fails outright, which keeps solve/cache-hit
	// counters byte-identical to a single process (a hedge that wins on a
	// cold replica reports fresh solves where the warm owner would have
	// reported cache hits).
	HedgeAfter time.Duration
	// FailAfter is how many consecutive failures exclude a shard from
	// routing (default 2; a later success re-admits it).
	FailAfter int
	// CacheSize is the merged-result cache capacity in entries; 0 means the
	// default (1024) and a negative value disables the cache. The cache is
	// keyed by model and request only and never sees an ingest sent to a
	// shard: disable it when shards take /v1/sessions.
	CacheSize int
	// ProbeEvery starts a background health prober hitting each shard's
	// /healthz at this period; 0 disables it (ProbeNow still works).
	ProbeEvery time.Duration
	// Transport overrides the HTTP transport used for shard requests.
	// Fault-injection tests drop connections and inject errors here.
	Transport http.RoundTripper
}

// DefaultCacheSize is the merged-result cache capacity used when
// Config.CacheSize is 0.
const DefaultCacheSize = 1024

// DefaultHedgeAfter is the cold-start hedge trigger used when
// Config.HedgeAfter is 0.
const DefaultHedgeAfter = 50 * time.Millisecond

func (c Config) withDefaults(shards int) Config {
	if c.Partitions <= 0 {
		c.Partitions = shards
	}
	if c.HedgeAfter == 0 {
		c.HedgeAfter = DefaultHedgeAfter
	}
	if c.FailAfter <= 0 {
		c.FailAfter = 2
	}
	if c.CacheSize == 0 {
		c.CacheSize = DefaultCacheSize
	}
	return c
}

// latWindow is the per-shard latency sample window sizing the hedge
// percentile, and latWarm the sample count below which the configured
// default trigger is used instead.
const (
	latWindow = 64
	latWarm   = 16
)

// minHedgeDelay floors the warmed p95 trigger: on microsecond-latency
// shards a raw p95 would hedge nearly every request that is the least bit
// heavier than the recent window, doubling load for no win.
const minHedgeDelay = time.Millisecond

// shard is one cluster member's runtime state.
type shard struct {
	name string
	url  string

	mu     sync.Mutex
	lat    [latWindow]time.Duration
	latIdx int
	latN   int
	fails  int // consecutive failures; excluded when >= failAfter

	requests atomic.Uint64
	failures atomic.Uint64
}

// recordSuccess stores a latency sample and clears the failure streak.
func (s *shard) recordSuccess(d time.Duration) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.lat[s.latIdx] = d
	s.latIdx = (s.latIdx + 1) % latWindow
	if s.latN < latWindow {
		s.latN++
	}
	s.fails = 0
}

// recordAlive clears the failure streak without a latency sample: a health
// probe shows the shard is reachable, but a /healthz round trip says
// nothing about how long a partition fetch takes, so it must not move the
// hedge trigger.
func (s *shard) recordAlive() {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.fails = 0
}

// recordFailure extends the failure streak.
func (s *shard) recordFailure() {
	s.failures.Add(1)
	s.mu.Lock()
	defer s.mu.Unlock()
	s.fails++
}

// excludedBy reports whether the shard's failure streak has reached the
// exclusion threshold.
func (s *shard) excludedBy(failAfter int) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.fails >= failAfter
}

// hedgeDelay returns the hedge trigger: the p95 of the recent latency
// window (floored by minHedgeDelay) once warmed, def before. A negative
// def means hedging is disabled and wins over any estimate.
func (s *shard) hedgeDelay(def time.Duration) time.Duration {
	if def < 0 {
		return def
	}
	s.mu.Lock()
	samples, n := s.lat, s.latN // a copy of the window: sorted outside the lock
	s.mu.Unlock()
	if n < latWarm {
		return def
	}
	slices.Sort(samples[:n])
	return max(samples[(n-1)*95/100], minHedgeDelay)
}

// Coordinator fans unified queries out over the cluster's shards and merges
// the partition answers. All methods are safe for concurrent use.
type Coordinator struct {
	cfg    Config
	client *http.Client
	cache  *server.LRU[*ResultJSON]

	mu     sync.Mutex
	shards []*shard
	ring   *ring

	queries   atomic.Uint64
	fanouts   atomic.Uint64
	hedges    atomic.Uint64
	hedgeWins atomic.Uint64
	retries   atomic.Uint64
	degraded  atomic.Uint64
	sheds     atomic.Uint64

	stopOnce sync.Once
	stop     chan struct{}
	wg       sync.WaitGroup
}

// New builds a coordinator over the initial shard set and starts the
// background health prober when Config.ProbeEvery is set. Callers must
// Close it to stop the prober.
func New(shards []ShardConfig, cfg Config) (*Coordinator, error) {
	if len(shards) == 0 {
		return nil, fmt.Errorf("cluster: no shards")
	}
	cfg = cfg.withDefaults(len(shards))
	c := &Coordinator{
		cfg:    cfg,
		client: &http.Client{Transport: cfg.Transport},
		stop:   make(chan struct{}),
	}
	if cfg.CacheSize > 0 {
		c.cache = server.NewLRU[*ResultJSON](cfg.CacheSize, 1)
	}
	seen := make(map[string]bool, len(shards))
	for _, sc := range shards {
		if sc.Name == "" || sc.URL == "" {
			return nil, fmt.Errorf("cluster: shard needs name and url, got %+v", sc)
		}
		if seen[sc.Name] {
			return nil, fmt.Errorf("cluster: duplicate shard name %q", sc.Name)
		}
		seen[sc.Name] = true
		c.shards = append(c.shards, &shard{name: sc.Name, url: strings.TrimRight(sc.URL, "/")})
	}
	c.rebuildRing()
	if cfg.ProbeEvery > 0 {
		c.wg.Add(1)
		go c.probeLoop()
	}
	return c, nil
}

// Close stops the background health prober. It does not wait for in-flight
// queries.
func (c *Coordinator) Close() {
	c.stopOnce.Do(func() { close(c.stop) })
	c.wg.Wait()
}

// Partitions returns the fixed partition count.
func (c *Coordinator) Partitions() int { return c.cfg.Partitions }

// rebuildRing recomputes the ring from the current member list; c.mu must
// be held (or the coordinator not yet shared).
func (c *Coordinator) rebuildRing() {
	names := make([]string, len(c.shards))
	for i, s := range c.shards {
		names[i] = s.name
	}
	c.ring = buildRing(names)
}

// AddShard adds a member at runtime and rehashes the ring. Partition counts
// never change; only placement does, so newly owned partitions must be
// provisioned on the shard (see Placement) before traffic depends on it.
func (c *Coordinator) AddShard(sc ShardConfig) error {
	if sc.Name == "" || sc.URL == "" {
		return fmt.Errorf("cluster: shard needs name and url")
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	for _, s := range c.shards {
		if s.name == sc.Name {
			return fmt.Errorf("cluster: shard %q already registered", sc.Name)
		}
	}
	c.shards = append(c.shards, &shard{name: sc.Name, url: strings.TrimRight(sc.URL, "/")})
	c.rebuildRing()
	return nil
}

// RemoveShard drops a member and rehashes the ring.
func (c *Coordinator) RemoveShard(name string) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	for i, s := range c.shards {
		if s.name == name {
			if len(c.shards) == 1 {
				return fmt.Errorf("cluster: cannot remove the last shard %q", name)
			}
			c.shards = append(c.shards[:i], c.shards[i+1:]...)
			c.rebuildRing()
			return nil
		}
	}
	return fmt.Errorf("cluster: shard %q not registered", name)
}

// members snapshots the shard list and ring.
func (c *Coordinator) members() ([]*shard, *ring) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.shards, c.ring
}

// PartitionModel is the shard-side model name of partition part of base:
// "<base>--p<part>". The "--p" infix cannot collide with a path separator
// or a cache namespace: model names are restricted to URL-safe tokens by
// the registry and namespaces are NUL-separated. Shard provisioning (hardqd
// -shard, ppdgen -partitions) uses the same naming, so placement rows map
// directly to model names and snapshot files.
func PartitionModel(base string, part int) string {
	return base + "--p" + strconv.Itoa(part)
}

// Placement computes where each partition of a base model lives on the
// current ring: the owner serving it and the replica hedged retries fall
// back to. Provisioning follows it — a shard must hold "<base>--p<i>" for
// every partition it owns or replicates.
func (c *Coordinator) Placement(base string) []PlacementJSON {
	base = server.ModelName(base)
	shards, ring := c.members()
	out := make([]PlacementJSON, c.cfg.Partitions)
	for i := range out {
		model := PartitionModel(base, i)
		owner, replica := ring.pick(model, nil)
		out[i] = PlacementJSON{Partition: i, Model: model}
		if owner >= 0 {
			out[i].Owner = shards[owner].name
		}
		if replica >= 0 {
			out[i].Replica = shards[replica].name
		}
	}
	return out
}

// probeLoop drives the background health prober.
func (c *Coordinator) probeLoop() {
	defer c.wg.Done()
	t := time.NewTicker(c.cfg.ProbeEvery)
	defer t.Stop()
	for {
		select {
		case <-c.stop:
			return
		case <-t.C:
			c.ProbeNow(context.Background())
		}
	}
}

// ProbeNow actively checks every shard's /healthz once, in parallel,
// feeding the same failure streak as query traffic: a probe failure
// extends the shard's failure streak toward exclusion, a success re-admits
// it. Probes record no latency sample; the hedge trigger is sized from
// partition fetches alone. The background prober calls this on its ticker;
// tests call it directly to make exclusion and recovery deterministic.
func (c *Coordinator) ProbeNow(ctx context.Context) {
	shards, _ := c.members()
	calls := make([]shardCall, len(shards))
	for i, s := range shards {
		calls[i] = shardCall{s, http.MethodGet, "/healthz"}
	}
	errs := c.callShards(ctx, 5*time.Second, calls, func(i int, res *http.Response) error {
		io.Copy(io.Discard, res.Body)
		if res.StatusCode != http.StatusOK {
			return fmt.Errorf("status %d", res.StatusCode)
		}
		shards[i].recordAlive()
		return nil
	})
	for i, err := range errs {
		if err != nil {
			shards[i].recordFailure()
		}
	}
}

// errShardsDown reports a partition with no reachable owner or replica.
var errShardsDown = errors.New("cluster: no shard available")

// fetch resolves the partition key on the ring and posts body to
// /v1/rows on the owning shard, hedging to the replica after the owner's
// latency trigger and retrying on it when the owner fails outright. The
// returned error is fatal (a deterministic 4xx the replica would repeat)
// or exhausted (owner and replica both failed).
func (c *Coordinator) fetch(ctx context.Context, key string, body []byte) (*server.RowsFrame, error) {
	c.fanouts.Add(1)
	shards, ring := c.members()
	owner, replica := ring.pick(key, nil)
	if owner == -1 {
		return nil, errShardsDown
	}
	// Data lives on the owner and replica only, so routing never walks past
	// them: an excluded owner demotes to the replica, an excluded replica
	// just loses the hedge.
	primary, secondary := owner, replica
	if shards[primary].excludedBy(c.cfg.FailAfter) {
		if secondary == -1 || shards[secondary].excludedBy(c.cfg.FailAfter) {
			return nil, fmt.Errorf("%w: partition %q owner and replica excluded", errShardsDown, key)
		}
		primary, secondary = secondary, -1
	} else if secondary != -1 && shards[secondary].excludedBy(c.cfg.FailAfter) {
		secondary = -1
	}
	return c.hedgedPost(ctx, shards, primary, secondary, body)
}

// attempt is one shard response in flight.
type attempt struct {
	resp  *server.RowsFrame
	err   error
	fatal bool // deterministic client error; retrying cannot help
	from  int
}

// hedgedPost runs the hedged two-attempt protocol against primary and
// (when >= 0) secondary.
func (c *Coordinator) hedgedPost(ctx context.Context, shards []*shard, primary, secondary int, body []byte) (*server.RowsFrame, error) {
	actx, cancel := context.WithCancel(ctx)
	defer cancel()
	ch := make(chan attempt, 2)
	post := func(idx int) {
		resp, err, fatal := c.post(actx, shards[idx], body)
		ch <- attempt{resp: resp, err: err, fatal: fatal, from: idx}
	}
	go post(primary)
	inflight := 1
	launched := secondary < 0 // nothing left to launch
	var timer *time.Timer
	var timerC <-chan time.Time
	if !launched {
		if d := shards[primary].hedgeDelay(c.cfg.HedgeAfter); d >= 0 {
			timer = time.NewTimer(d)
			defer timer.Stop()
			timerC = timer.C
		}
		// d < 0: hedging disabled — no timer, but launched stays false so a
		// primary failure still retries on the replica immediately.
	}
	var firstErr error
	for {
		select {
		case <-timerC:
			timerC = nil
			launched = true
			inflight++
			c.hedges.Add(1)
			go post(secondary)
		case a := <-ch:
			inflight--
			if a.err == nil {
				if a.from == secondary {
					c.hedgeWins.Add(1)
				}
				cancel()
				return a.resp, nil
			}
			if a.fatal {
				cancel()
				return nil, a.err
			}
			if firstErr == nil {
				firstErr = a.err
			}
			if !launched {
				// The primary failed before the hedge trigger: retry on the
				// replica immediately instead of waiting for a timer that
				// was sized for a healthy primary.
				if timer != nil {
					timer.Stop()
				}
				timerC = nil
				launched = true
				inflight++
				c.retries.Add(1)
				go post(secondary)
				continue
			}
			if inflight == 0 {
				return nil, firstErr
			}
		case <-ctx.Done():
			return nil, context.Cause(ctx)
		}
	}
}

// post sends one /v1/rows attempt to a shard, recording health and latency.
// fatal marks deterministic 4xx failures that must propagate instead of
// triggering the replica.
func (c *Coordinator) post(ctx context.Context, s *shard, body []byte) (resp *server.RowsFrame, err error, fatal bool) {
	s.requests.Add(1)
	start := time.Now()
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, s.url+"/v1/rows", bytes.NewReader(body))
	if err != nil {
		return nil, fmt.Errorf("shard %s: %w", s.name, err), false
	}
	req.Header.Set("Content-Type", "application/json")
	hres, err := c.client.Do(req)
	if err != nil {
		if ctx.Err() != nil {
			// Cancelled because the other attempt won (or the client left):
			// not the shard's fault, keep its health clean.
			return nil, fmt.Errorf("shard %s: %w", s.name, context.Cause(ctx)), false
		}
		s.recordFailure()
		return nil, fmt.Errorf("shard %s: %w", s.name, err), false
	}
	defer hres.Body.Close()
	data, err := io.ReadAll(hres.Body)
	if err != nil {
		if ctx.Err() == nil {
			s.recordFailure()
		}
		return nil, fmt.Errorf("shard %s: reading response: %w", s.name, err), false
	}
	if hres.StatusCode != http.StatusOK {
		msg, verdict := shardErrMsg(data)
		if !verdict {
			msg = fmt.Sprintf("status %d", hres.StatusCode)
		}
		if verdict && hres.StatusCode >= 400 && hres.StatusCode < 500 {
			// The shard is alive and rejected the request deterministically;
			// mirror its verdict to the client. (A 4xx without the service's
			// {"error": ...} body is not a verdict on the request — a shard
			// that does not serve the route answers 404 that way — and counts
			// as a failure below.)
			s.recordSuccess(time.Since(start))
			return nil, server.HTTPError(hres.StatusCode, fmt.Errorf("shard %s: %s", s.name, msg)), true
		}
		if hres.StatusCode == http.StatusServiceUnavailable {
			// Overload shed, not a fault: the shard's admission gate said no.
			// Retriable on the replica — which may have capacity — and the
			// owner's health streak stays clean so one burst of load doesn't
			// eject it from the ring.
			c.sheds.Add(1)
			return nil, fmt.Errorf("shard %s: %s", s.name, msg), false
		}
		s.recordFailure()
		return nil, fmt.Errorf("shard %s: %s", s.name, msg), false
	}
	out, err := server.DecodeRows(data)
	if err != nil {
		s.recordFailure()
		return nil, fmt.Errorf("shard %s: decoding response: %w", s.name, err), false
	}
	s.recordSuccess(time.Since(start))
	return out, nil, false
}

// shardErrMsg extracts the message of a shard's {"error": ...} body; ok is
// false when the body is not one.
func shardErrMsg(data []byte) (msg string, ok bool) {
	var e struct {
		Error string `json:"error"`
	}
	if json.Unmarshal(data, &e) != nil {
		return "", false
	}
	return e.Error, e.Error != ""
}

// Stats snapshots the coordinator's counters and shard health.
func (c *Coordinator) Stats() StatsJSON {
	shards, _ := c.members()
	out := StatsJSON{
		Partitions: c.cfg.Partitions,
		Queries:    c.queries.Load(),
		Fanouts:    c.fanouts.Load(),
		Hedges:     c.hedges.Load(),
		HedgeWins:  c.hedgeWins.Load(),
		Retries:    c.retries.Load(),
		Degraded:   c.degraded.Load(),
		Sheds:      c.sheds.Load(),
	}
	for _, s := range shards {
		s.mu.Lock()
		fails := s.fails
		s.mu.Unlock()
		out.Shards = append(out.Shards, ShardStatsJSON{
			Name:             s.name,
			URL:              s.url,
			Excluded:         fails >= c.cfg.FailAfter,
			ConsecutiveFails: fails,
			Requests:         s.requests.Load(),
			Failures:         s.failures.Load(),
			HedgeDelayMicros: s.hedgeDelay(c.cfg.HedgeAfter).Microseconds(),
		})
	}
	if c.cache != nil {
		st := c.cache.Stats()
		out.Cache = CacheStatsJSON{Hits: st.Hits, Misses: st.Misses, Size: st.Entries}
	}
	return out
}
