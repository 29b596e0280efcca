// Package server is the concurrent query service layer over the RIM-PPD
// engine: a process-wide sharded LRU solve cache, a Service that owns a
// database and deduplicates inference groups across the queries of a batch
// before fanning out to a bounded worker pool, and an HTTP/JSON front end
// (see Handler) served by cmd/hardqd.
package server

import (
	"strings"
	"sync"

	"probpref/internal/solver"
)

const defaultShards = 16

// CacheStats is a point-in-time snapshot of cache effectiveness.
type CacheStats struct {
	// Hits counts Gets that found an entry, across all shards.
	Hits uint64 `json:"hits"`
	// Misses counts Gets that found no entry.
	Misses uint64 `json:"misses"`
	// Evictions counts entries dropped by the per-shard LRU policy.
	Evictions uint64 `json:"evictions"`
	// Entries is the current entry count across all shards.
	Entries int `json:"entries"`
	// Capacity is the summed shard capacities.
	Capacity int `json:"capacity"`
}

// LRU is a sharded least-recently-used map from string keys to values of
// one type, safe for concurrent use: keys hash to one of a fixed number of
// independently locked shards, so goroutines working on distinct keys rarely
// contend. It is the one cache container of the serving stack — the solve
// cache (Cache), the compiled-plan cache (PlanCache) and the cluster
// coordinator's merged-result cache are instantiations of it.
type LRU[V any] struct {
	shards []*lruShard[V]
}

type lruShard[V any] struct {
	mu       sync.Mutex
	capacity int
	items    map[string]*lruEntry[V]
	// ring is the sentinel of the recency ring: ring.next is the most
	// recently used entry, ring.prev the next one to evict.
	ring      lruEntry[V]
	hits      uint64
	misses    uint64
	evictions uint64
	// scratch spells a namespaced key for a lookup (see find).
	scratch []byte
}

type lruEntry[V any] struct {
	key        string
	val        V
	prev, next *lruEntry[V]
}

// unlink takes e out of the recency ring.
func (e *lruEntry[V]) unlink() {
	e.prev.next, e.next.prev = e.next, e.prev
}

// pushFront makes the unlinked entry e the most recently used one of s.
func (s *lruShard[V]) pushFront(e *lruEntry[V]) {
	e.prev, e.next = &s.ring, s.ring.next
	e.prev.next, e.next.prev = e, e
}

// touch refreshes the recency of the linked entry e.
func (s *lruShard[V]) touch(e *lruEntry[V]) {
	if s.ring.next != e {
		e.unlink()
		s.pushFront(e)
	}
}

// find returns the entry of the key ns+key. A namespaced key is spelled
// out in the shard's scratch buffer, which a map index reads without
// allocating a string.
func (s *lruShard[V]) find(ns, key string) (*lruEntry[V], bool) {
	if ns == "" {
		e, ok := s.items[key]
		return e, ok
	}
	s.scratch = append(append(s.scratch[:0], ns...), key...)
	e, ok := s.items[string(s.scratch)]
	return e, ok
}

// drop unlinks e and forgets its key, counting one eviction.
func (s *lruShard[V]) drop(e *lruEntry[V]) {
	e.unlink()
	delete(s.items, e.key)
	s.evictions++
}

// NewLRU builds a cache holding exactly capacity entries in total (minimum
// 1), spread over up to shards independently locked shards. Shard capacities
// differ by at most one entry, so a hot shard may evict slightly before the
// whole cache is full; one shard gives a single-lock cache with exact global
// LRU order.
func NewLRU[V any](capacity, shards int) *LRU[V] {
	capacity = max(capacity, 1)
	shards = max(min(shards, capacity), 1)
	base, extra := capacity/shards, capacity%shards
	c := &LRU[V]{shards: make([]*lruShard[V], shards)}
	for i := range c.shards {
		per := base
		if i < extra {
			per++
		}
		s := &lruShard[V]{capacity: per, items: make(map[string]*lruEntry[V])}
		s.ring.prev, s.ring.next = &s.ring, &s.ring
		c.shards[i] = s
	}
	return c
}

// Cache is the solve cache: an LRU from inference-group keys (ppd.GroupKey)
// to probabilities, implementing ppd.SolveCache.
type Cache = LRU[float64]

// NewCache builds a solve cache holding exactly capacity entries in total
// (minimum 1), spread over up to 16 shards.
func NewCache(capacity int) *Cache { return NewLRU[float64](capacity, defaultShards) }

// PlanCache is the compiled-plan cache: an LRU from namespaced plan keys
// (model namespace + ppd.PlanKey) to compiled union plans. Plans are
// immutable, so one *Plan may be handed to any number of concurrent solves.
//
// Unlike solve-cache entries — whose ppd.GroupKey embeds the session model,
// making stale hits impossible — a plan key does not encode the model's
// labeling; the per-model namespace does. PurgePrefix exists so the service
// can invalidate a model's namespace when the model is deleted (see
// Service.DeleteModel): a later model registered under the same name must
// never inherit plans compiled against the old labeling.
type PlanCache = LRU[*solver.Plan]

// NewPlanCache builds a plan cache holding exactly capacity entries in total
// (minimum 1), spread over up to 16 shards.
func NewPlanCache(capacity int) *PlanCache { return NewLRU[*solver.Plan](capacity, defaultShards) }

// shard selects the shard of the key ns+key by FNV-1a over ns and then
// key, which is FNV-1a over the joined key: deterministic across processes,
// so eviction behavior (and the CLI stats lines) is reproducible run to run.
func (c *LRU[V]) shard(ns, key string) *lruShard[V] {
	const offset64 = 14695981039346656037
	h := fnv1a(fnv1a(offset64, ns), key)
	return c.shards[h%uint64(len(c.shards))]
}

// fnv1a continues an FNV-1a hash h over the bytes of s.
func fnv1a(h uint64, s string) uint64 {
	const prime64 = 1099511628211
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= prime64
	}
	return h
}

// Get returns the cached value for key and refreshes its recency.
func (c *LRU[V]) Get(key string) (V, bool) { return c.get("", key) }

// Put stores the value for key, evicting the least recently used entry of
// the key's shard when it is full. A stored value must not be mutated
// afterwards.
func (c *LRU[V]) Put(key string, val V) { c.put("", key, val) }

// get is Get of the key ns+key, which it does not build.
func (c *LRU[V]) get(ns, key string) (V, bool) {
	s := c.shard(ns, key)
	s.mu.Lock()
	defer s.mu.Unlock()
	e, ok := s.find(ns, key)
	if !ok {
		s.misses++
		var zero V
		return zero, false
	}
	s.hits++
	s.touch(e)
	return e.val, true
}

// put is Put of the key ns+key, which it builds only for a new entry.
func (c *LRU[V]) put(ns, key string, val V) {
	s := c.shard(ns, key)
	s.mu.Lock()
	defer s.mu.Unlock()
	if e, ok := s.find(ns, key); ok {
		e.val = val
		s.touch(e)
		return
	}
	if len(s.items) >= s.capacity {
		s.drop(s.ring.prev)
	}
	e := &lruEntry[V]{key: ns + key, val: val}
	s.items[e.key] = e
	s.pushFront(e)
}

// PurgePrefix drops every entry whose key starts with prefix and returns
// how many were dropped; purged entries count as evictions in Stats. Keys
// hash to shards individually, so a namespace's entries spread across all
// shards and each must be scanned: purging is proportional to the cache
// size, which is fine for its one caller (model deletion, a rare admin
// operation).
func (c *LRU[V]) PurgePrefix(prefix string) int {
	n := 0
	for _, s := range c.shards {
		s.mu.Lock()
		for e := s.ring.next; e != &s.ring; {
			next := e.next
			if strings.HasPrefix(e.key, prefix) {
				s.drop(e)
				n++
			}
			e = next
		}
		s.mu.Unlock()
	}
	return n
}

// Len returns the number of cached entries.
func (c *LRU[V]) Len() int { return c.Stats().Entries }

// Stats sums hit/miss/eviction counters across shards.
func (c *LRU[V]) Stats() CacheStats {
	st := CacheStats{}
	for _, s := range c.shards {
		s.mu.Lock()
		st.Hits += s.hits
		st.Misses += s.misses
		st.Evictions += s.evictions
		st.Entries += len(s.items)
		st.Capacity += s.capacity
		s.mu.Unlock()
	}
	return st
}

// nsLRU namespaces cache keys by model name so two models never share
// entries — even two models built from identical specs, whose GroupKeys
// would otherwise collide by construction, and whose plan keys omit the
// labeling identity altogether (see PlanCache). Over the solve cache it
// implements ppd.SolveCache, over the plan cache ppd.PlanCache. An entry's
// key in the underlying LRU is prefix+key, but a lookup hashes and finds
// the pair without joining it: only a new entry builds the joined string.
// So an entry lands in the shard the joined key hashes to, and
// PurgePrefix(prefix) drops exactly the namespace.
type nsLRU[V any] struct {
	prefix string
	c      *LRU[V]
}

// nsSep separates the model namespace from the group key; model names are
// restricted to URL-safe tokens, so the NUL byte cannot occur in a name.
const nsSep = "\x00"

func (n nsLRU[V]) Get(key string) (V, bool) { return n.c.get(n.prefix, key) }
func (n nsLRU[V]) Put(key string, val V)    { n.c.put(n.prefix, key, val) }
