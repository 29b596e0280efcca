// Package server is the concurrent query service layer over the RIM-PPD
// engine: a process-wide sharded LRU solve cache, a Service that owns a
// database and deduplicates inference groups across the queries of a batch
// before fanning out to a bounded worker pool, and an HTTP/JSON front end
// (see Handler) served by cmd/hardqd.
package server

import (
	"container/list"
	"strings"
	"sync"
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

// Cache is a sharded LRU map from inference-group keys (ppd.GroupKey) to
// probabilities. It implements ppd.SolveCache and is safe for concurrent
// use: keys hash to one of a fixed number of independently locked shards, so
// worker goroutines solving distinct groups rarely contend.
type Cache struct {
	shards []*cacheShard
}

type cacheShard struct {
	mu        sync.Mutex
	capacity  int
	ll        *list.List // front = most recently used
	items     map[string]*list.Element
	hits      uint64
	misses    uint64
	evictions uint64
}

type cacheEntry struct {
	key string
	p   float64
}

// NewCache builds a cache holding exactly capacity entries in total
// (minimum 1), spread over up to 16 independently locked shards. Shard
// capacities differ by at most one entry, so a hot shard may evict slightly
// before the whole cache is full.
func NewCache(capacity int) *Cache {
	if capacity < 1 {
		capacity = 1
	}
	shards := defaultShards
	if capacity < shards {
		shards = capacity
	}
	base, extra := capacity/shards, capacity%shards
	c := &Cache{shards: make([]*cacheShard, shards)}
	for i := range c.shards {
		per := base
		if i < extra {
			per++
		}
		c.shards[i] = &cacheShard{
			capacity: per,
			ll:       list.New(),
			items:    make(map[string]*list.Element),
		}
	}
	return c
}

// shard selects the key's shard by FNV-1a: deterministic across processes,
// so eviction behavior (and the CLI stats lines) is reproducible run to run.
func (c *Cache) shard(key string) *cacheShard {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	for i := 0; i < len(key); i++ {
		h ^= uint64(key[i])
		h *= prime64
	}
	return c.shards[h%uint64(len(c.shards))]
}

// Get returns the cached probability for key and refreshes its recency.
func (c *Cache) Get(key string) (float64, bool) {
	s := c.shard(key)
	s.mu.Lock()
	defer s.mu.Unlock()
	el, ok := s.items[key]
	if !ok {
		s.misses++
		return 0, false
	}
	s.hits++
	s.ll.MoveToFront(el)
	return el.Value.(*cacheEntry).p, true
}

// Put stores the probability for key, evicting the least recently used entry
// of the key's shard when it is full.
func (c *Cache) Put(key string, p float64) {
	s := c.shard(key)
	s.mu.Lock()
	defer s.mu.Unlock()
	if el, ok := s.items[key]; ok {
		el.Value.(*cacheEntry).p = p
		s.ll.MoveToFront(el)
		return
	}
	if s.ll.Len() >= s.capacity {
		old := s.ll.Back()
		s.ll.Remove(old)
		delete(s.items, old.Value.(*cacheEntry).key)
		s.evictions++
	}
	s.items[key] = s.ll.PushFront(&cacheEntry{key: key, p: p})
}

// PurgePrefix drops every entry whose key starts with prefix and returns
// how many were dropped; purged entries count as evictions in Stats. Like
// PlanCache.PurgePrefix it scans every shard, which is fine for its one
// caller (model deletion, a rare admin operation).
func (c *Cache) PurgePrefix(prefix string) int {
	n := 0
	for _, s := range c.shards {
		s.mu.Lock()
		for el := s.ll.Front(); el != nil; {
			next := el.Next()
			if e := el.Value.(*cacheEntry); strings.HasPrefix(e.key, prefix) {
				s.ll.Remove(el)
				delete(s.items, e.key)
				s.evictions++
				n++
			}
			el = next
		}
		s.mu.Unlock()
	}
	return n
}

// Len returns the number of cached entries.
func (c *Cache) Len() int {
	n := 0
	for _, s := range c.shards {
		s.mu.Lock()
		n += s.ll.Len()
		s.mu.Unlock()
	}
	return n
}

// Stats sums hit/miss/eviction counters across shards.
func (c *Cache) Stats() CacheStats {
	st := CacheStats{}
	for _, s := range c.shards {
		s.mu.Lock()
		st.Hits += s.hits
		st.Misses += s.misses
		st.Evictions += s.evictions
		st.Entries += s.ll.Len()
		st.Capacity += s.capacity
		s.mu.Unlock()
	}
	return st
}
