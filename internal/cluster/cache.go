package cluster

import (
	"container/list"
	"strings"
	"sync"
)

// resultCache is the coordinator-level solve cache: an LRU over merged
// query results, keyed like the service's solve cache — model namespace,
// NUL separator, then the compiled request's canonical key — so identical
// (model, union) requests cross shard boundaries once no matter which
// client repeats them. An entry is the merged result as emitted, so results
// merged with and without their session rows are keyed apart (keysSuffix).
type resultCache struct {
	mu      sync.Mutex
	cap     int
	entries map[string]*list.Element
	order   *list.List // front = most recently used

	hits, misses uint64
}

type cacheEntry struct {
	key string
	res *ResultJSON
}

// newResultCache returns an LRU holding up to capacity merged results.
func newResultCache(capacity int) *resultCache {
	return &resultCache{cap: capacity, entries: make(map[string]*list.Element), order: list.New()}
}

// Get returns the cached merged result for key, or nil.
func (c *resultCache) Get(key string) *ResultJSON {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.entries[key]
	if !ok {
		c.misses++
		return nil
	}
	c.hits++
	c.order.MoveToFront(el)
	return el.Value.(*cacheEntry).res
}

// Put stores a merged result, evicting the least recently used entry past
// capacity. The result must not be mutated after Put.
func (c *resultCache) Put(key string, res *ResultJSON) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.entries[key]; ok {
		el.Value.(*cacheEntry).res = res
		c.order.MoveToFront(el)
		return
	}
	c.entries[key] = c.order.PushFront(&cacheEntry{key: key, res: res})
	for c.order.Len() > c.cap {
		el := c.order.Back()
		c.order.Remove(el)
		delete(c.entries, el.Value.(*cacheEntry).key)
	}
}

// PurgePrefix drops every entry whose key starts with prefix (the model's
// namespace) and returns the number dropped. Model deletion must call this:
// unlike the service's solve cache, whose keys embed the session-model
// content, these keys are addressed by model *name*, so a model re-created
// under the same name would otherwise serve its predecessor's answers.
func (c *resultCache) PurgePrefix(prefix string) int {
	c.mu.Lock()
	defer c.mu.Unlock()
	n := 0
	for el := c.order.Front(); el != nil; {
		next := el.Next()
		if e := el.Value.(*cacheEntry); strings.HasPrefix(e.key, prefix) {
			c.order.Remove(el)
			delete(c.entries, e.key)
			n++
		}
		el = next
	}
	return n
}

// Len returns the number of cached results.
func (c *resultCache) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.order.Len()
}

// stats snapshots hit/miss counters and size.
func (c *resultCache) stats() (hits, misses uint64, size int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.hits, c.misses, c.order.Len()
}
