package server

import (
	"fmt"
	"sync"
	"testing"
)

func TestCacheGetPut(t *testing.T) {
	c := NewCache(64)
	if _, ok := c.Get("a"); ok {
		t.Fatal("hit on empty cache")
	}
	c.Put("a", 0.25)
	if p, ok := c.Get("a"); !ok || p != 0.25 {
		t.Fatalf("Get(a) = %v, %v", p, ok)
	}
	c.Put("a", 0.5) // overwrite refreshes, does not grow
	if p, _ := c.Get("a"); p != 0.5 {
		t.Fatalf("overwrite lost: %v", p)
	}
	if c.Len() != 1 {
		t.Fatalf("Len = %d, want 1", c.Len())
	}
	st := c.Stats()
	if st.Hits != 2 || st.Misses != 1 || st.Evictions != 0 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestCacheEvictsLRU(t *testing.T) {
	// A capacity-1 cache has a single shard with one slot, so the eviction
	// order is observable.
	c := NewCache(1)
	c.Put("a", 1)
	c.Put("b", 2)
	if _, ok := c.Get("a"); ok {
		t.Fatal("a should have been evicted")
	}
	if p, ok := c.Get("b"); !ok || p != 2 {
		t.Fatalf("b lost: %v, %v", p, ok)
	}
	if st := c.Stats(); st.Evictions != 1 {
		t.Fatalf("evictions = %d, want 1", st.Evictions)
	}
}

func TestCacheCapacitySpreadsOverShards(t *testing.T) {
	c := NewCache(1024)
	for i := 0; i < 4096; i++ {
		c.Put(fmt.Sprintf("key-%d", i), float64(i))
	}
	st := c.Stats()
	if st.Entries > st.Capacity {
		t.Fatalf("entries %d exceed capacity %d", st.Entries, st.Capacity)
	}
	if st.Evictions == 0 {
		t.Fatal("expected evictions after overfilling")
	}
}

// TestCacheConcurrent exercises all shard paths under the race detector.
func TestCacheConcurrent(t *testing.T) {
	c := NewCache(128)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				key := fmt.Sprintf("key-%d", (g*31+i)%200)
				if p, ok := c.Get(key); ok && (p < 0 || p >= 200) {
					t.Errorf("corrupt value %v for %s", p, key)
					return
				}
				c.Put(key, float64((g*31+i)%200))
			}
		}(g)
	}
	wg.Wait()
	c.Stats() // must not race with itself
}

func TestCacheExactCapacity(t *testing.T) {
	for _, capacity := range []int{1, 7, 16, 17, 100, 1024} {
		c := NewCache(capacity)
		if got := c.Stats().Capacity; got != capacity {
			t.Errorf("NewCache(%d): total capacity %d", capacity, got)
		}
	}
	if got := NewCache(0).Stats().Capacity; got != 1 {
		t.Errorf("NewCache(0): total capacity %d, want 1", got)
	}
}

// joinedShard is the shard a joined key hashed to before namespaced
// lookups stopped joining it: FNV-1a over the whole key.
func joinedShard(c *Cache, key string) *lruShard[float64] {
	h := uint64(14695981039346656037)
	for i := 0; i < len(key); i++ {
		h ^= uint64(key[i])
		h *= 1099511628211
	}
	return c.shards[h%uint64(len(c.shards))]
}

// TestNamespacedEntriesKeepTheirShard: an entry put through a namespace is
// stored under the joined key, in the shard the joined key hashes to, and
// a plain lookup of the joined key finds it.
func TestNamespacedEntriesKeepTheirShard(t *testing.T) {
	c := NewCache(4096)
	for i := range 200 {
		ns := nsLRU[float64]{prefix: fmt.Sprintf("model%d", i%7) + nsSep, c: c}
		key := fmt.Sprintf("auto|%d,%d|0.%d||union%d", i%5, i%3, i, i%11)
		ns.Put(key, float64(i))
		joined := ns.prefix + key
		if _, ok := joinedShard(c, joined).items[joined]; !ok {
			t.Fatalf("%q is not in the shard its joined key hashes to", joined)
		}
		if p, ok := c.Get(joined); !ok || p != float64(i) {
			t.Fatalf("Get(%q) = %v, %v", joined, p, ok)
		}
		if p, ok := ns.Get(key); !ok || p != float64(i) {
			t.Fatalf("namespaced Get(%q) = %v, %v", key, p, ok)
		}
	}
	if st := c.Stats(); st.Entries != 200 || st.Hits != 400 || st.Misses != 0 {
		t.Fatalf("stats %+v, want 200 entries, 400 hits", st)
	}
}

// TestPurgePrefixDropsOneNamespace: purging a model's namespace drops
// exactly its entries, none of a model whose name extends it.
func TestPurgePrefixDropsOneNamespace(t *testing.T) {
	c := NewCache(1024)
	a := nsLRU[float64]{prefix: "m" + nsSep, c: c}
	b := nsLRU[float64]{prefix: "mx" + nsSep, c: c}
	for i := range 50 {
		a.Put(fmt.Sprint("k", i), 1)
		b.Put(fmt.Sprint("k", i), 2)
	}
	if n := c.PurgePrefix(a.prefix); n != 50 {
		t.Fatalf("purged %d entries, want 50", n)
	}
	for i := range 50 {
		if _, ok := a.Get(fmt.Sprint("k", i)); ok {
			t.Fatalf("k%d of model m survived its purge", i)
		}
		if p, ok := b.Get(fmt.Sprint("k", i)); !ok || p != 2 {
			t.Fatalf("k%d of model mx: %v, %v after purging m", i, p, ok)
		}
	}
}
