package cluster

import (
	"fmt"
	"hash/fnv"
	"sort"
)

// ring is a consistent-hash ring over shard indexes. Each shard contributes
// vnodes virtual points so partition keys spread evenly; a key is owned by
// the first point clockwise of its hash, and its replica is the next
// distinct shard after the owner. Lookups walk clockwise past excluded
// shards, so shard loss moves only the failed shard's keys (to the shards
// already acting as their replicas) instead of reshuffling the whole map —
// the property that makes hedged retries and health-based exclusion cheap.
type ring struct {
	points []ringPoint // sorted by hash
	shards int
}

type ringPoint struct {
	hash  uint64
	shard int
}

// vnodes is the virtual-point count per shard; 64 keeps the maximum
// ownership imbalance under a few percent for small clusters.
const vnodes = 64

// buildRing places vnodes points per shard name on the ring.
func buildRing(names []string) *ring {
	r := &ring{points: make([]ringPoint, 0, len(names)*vnodes), shards: len(names)}
	for i, name := range names {
		for v := 0; v < vnodes; v++ {
			r.points = append(r.points, ringPoint{hash: hash64(fmt.Sprintf("%s#%d", name, v)), shard: i})
		}
	}
	sort.Slice(r.points, func(a, b int) bool {
		if r.points[a].hash != r.points[b].hash {
			return r.points[a].hash < r.points[b].hash
		}
		return r.points[a].shard < r.points[b].shard
	})
	return r
}

// hash64 is FNV-1a over s.
func hash64(s string) uint64 {
	h := fnv.New64a()
	h.Write([]byte(s))
	return h.Sum64()
}

// pick resolves a partition key to its owner and replica: the first two
// distinct shards clockwise of the key's hash for which excluded returns
// false. A missing replica (single-shard ring, or everything else excluded)
// is -1; a fully excluded ring returns owner -1.
func (r *ring) pick(key string, excluded func(int) bool) (owner, replica int) {
	owner, replica = -1, -1
	if len(r.points) == 0 {
		return
	}
	h := hash64(key)
	start := sort.Search(len(r.points), func(i int) bool { return r.points[i].hash >= h })
	for i := 0; i < len(r.points); i++ {
		p := r.points[(start+i)%len(r.points)]
		if excluded != nil && excluded(p.shard) {
			continue
		}
		if owner == -1 {
			owner = p.shard
			continue
		}
		if p.shard != owner {
			replica = p.shard
			return
		}
	}
	return
}
