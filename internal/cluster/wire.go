package cluster

import (
	"probpref/internal/server"
)

// ResultJSON is the coordinator's wire form of one merged /v1/query answer:
// the service's V1Result plus an optional cluster diagnostic. On a fully
// healthy fan-out the diagnostic is omitted and the marshaled bytes are
// identical to a single process serving the same model — the property the
// distributed-equivalence suite pins down.
type ResultJSON struct {
	server.V1Result
	// Cluster marks a degraded answer: present only when at least one
	// partition could not be reached on its owner or replica, in which case
	// the merged sections cover the surviving partitions only.
	Cluster *ClusterDiagJSON `json:"cluster,omitempty"`
}

// ClusterDiagJSON is the partial-failure marker of a degraded merged
// answer.
type ClusterDiagJSON struct {
	// Partial reports that one or more partitions are missing from the
	// merge.
	Partial bool `json:"partial"`
	// FailedPartitions lists the missing partition indexes, ascending.
	FailedPartitions []int `json:"failed_partitions"`
	// Errors holds one message per failed partition, aligned with
	// FailedPartitions.
	Errors []string `json:"errors"`
}

// ResponseJSON is the coordinator's response envelope for POST /v1/query,
// mirroring server.V1Response (and byte-identical to it when no result
// carries a cluster diagnostic).
type ResponseJSON struct {
	// Result is the single-request answer.
	Result *ResultJSON `json:"result,omitempty"`
	// Results holds the batch answers, in request order.
	Results []ResultJSON `json:"results,omitempty"`
	// Batch sums the shards' dedup accounting (batch form only).
	Batch *server.BatchJSON `json:"batch,omitempty"`
}

// AppendJSON appends the response's indented JSON to dst through the
// shard's writer (server.AppendV1Response): each result is a V1Result's
// members, then the cluster diagnostic when the answer is degraded.
func (r *ResponseJSON) AppendJSON(dst []byte) ([]byte, error) {
	return server.AppendV1Response(dst, r.Result, r.Results, r.Batch, appendResult)
}

func appendResult(w *server.JSONWriter, r *ResultJSON) {
	w.V1ResultFields(&r.V1Result)
	if d := r.Cluster; d != nil {
		w.Field("cluster").BeginObject()
		w.Field("partial").Bool(d.Partial)
		w.Field("failed_partitions").Ints(d.FailedPartitions)
		w.Field("errors").Strings(d.Errors)
		w.EndObject()
	}
}

// ShardStatsJSON is one shard's row in GET /cluster/stats.
type ShardStatsJSON struct {
	// Name is the shard's cluster-unique name.
	Name string `json:"name"`
	// URL is the shard's base URL.
	URL string `json:"url"`
	// Excluded reports whether health tracking has routed traffic away from
	// the shard.
	Excluded bool `json:"excluded"`
	// ConsecutiveFails counts failures since the last success.
	ConsecutiveFails int `json:"consecutive_fails"`
	// Requests counts attempts sent to the shard.
	Requests uint64 `json:"requests"`
	// Failures counts attempts that failed (network error or 5xx).
	Failures uint64 `json:"failures"`
	// HedgeDelayMicros is the current hedge trigger for the shard in
	// microseconds (the latency p95 once warmed, the configured default
	// before).
	HedgeDelayMicros int64 `json:"hedge_delay_micros"`
}

// CacheStatsJSON reports the coordinator result cache in
// GET /cluster/stats.
type CacheStatsJSON struct {
	// Hits counts queries answered from the merged-result cache.
	Hits uint64 `json:"hits"`
	// Misses counts queries that had to fan out.
	Misses uint64 `json:"misses"`
	// Size is the current entry count.
	Size int `json:"size"`
}

// StatsJSON is the wire form of GET /cluster/stats.
type StatsJSON struct {
	// Partitions is the fixed partition count models are split into.
	Partitions int `json:"partitions"`
	// Shards lists the cluster members with health and latency state.
	Shards []ShardStatsJSON `json:"shards"`
	// Queries counts client queries (single requests and batch elements).
	Queries uint64 `json:"queries"`
	// Fanouts counts partition fetches issued.
	Fanouts uint64 `json:"fanouts"`
	// Hedges counts hedged (duplicate) attempts fired after the latency
	// trigger.
	Hedges uint64 `json:"hedges"`
	// HedgeWins counts hedged attempts that answered first.
	HedgeWins uint64 `json:"hedge_wins"`
	// Retries counts replica attempts fired because the primary failed
	// outright.
	Retries uint64 `json:"retries"`
	// Degraded counts merged answers that carried a partial-failure marker.
	Degraded uint64 `json:"degraded"`
	// Sheds counts shard attempts answered 503 by a shard's admission gate
	// (overload, retried on the replica without dirtying the owner's
	// health).
	Sheds uint64 `json:"sheds"`
	// Cache reports the merged-result cache.
	Cache CacheStatsJSON `json:"cache"`
}

// PlacementJSON is one partition's routing row in GET /cluster/placement.
type PlacementJSON struct {
	// Partition is the partition index.
	Partition int `json:"partition"`
	// Model is the partition's model name on the shards.
	Model string `json:"model"`
	// Owner is the shard that serves the partition.
	Owner string `json:"owner"`
	// Replica is the shard hedged retries fall back to ("" with a
	// single-shard ring).
	Replica string `json:"replica,omitempty"`
}

// PlacementResponse is the wire form of GET /cluster/placement.
type PlacementResponse struct {
	// Model is the base model name the placement was computed for.
	Model string `json:"model"`
	// Partitions holds one row per partition.
	Partitions []PlacementJSON `json:"partitions"`
}

// ShardRequest is the body of POST /cluster/shards: one shard to add.
type ShardRequest struct {
	// Name is the shard's cluster-unique name.
	Name string `json:"name"`
	// URL is the shard's base URL (e.g. http://host:port).
	URL string `json:"url"`
}

// ShardResponse is the wire form of POST /cluster/shards and
// DELETE /cluster/shards/{name}.
type ShardResponse struct {
	// Shard is the affected shard's name.
	Shard string `json:"shard"`
	// Shards is the resulting member count.
	Shards int `json:"shards"`
}
