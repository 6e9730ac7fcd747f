package api

// Typed /v1/stats wire shapes.
//
// Both servers expose GET /v1/stats: an impserve backend answers a
// ServiceStats document, an improuter front-end a StatsResponse aggregating
// its own routing counters with every backend's ServiceStats. These types
// are the wire contract — the router's aggregation, the cluster test
// harness and the impload/CI artifact tooling all decode into them instead
// of re-declaring anonymous structs or loose maps.
//
// The same numbers are exported as Prometheus text exposition on
// GET /metrics (see the README metric table); /v1/stats is the same
// registry read as one JSON document.

// ServiceStats counts one impserve instance's outcomes since start.
type ServiceStats struct {
	Submitted uint64 `json:"submitted"`
	Executed  uint64 `json:"executed"`
	Deduped   uint64 `json:"deduped"`
	Cached    uint64 `json:"cached"`
	StoreHits uint64 `json:"store_hits"`
	StorePuts uint64 `json:"store_puts"`
	StoreLen  int    `json:"store_entries"`
	// Disk-layer counters; all zero when the results dir is unset.
	// StoreCorrupt counts on-disk entries evicted for failing their
	// integrity check.
	StoreDiskHits uint64 `json:"store_disk_hits,omitempty"`
	StoreDiskPuts uint64 `json:"store_disk_puts,omitempty"`
	StoreCorrupt  uint64 `json:"store_corrupt,omitempty"`
	// Per-lane queue depth and occupancy: interactive submissions may not
	// be starved by bulk sweeps, and these are the numbers that prove it.
	QueuedInteractive  int `json:"queued_interactive"`
	QueuedBulk         int `json:"queued_bulk"`
	RunningInteractive int `json:"running_interactive"`
	RunningBulk        int `json:"running_bulk"`
	// Admission-control counters: QuotaRejections counts submissions
	// bounced for an empty tenant token bucket, QueueRejections those
	// bounced by queue-depth admission (both answered 429 + Retry-After).
	QuotaRejections uint64 `json:"quota_rejections,omitempty"`
	QueueRejections uint64 `json:"queue_rejections,omitempty"`
	// Checkpointed-sweep counters; all zero when checkpointing is off.
	// CheckpointHits counts sweep points answered from the checkpoint cache
	// — a finished simulation's stored metrics — instead of simulated;
	// CheckpointMisses counts shared replays simulated once and published to
	// the checkpoint cache; PrefixCyclesSaved totals the simulated cycles
	// those hits did not have to re-execute.
	CheckpointHits    uint64 `json:"checkpoint_hits,omitempty"`
	CheckpointMisses  uint64 `json:"checkpoint_misses,omitempty"`
	PrefixCyclesSaved uint64 `json:"prefix_cycles_saved,omitempty"`
}

// BackendStats is one backend's slice of the router's aggregated stats:
// the router's per-backend routing counters plus, when the backend was
// reachable at snapshot time, its own ServiceStats.
type BackendStats struct {
	Name    string `json:"name"`
	URL     string `json:"url"`
	Healthy bool   `json:"healthy"`
	LastErr string `json:"last_err,omitempty"`
	// LastProbe is the RFC3339 time of the most recent health-probe
	// *attempt* (success or failure); empty until the first probe fires.
	LastProbe string `json:"last_probe,omitempty"`
	// Submits counts jobs this backend accepted via the router; the
	// locality tests assert on it (identical specs land on one backend).
	Submits uint64 `json:"submits"`
	// Proxied counts non-submit requests (status/result/events/cancel).
	Proxied  uint64 `json:"proxied"`
	Errors   uint64 `json:"errors"`
	Evicted  uint64 `json:"evictions"`
	Readmits uint64 `json:"readmissions"`
	InFlight int64  `json:"in_flight"`
	// ReplicaPuts counts result copies the router wrote into this
	// backend's store (replication fan-out; read-repairs are counted
	// fleet-wide on the router instead).
	ReplicaPuts uint64 `json:"replica_puts"`
	// Service is the backend's own /v1/stats payload, when reachable.
	Service *ServiceStats `json:"service,omitempty"`
}

// StatsResponse is the improuter's aggregated /v1/stats payload.
type StatsResponse struct {
	BackendCount int `json:"backends"`
	HealthyCount int `json:"healthy"`
	// TopologyVersion identifies the membership snapshot these stats were
	// read under (bumped once per join or leave); EffectiveReplicas is the
	// replication factor that snapshot can sustain —
	// min(configured -replicas, member count).
	TopologyVersion   uint64 `json:"topology_version"`
	EffectiveReplicas int    `json:"effective_replicas"`
	// Membership counters: Joins and Leaves count admin-surface ring
	// changes; HandoffKeys counts results bulk-copied between backends
	// during those changes (join warm-up and graceful-leave hand-off).
	Joins       uint64 `json:"joins"`
	Leaves      uint64 `json:"leaves"`
	HandoffKeys uint64 `json:"handoff_keys"`
	// Submitted counts submissions accepted by some backend; Rehashes
	// counts retry attempts that moved a submission off its owner; Failed
	// counts submissions no backend would take.
	Submitted uint64 `json:"submitted"`
	Rehashes  uint64 `json:"rehashes"`
	Failed    uint64 `json:"failed"`
	// QuotaRejections counts submissions the router bounced with 429
	// because the tenant's token bucket was empty (router-level admission;
	// the backends count their own in ServiceStats.QuotaRejections).
	QuotaRejections uint64 `json:"quota_rejections,omitempty"`
	// Replication counters. ReplicaPuts counts result copies written to
	// ring successors; ReplicaErrors counts replication attempts that
	// failed against some backend. ReadRepairs counts submissions whose
	// cold target was refilled from a successor's replica before the work
	// was forwarded; RepairMisses counts submissions where the target and
	// every probed successor missed — i.e. genuinely new work.
	ReplicaPuts   uint64 `json:"replica_puts"`
	ReplicaErrors uint64 `json:"replica_errors"`
	ReadRepairs   uint64 `json:"read_repairs"`
	RepairMisses  uint64 `json:"repair_misses"`
	// Backends carries per-backend routing counters plus, when reachable,
	// each backend's own service stats.
	Backends []BackendStats `json:"per_backend"`
}
