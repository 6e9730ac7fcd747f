package meter

import (
	"fmt"
	"hash/fnv"
)

// The replay-hot op list. The driver replays it through imp.RunProgram and
// the probe replays the same traces layer by layer, so both read it here.
var (
	ReplayKernels = []string{"pagerank", "spmv", "symgs", "sgd", "lsh"}
	ReplaySystems = []string{"base", "imp", "imp+partial", "ghb"}
)

// ReplayScale is the replay-hot input scale at full size.
const ReplayScale = 0.3

// SubSeed derives the input seed of one use (a workload, a kernel, a set-up
// repetition, an op) from the run's -seed. It is never 0, which the library
// reads as "the paper's default inputs".
func SubSeed(seed int64, use string, n int) int64 {
	h := fnv.New64a()
	fmt.Fprintf(h, "%d/%s/%d", seed, use, n)
	return int64(h.Sum64()>>1) | 1
}

// ReplaySeed is the trace seed of a replay-hot kernel in set-up repetition rep.
func ReplaySeed(seed int64, kernel string, rep int) int64 {
	return SubSeed(seed, "replay-hot/"+kernel, rep)
}

// DriverLayer names the per-layer metrics the driver measures around the
// workload it runs: span durations, counts from the program's public stats,
// the model record and the host's own figures. A workload that does not
// reach a layer reports 0 for it. Every other per-layer metric declared in
// BENCHMARK.json is the probe's.
var DriverLayer = []string{
	"ckptcache.hits", "ckptcache.misses", "ckptcache.cycles_saved",
	"imp.cell_ms_p50", "imp.table_self_ms",
	"service.queue_wait_ms", "service.exec_ms",
	"service.executed", "service.cached", "service.deduped", "service.recomputes",
	"router.hop_us", "router.replica_puts", "router.replica_errors", "router.read_repairs",
	"client.submit_ms", "client.stream_ms", "client.result_ms",
	"model.accesses_per_op", "model.cycles_sum", "model.imp_speedup_geomean",
	"model.noc_flit_hops", "model.dram_bytes", "model.result_crc32",
	"host.peak_rss_mb", "host.gc_cycles", "host.gc_pause_ms", "host.tracing_overhead_share",
}
