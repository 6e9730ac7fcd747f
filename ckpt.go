package imp

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"sync/atomic"

	"github.com/impsim/imp/internal/ckptcache"
	"github.com/impsim/imp/internal/sim"
	"github.com/impsim/imp/internal/trace"
	"github.com/impsim/imp/internal/workload"
)

// Checkpointed sweep execution. A sweep point's simulation is a pure
// function of its trace and its effective sim configuration, and all a sweep
// ever asks of a finished point is its metrics. So a finished replay is
// remembered as exactly that — its sim.Metrics, sealed in internal/sim's
// versioned, CRC'd envelope, some 150 bytes, which internal/castore's
// 20-byte envelope wraps again on disk — and any later point with the same
// identity is answered from them: no trace, no machine, no replay.
// Identity is content-addressed like results (internal/jobkey) and traces
// (internal/progcache): the key covers the workload build request, the
// effective system, the model version, and the trace, generator and snapshot
// format versions, so a version bump invalidates stale answers implicitly.
// Late-binding IMP prefetch parameters are zeroed out of the key when the
// configured system never instantiates the IMP prefetcher — for such systems
// they are inert, so e.g. a Baseline cell keyed by a sensitivity sweep still
// shares the Baseline replay. For IMP systems they shape the simulation from
// the first record and stay in the key.

// CheckpointStats counts checkpointed-execution outcomes process-wide,
// across every sweep (the same scope as the trace-cache counters).
type CheckpointStats struct {
	// Hits counts sweep points answered from a checkpoint.
	Hits uint64
	// Misses counts shared replays simulated cold (and then published).
	Misses uint64
	// PrefixCyclesSaved totals the simulated cycles of those hits: cycles
	// read from checkpoints instead of re-simulated.
	PrefixCyclesSaved uint64
}

var ckptHits, ckptMisses, ckptCyclesSaved atomic.Uint64

// GetCheckpointStats snapshots the process-wide checkpoint counters.
func GetCheckpointStats() CheckpointStats {
	return CheckpointStats{
		Hits:              ckptHits.Load(),
		Misses:            ckptMisses.Load(),
		PrefixCyclesSaved: ckptCyclesSaved.Load(),
	}
}

// ResetCheckpointStats zeroes the counters. Intended for tests and
// benchmarks.
func ResetCheckpointStats() {
	ckptHits.Store(0)
	ckptMisses.Store(0)
	ckptCyclesSaved.Store(0)
}

// ckptSpec is the canonical JSON shape hashed into a checkpoint key.
type ckptSpec struct {
	Workload string           `json:"workload"`
	Options  workload.Options `json:"options"`
	Sim      sim.Config       `json:"sim"`
}

// checkpointKey derives the content address of cfg's finished replay. cfg
// must already have its defaults applied (the sweep entry points do this
// once per point).
func checkpointKey(cfg Config) (string, error) {
	scfg, err := cfg.simConfig()
	if err != nil {
		return "", err
	}
	if scfg.Prefetcher != sim.PrefetchIMP {
		// Late-binding IMP knobs are inert without the IMP prefetcher;
		// excluding them lets configs differing only in such knobs share
		// one replay.
		scfg.IMP = sim.DefaultConfig(cfg.Cores).IMP
	}
	spec := ckptSpec{
		Workload: cfg.Workload,
		Options:  cfg.workloadOptions().WithDefaults(),
		Sim:      scfg,
	}
	b, err := json.Marshal(spec)
	if err != nil {
		return "", fmt.Errorf("imp: keying checkpoint spec: %w", err)
	}
	// The "impmemo" domain keeps these keys apart from the "impckpt" keys
	// that machine snapshots were published under.
	h := sha256.New()
	fmt.Fprintf(h, "impmemo|fmt%d|gen%d|snap%d|model%d|",
		trace.FormatVersion, workload.GenVersion, sim.SnapshotFormatVersion, sim.ModelVersion)
	h.Write(b)
	return hex.EncodeToString(h.Sum(nil)[:12]), nil
}

// ensureCheckpoint makes cfg's answer available under key: a cache hit is
// free; a miss simulates the replay once and publishes its metrics, so every
// grouped leaf (and later sweeps) reads them instead of re-simulating.
func ensureCheckpoint(cfg Config, key, dir string) error {
	if _, ok := ckptcache.Get(key, dir); ok {
		return nil
	}
	_, err := runAndPublish(cfg, key, dir)
	return err
}

// runCfg is the leaf execution every sweep point goes through: the plain
// Run path without a key (checkpointing off), the read-or-publish path with
// one.
func runCfg(cfg Config, key, dir string) (*Result, error) {
	if key == "" {
		return Run(cfg)
	}
	if data, ok := ckptcache.Get(key, dir); ok {
		if m, err := sim.OpenMetrics(data, cfg.Cores); err == nil {
			ckptHits.Add(1)
			ckptCyclesSaved.Add(uint64(m.Cycles))
			return newResult(m), nil
		}
		// The blob would not open (corrupt file, another format version):
		// evict it and fall through to a cold start — never a wrong
		// result, at worst a re-simulation.
		ckptcache.Evict(key, dir)
	}
	return runAndPublish(cfg, key, dir)
}

// runAndPublish runs cfg's replay cold and publishes its metrics under key.
func runAndPublish(cfg Config, key, dir string) (*Result, error) {
	res, err := Run(cfg)
	if err != nil {
		return nil, err
	}
	ckptMisses.Add(1)
	ckptcache.Put(key, dir, sim.SealMetrics(res.Metrics))
	return res, nil
}
