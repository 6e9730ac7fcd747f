// Package sim assembles the full multicore system of Table 1 and replays
// instrumented workload traces through it: per-tile in-order (or small-OoO)
// cores with private L1 data caches and prefetchers, a shared distributed
// S-NUCA L2 with an ACKwise directory, a 2-D mesh NoC, and DRAM behind
// √N memory controllers.
//
// The engine is a Graphite-style loosely synchronized timing model: a
// global min-heap orders cores by their local clocks; L1 hits are processed
// locally, and every shared-resource event (miss, prefetch, coherence
// action) reserves NoC links, L2 ports and DRAM banks in global time order.
package sim

import (
	"fmt"

	"github.com/impsim/imp/internal/cache"
	"github.com/impsim/imp/internal/coherence"
	"github.com/impsim/imp/internal/core"
	"github.com/impsim/imp/internal/cpu"
	"github.com/impsim/imp/internal/dram"
	"github.com/impsim/imp/internal/noc"
)

// PrefetcherKind selects the per-L1 hardware prefetcher.
type PrefetcherKind int

// Prefetcher kinds.
const (
	PrefetchNone PrefetcherKind = iota
	PrefetchStream
	PrefetchGHB
	PrefetchIMP
)

func (k PrefetcherKind) String() string {
	switch k {
	case PrefetchStream:
		return "stream"
	case PrefetchGHB:
		return "ghb"
	case PrefetchIMP:
		return "imp"
	default:
		return "none"
	}
}

// PartialMode selects where partial-cacheline accessing applies (§4, Fig 11).
type PartialMode int

// Partial accessing modes.
const (
	PartialOff PartialMode = iota
	PartialNoC
	PartialNoCDRAM
)

func (m PartialMode) String() string {
	switch m {
	case PartialNoC:
		return "partial-noc"
	case PartialNoCDRAM:
		return "partial-noc+dram"
	default:
		return "full-line"
	}
}

// DRAMKind selects the memory timing model (§5.1).
type DRAMKind int

// DRAM models.
const (
	DRAMSimple DRAMKind = iota
	DRAMDDR3
)

// Config describes one simulated system. DefaultConfig fills in Table 1.
type Config struct {
	Cores     int
	CoreModel cpu.Kind
	OoOWindow int

	L1SizeBytes  int
	L1Ways       int
	L1HitLatency int64

	// L2SliceBytes is the per-tile L2 capacity; 0 means the Table 1 scaling
	// rule 2/√N MB per tile.
	L2SliceBytes int
	L2Ways       int
	L2Latency    int64

	Prefetcher PrefetcherKind
	IMP        core.Params
	Partial    PartialMode

	DRAM   DRAMKind
	NumMCs int // 0 means √N (§5.1)

	// MaxOutstandingPrefetches bounds in-flight prefetches per core.
	MaxOutstandingPrefetches int

	// BarrierLatency models the synchronization flag propagation.
	BarrierLatency int64

	// Ideal makes every access an L1 hit (the paper's Ideal bars).
	Ideal bool
	// PerfectPrefetch prefetches each core's own future accesses
	// PerfectDistance accesses ahead with real bandwidth (PerfPref bars).
	PerfectPrefetch bool
	PerfectDistance int
}

// DefaultConfig returns Table 1's system for the given core count.
func DefaultConfig(cores int) Config {
	return Config{
		Cores:                    cores,
		CoreModel:                cpu.InOrder,
		OoOWindow:                cpu.DefaultWindow,
		L1SizeBytes:              32 * 1024,
		L1Ways:                   4,
		L1HitLatency:             1,
		L2Ways:                   8,
		L2Latency:                8,
		Prefetcher:               PrefetchStream,
		IMP:                      core.DefaultParams(),
		DRAM:                     DRAMSimple,
		MaxOutstandingPrefetches: 16,
		BarrierLatency:           100,
		PerfectDistance:          128,
	}
}

// l2SliceBytes resolves the per-tile L2 capacity: 2/√N MB (§5.1).
func (c Config) l2SliceBytes() int {
	if c.L2SliceBytes > 0 {
		return c.L2SliceBytes
	}
	root := intSqrt(c.Cores)
	b := 2 * 1024 * 1024 / root
	// Round down to a power-of-two line multiple so set counts stay valid.
	return powerOfTwoAtMost(b)
}

func (c Config) numMCs() int {
	if c.NumMCs > 0 {
		return c.NumMCs
	}
	return dram.MCCountForCores(c.Cores)
}

func (c Config) l1SectorBytes() int {
	if c.Partial != PartialOff {
		return 8 // Table 2: 8-byte L1 sectors
	}
	return 64
}

func (c Config) l2SectorBytes() int {
	if c.Partial != PartialOff {
		return 32 // Table 2: 32-byte L2 sectors
	}
	return 64
}

// Validate reports configuration errors.
func (c Config) Validate() error {
	if c.Cores <= 0 {
		return fmt.Errorf("sim: cores = %d", c.Cores)
	}
	d := intSqrt(c.Cores)
	if d*d != c.Cores {
		return fmt.Errorf("sim: %d cores is not a square mesh", c.Cores)
	}
	if c.Ideal && c.PerfectPrefetch {
		return fmt.Errorf("sim: Ideal and PerfectPrefetch are mutually exclusive")
	}
	l1 := cache.Config{SizeBytes: c.L1SizeBytes, Ways: c.L1Ways, SectorBytes: c.l1SectorBytes()}
	if err := l1.Validate(); err != nil {
		return fmt.Errorf("sim: L1: %w", err)
	}
	l2 := cache.Config{SizeBytes: c.l2SliceBytes(), Ways: c.L2Ways, SectorBytes: c.l2SectorBytes()}
	if err := l2.Validate(); err != nil {
		return fmt.Errorf("sim: L2: %w", err)
	}
	if c.Prefetcher == PrefetchIMP {
		if err := c.IMP.Validate(); err != nil {
			return fmt.Errorf("sim: %w", err)
		}
	}
	return nil
}

// Describe prints the configuration in Table 1/Table 2 form.
func (c Config) Describe() string {
	return fmt.Sprintf(
		"cores=%d (%v) | L1 %dKB/%d-way %dB sectors | L2 %dKB/tile %d-way %dB sectors | "+
			"MCs=%d dram=%d | prefetcher=%v partial=%v",
		c.Cores, c.CoreModel, c.L1SizeBytes/1024, c.L1Ways, c.l1SectorBytes(),
		c.l2SliceBytes()/1024, c.L2Ways, c.l2SectorBytes(),
		c.numMCs(), c.DRAM, c.Prefetcher, c.Partial)
}

func intSqrt(n int) int {
	r := 0
	for (r+1)*(r+1) <= n {
		r++
	}
	return r
}

func powerOfTwoAtMost(n int) int {
	p := 1
	for p*2 <= n {
		p *= 2
	}
	return p
}

// buildDRAM constructs the configured DRAM model; restoring is as for build.
func (c Config) buildDRAM(restoring bool) dram.Model {
	if c.DRAM == DRAMDDR3 {
		return dram.NewDDR3(dram.DefaultDDR3Config(c.numMCs()))
	}
	if restoring {
		return dram.NewSimpleForRestore(dram.DefaultSimpleConfig(c.numMCs()))
	}
	return dram.NewSimple(dram.DefaultSimpleConfig(c.numMCs()))
}

// buildNoC constructs the mesh; restoring is as for build.
func (c Config) buildNoC(restoring bool) *noc.Mesh {
	if restoring {
		return noc.NewForRestore(noc.DefaultConfig(c.Cores))
	}
	return noc.New(noc.DefaultConfig(c.Cores))
}

// ackwiseK is the directory's precise-sharer limit.
const ackwiseK = coherence.DefaultK
