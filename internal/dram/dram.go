// Package dram models main memory per Table 1 of the paper: a DRAMSim-like
// DDR3 bank timing model (10-10-10-24, 8 banks per rank, 1 rank per memory
// controller) and the paper's "simple DRAM model" (100 ns latency, 10 GB/s
// per MC), which the paper uses for the partial-cacheline experiments after
// validating it against DRAMSim (§5.1).
//
// Total DRAM bandwidth scales with √N via the number of memory controllers
// (§5.1): a 16-core system has 4 MCs, 64 cores 8 MCs, 256 cores 16 MCs.
package dram

import (
	"fmt"

	"github.com/impsim/imp/internal/recycle"
)

// Model is a main-memory timing model. Access plays one transfer of size
// bytes for the cacheline lineID through memory controller mc, starting no
// earlier than now, and returns the completion time. Implementations
// account bandwidth by queueing behind earlier requests to the same
// resources.
type Model interface {
	Access(now int64, mc int, lineID uint64, bytes int) int64
	NumMCs() int
	Stats() Stats
	ResetStats()
	// Release surrenders the model's timing state for reuse by a later
	// model; only Stats may be called afterwards.
	Release()
}

// Stats aggregates DRAM activity. Bytes is the paper's "DRAM traffic"
// metric (Fig 12).
type Stats struct {
	Accesses  uint64
	Bytes     uint64
	RowHits   uint64 // DDR3 model only
	RowMisses uint64 // DDR3 model only
}

// MCForLine statically interleaves cachelines across MCs.
func MCForLine(lineID uint64, numMC int) int {
	return int(lineID % uint64(numMC))
}

// MCCountForCores returns the paper's §5.1 scaling rule: the number of
// memory controllers (hence total DRAM bandwidth) grows with √N.
func MCCountForCores(cores int) int {
	r := 1
	for r*r < cores {
		r++
	}
	return r
}

// MinTransferBytes is the minimum DRAM burst (§4.1: 32 B granularity, as in
// at least one commercial processor).
const MinTransferBytes = 32

// ClampTransfer rounds a requested transfer up to the DRAM minimum burst
// and down to a full line.
func ClampTransfer(bytes int) int {
	if bytes < MinTransferBytes {
		return MinTransferBytes
	}
	if bytes > 64 {
		return 64
	}
	return bytes
}

// DDR3Config carries the DDR3 bank timing parameters, in memory-bus cycles,
// plus the core-clock ratio used to convert them to core cycles.
type DDR3Config struct {
	NumMCs       int
	BanksPerRank int     // Table 1: 8
	TCAS         int     // column access strobe latency (10)
	TRCD         int     // row-to-column delay (10)
	TRP          int     // row precharge (10)
	TRAS         int     // row active time (24)
	BurstCycles  int     // data bus cycles for a 64 B line (BL8 on x64: 4)
	RowBytes     int     // row buffer size per bank
	CoreClockMul float64 // core cycles per DRAM cycle (1 GHz core / 667 MHz bus ≈ 1.5)
}

// DefaultDDR3Config returns the paper's 10-10-10-24 configuration for the
// given MC count.
func DefaultDDR3Config(numMCs int) DDR3Config {
	return DDR3Config{
		NumMCs:       numMCs,
		BanksPerRank: 8,
		TCAS:         10,
		TRCD:         10,
		TRP:          10,
		TRAS:         24,
		BurstCycles:  4,
		RowBytes:     8192,
		CoreClockMul: 1.5,
	}
}

type bank struct {
	busyUntil int64
	openRow   int64 // -1 when no row is open
	activated int64 // cycle of the last ACT, for tRAS
}

// DDR3 is the bank-level timing model.
type DDR3 struct {
	//imp:nosnap configuration, fixed at construction
	cfg   DDR3Config
	banks [][]bank // [mc][bank]
	bus   []int64  // data bus busy-until per MC
	stats Stats
}

// NewDDR3 builds the bank model; it panics on non-positive MC count, a
// configuration error.
func NewDDR3(cfg DDR3Config) *DDR3 {
	if cfg.NumMCs <= 0 || cfg.BanksPerRank <= 0 {
		panic(fmt.Sprintf("dram: invalid config %+v", cfg))
	}
	banks := make([][]bank, cfg.NumMCs)
	for i := range banks {
		banks[i] = make([]bank, cfg.BanksPerRank)
		for j := range banks[i] {
			banks[i][j].openRow = -1
		}
	}
	return &DDR3{cfg: cfg, banks: banks, bus: make([]int64, cfg.NumMCs)}
}

// NumMCs returns the number of memory controllers.
func (d *DDR3) NumMCs() int { return d.cfg.NumMCs }

// Stats returns a copy of the counters.
func (d *DDR3) Stats() Stats { return d.stats }

// ResetStats clears the counters (not timing state).
func (d *DDR3) ResetStats() { d.stats = Stats{} }

// Release does nothing: the bank table is under a kilobyte per controller,
// less than the free list's own bookkeeping.
func (d *DDR3) Release() {}

func (d *DDR3) cycles(n int) int64 {
	return int64(float64(n)*d.cfg.CoreClockMul + 0.5)
}

// Access issues one read/fill of size bytes for lineID at controller mc.
func (d *DDR3) Access(now int64, mc int, lineID uint64, bytes int) int64 {
	bytes = ClampTransfer(bytes)
	d.stats.Accesses++
	d.stats.Bytes += uint64(bytes)

	linesPerRow := uint64(d.cfg.RowBytes / 64)
	bankID := (lineID / uint64(d.cfg.NumMCs)) % uint64(d.cfg.BanksPerRank)
	row := int64(lineID / uint64(d.cfg.NumMCs) / uint64(d.cfg.BanksPerRank) / linesPerRow)
	b := &d.banks[mc][bankID]

	start := max64(now, b.busyUntil)
	var access int64
	switch {
	case b.openRow == row:
		d.stats.RowHits++
		access = d.cycles(d.cfg.TCAS)
	case b.openRow == -1:
		d.stats.RowMisses++
		access = d.cycles(d.cfg.TRCD + d.cfg.TCAS)
		b.activated = start
	default:
		d.stats.RowMisses++
		// Respect tRAS: the open row must have been active long enough
		// before it can be precharged.
		earliestPre := b.activated + d.cycles(d.cfg.TRAS)
		if start < earliestPre {
			start = earliestPre
		}
		access = d.cycles(d.cfg.TRP + d.cfg.TRCD + d.cfg.TCAS)
		b.activated = start + d.cycles(d.cfg.TRP)
	}
	b.openRow = row

	// Burst occupies the per-MC data bus; partial transfers take
	// proportionally fewer bus cycles.
	burst := d.cycles(d.cfg.BurstCycles * bytes / 64)
	if burst < 1 {
		burst = 1
	}
	dataReady := start + access
	busStart := max64(dataReady, d.bus[mc])
	d.bus[mc] = busStart + burst
	done := busStart + burst

	b.busyUntil = start + access
	return done
}

// SimpleConfig parameterizes the fixed-latency model.
type SimpleConfig struct {
	NumMCs        int
	LatencyCycles int64   // Table 1: 100 ns at 1 GHz
	BytesPerCycle float64 // Table 1: 10 GB/s at 1 GHz = 10 B/cycle per MC
}

// DefaultSimpleConfig returns the paper's simple-model parameters.
func DefaultSimpleConfig(numMCs int) SimpleConfig {
	return SimpleConfig{NumMCs: numMCs, LatencyCycles: 100, BytesPerCycle: 10}
}

// Bandwidth in the simple model is tracked per epoch so that transfers
// scheduled at future times (e.g. chained prefetches) cannot block earlier
// requests the way a single busy-until watermark would; each epoch has a
// byte budget of BytesPerCycle × epochCycles.
const (
	epochCycles = 64
	epochRing   = 512
)

type mcRing struct {
	epoch [epochRing]int64
	used  [epochRing]float64 // bytes charged per epoch
	hint  int64              // earliest epoch that might still have room
}

func (r *mcRing) reserve(t int64, bytes, capPerEpoch float64) int64 {
	e := t / epochCycles
	if r.hint > e {
		e = r.hint
	}
	for {
		slot := e % epochRing
		if r.epoch[slot] != e {
			r.epoch[slot] = e
			r.used[slot] = 0
		}
		if r.used[slot]+bytes <= capPerEpoch {
			r.used[slot] += bytes
			if r.used[slot] >= capPerEpoch-64 && e > r.hint {
				r.hint = e
			}
			start := e * epochCycles
			if t > start {
				start = t
			}
			return start
		}
		e++
	}
}

// Simple is the fixed latency + bandwidth model.
type Simple struct {
	//imp:nosnap configuration, fixed at construction
	cfg SimpleConfig
	mcs []mcRing
	//imp:nosnap the free-list entry mcs came from, kept to hand back on Release
	listed *[]mcRing
	stats  Stats
}

// ringList holds the bandwidth rings of released simple models, filed by MC
// count (8 KB a controller).
var ringList recycle.List[[]mcRing]

// NewSimple builds an idle simple model. The bandwidth rings come from the
// free list when a released model of the same MC count left them there.
func NewSimple(cfg SimpleConfig) *Simple {
	s, recycled := newSimpleUncleared(cfg)
	if recycled {
		clear(s.mcs)
	}
	return s
}

// NewSimpleForRestore builds a simple model whose rings hold unspecified
// contents: the caller must Restore into it before any other use. Restore
// overwrites every ring, so clearing recycled rings first would be wasted
// work.
func NewSimpleForRestore(cfg SimpleConfig) *Simple {
	s, _ := newSimpleUncleared(cfg)
	return s
}

func newSimpleUncleared(cfg SimpleConfig) (s *Simple, recycled bool) {
	if cfg.NumMCs <= 0 || cfg.LatencyCycles <= 0 || cfg.BytesPerCycle <= 0 {
		panic(fmt.Sprintf("dram: invalid config %+v", cfg))
	}
	e := ringList.Get(cfg.NumMCs)
	recycled = e != nil
	if e == nil {
		mcs := make([]mcRing, cfg.NumMCs)
		e = &mcs
	}
	return &Simple{cfg: cfg, mcs: *e, listed: e}, recycled
}

// Release surrenders the bandwidth rings to the free list; releasing twice
// is harmless.
func (s *Simple) Release() {
	ringList.Put(len(s.mcs), s.listed)
	s.listed, s.mcs = nil, nil
}

// NumMCs returns the number of memory controllers.
func (s *Simple) NumMCs() int { return s.cfg.NumMCs }

// Stats returns a copy of the counters.
func (s *Simple) Stats() Stats { return s.stats }

// ResetStats clears the counters.
func (s *Simple) ResetStats() { s.stats = Stats{} }

// Access issues one transfer through mc's bandwidth budget.
func (s *Simple) Access(now int64, mc int, lineID uint64, bytes int) int64 {
	bytes = ClampTransfer(bytes)
	s.stats.Accesses++
	s.stats.Bytes += uint64(bytes)

	service := int64(float64(bytes)/s.cfg.BytesPerCycle + 0.5)
	start := s.mcs[mc].reserve(now, float64(bytes), s.cfg.BytesPerCycle*epochCycles)
	return start + service + s.cfg.LatencyCycles
}

func max64(a, b int64) int64 {
	if a > b {
		return a
	}
	return b
}
