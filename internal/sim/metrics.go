package sim

import (
	"fmt"

	"github.com/impsim/imp/internal/trace"
)

// ModelVersion names the numbers this simulator produces. Bump it in the
// change that moves any golden table (testdata/golden_*.json): stored answers
// are keyed by it, so the bump is what stops a disk cache filled by the old
// model from serving the old model's cycles.
const ModelVersion = 1

// KindStats aggregates per-access-kind outcomes (stream / indirect / other),
// feeding Fig 1 (miss breakdown) and Fig 2 (stall attribution).
type KindStats struct {
	Accesses uint64
	// Misses counts accesses that had to fetch data (not covered by any
	// prefetch): the paper's cache-miss metric.
	Misses uint64
	// CoveredMisses counts would-be misses eliminated by a prefetch (first
	// demand use of a prefetched line, on time).
	CoveredMisses uint64
	// LateCovered counts first uses of in-flight prefetched lines: covered,
	// but with residual stall.
	LateCovered uint64
	// StallCycles is time beyond the L1 hit latency spent waiting on these
	// accesses.
	StallCycles int64
	// TotalLatency accumulates full access latencies (AMAT numerator).
	TotalLatency int64
}

// MissFraction returns this kind's share of total misses across all kinds.
func (k KindStats) rawMisses() uint64 { return k.Misses + k.CoveredMisses + k.LateCovered }

// Metrics is everything one simulation run reports.
type Metrics struct {
	Cycles int64 // runtime: max core finish time
	// PerCoreCycles is produced by collect at the end of a run: nil mid-run
	// and in a machine snapshot, present in sealed finished metrics.
	PerCoreCycles []int64
	Instructions  uint64
	SpinCycles    int64 // busy-wait instructions charged at barriers

	Kind [3]KindStats // indexed by trace.Kind

	// Prefetch effectiveness (Table 3).
	PrefetchesIssued  uint64
	PrefetchesUsed    uint64
	PrefetchesDropped uint64 // outstanding-limit drops
	PrefetchesWasted  uint64 // evicted or invalidated before use

	// Traffic (Fig 12).
	NoCFlitHops  uint64
	NoCDataBytes uint64
	DRAMAccesses uint64
	DRAMBytes    uint64

	// Coherence activity.
	Invalidations uint64
	Broadcasts    uint64

	// IMP internals (aggregated across tiles; zero unless IMP enabled).
	IMPPatterns  uint64
	IMPSecondary uint64
	IMPIndirect  uint64

	// Fetch is the fetch-path latency breakdown (development aid).
	Fetch FetchDebug
}

// kind returns the bucket for k.
func (m *Metrics) kind(k trace.Kind) *KindStats { return &m.Kind[k] }

// TotalAccesses sums demand accesses.
func (m *Metrics) TotalAccesses() uint64 {
	return m.Kind[0].Accesses + m.Kind[1].Accesses + m.Kind[2].Accesses
}

// TotalMisses sums would-be misses (covered or not) across kinds — the
// denominator of Fig 1 and of Table 3 coverage.
func (m *Metrics) TotalMisses() uint64 {
	return m.Kind[0].rawMisses() + m.Kind[1].rawMisses() + m.Kind[2].rawMisses()
}

// MissBreakdown returns each kind's fraction of total misses (Fig 1).
func (m *Metrics) MissBreakdown() (indirect, stream, other float64) {
	total := float64(m.TotalMisses())
	if total == 0 {
		return 0, 0, 0
	}
	return float64(m.Kind[trace.KindIndirect].rawMisses()) / total,
		float64(m.Kind[trace.KindStream].rawMisses()) / total,
		float64(m.Kind[trace.KindOther].rawMisses()) / total
}

// Coverage returns the fraction of would-be misses covered by prefetches
// (Table 3).
func (m *Metrics) Coverage() float64 {
	total := m.TotalMisses()
	if total == 0 {
		return 0
	}
	covered := uint64(0)
	for _, k := range m.Kind {
		covered += k.CoveredMisses + k.LateCovered
	}
	return float64(covered) / float64(total)
}

// Accuracy returns used / issued prefetches (Table 3).
func (m *Metrics) Accuracy() float64 {
	if m.PrefetchesIssued == 0 {
		return 0
	}
	return float64(m.PrefetchesUsed) / float64(m.PrefetchesIssued)
}

// AMAT returns the average memory access latency in cycles.
func (m *Metrics) AMAT() float64 {
	n := m.TotalAccesses()
	if n == 0 {
		return 0
	}
	var lat int64
	for _, k := range m.Kind {
		lat += k.TotalLatency
	}
	return float64(lat) / float64(n)
}

// Throughput returns useful work per cycle (instructions/cycle summed over
// cores); the paper's normalized-throughput figures divide two of these.
func (m *Metrics) Throughput() float64 {
	if m.Cycles == 0 {
		return 0
	}
	return float64(m.Instructions) / float64(m.Cycles)
}

func (m *Metrics) String() string {
	ind, str, oth := m.MissBreakdown()
	return fmt.Sprintf(
		"cycles=%d instr=%d ipc=%.3f | misses=%d (ind %.2f / str %.2f / oth %.2f) | "+
			"cov=%.2f acc=%.2f amat=%.1f | noc=%d flit-hops dram=%dB",
		m.Cycles, m.Instructions, m.Throughput(), m.TotalMisses(), ind, str, oth,
		m.Coverage(), m.Accuracy(), m.AMAT(), m.NoCFlitHops, m.DRAMBytes)
}
