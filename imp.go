// Package imp is a reproduction of "IMP: Indirect Memory Prefetcher"
// (Yu, Hughes, Satish, Devadas — MICRO-48, 2015) as a reusable Go library.
//
// It bundles an instrumented-workload tracer (the paper's seven sparse
// kernels plus a dense control), a Graphite-style multicore timing
// simulator (in-order/OoO cores, sector caches, ACKwise directory, mesh
// NoC, DDR3/simple DRAM), the IMP prefetcher itself (stream table, IPD,
// prefetch table with multi-way/multi-level indirection, granularity
// predictor for partial cacheline accessing), and experiment runners that
// regenerate every table and figure of the paper's evaluation.
//
// Quick start:
//
//	res, err := imp.Run(imp.Config{Workload: "pagerank", Cores: 16, System: imp.SystemIMP})
//	fmt.Println(res.Cycles, res.Coverage)
//
// or regenerate a paper figure:
//
//	tbl, err := imp.Experiments.Run("fig9", imp.ExpOptions{Cores: 64})
//	fmt.Println(tbl)
package imp

import (
	"encoding/json"
	"fmt"
	"io"
	"os"

	"github.com/impsim/imp/internal/core"
	"github.com/impsim/imp/internal/cpu"
	"github.com/impsim/imp/internal/progcache"
	"github.com/impsim/imp/internal/sim"
	"github.com/impsim/imp/internal/trace"
	"github.com/impsim/imp/internal/workload"
)

// System selects the evaluated configuration (§5.4).
type System int

// Systems, in the paper's naming.
const (
	// SystemBaseline: stream prefetcher per L1, no IMP ("Base").
	SystemBaseline System = iota
	// SystemIMP: stream + indirect prefetching (§3).
	SystemIMP
	// SystemIMPPartialNoC: IMP + partial cacheline accessing in the NoC.
	SystemIMPPartialNoC
	// SystemIMPPartial: IMP + partial accessing in NoC and DRAM.
	SystemIMPPartial
	// SystemSWPrefetch: Mowry-style compiler-inserted indirect prefetches.
	SystemSWPrefetch
	// SystemPerfect: the idealized prefetcher with finite bandwidth
	// ("Perfect Prefetching").
	SystemPerfect
	// SystemIdeal: all accesses hit in the L1 ("Ideal").
	SystemIdeal
	// SystemGHB: stream + global-history-buffer correlation prefetcher.
	SystemGHB
	// SystemNone: no prefetching at all.
	SystemNone
)

var systemNames = map[System]string{
	SystemBaseline:      "base",
	SystemIMP:           "imp",
	SystemIMPPartialNoC: "imp+partial-noc",
	SystemIMPPartial:    "imp+partial",
	SystemSWPrefetch:    "swpref",
	SystemPerfect:       "perfpref",
	SystemIdeal:         "ideal",
	SystemGHB:           "ghb",
	SystemNone:          "none",
}

func (s System) String() string { return systemNames[s] }

// SystemNames returns every system configuration name ("base", "imp", ...)
// in declaration order.
func SystemNames() []string {
	out := make([]string, 0, len(systemNames))
	for s := SystemBaseline; s <= SystemNone; s++ {
		out = append(out, systemNames[s])
	}
	return out
}

// ParseSystem resolves a system configuration by its paper name, as printed
// by String ("imp", "base", "imp+partial", ...).
func ParseSystem(name string) (System, error) {
	for s, n := range systemNames {
		if n == name {
			return s, nil
		}
	}
	return 0, fmt.Errorf("imp: unknown system %q (have %v)", name, SystemNames())
}

// MarshalJSON encodes the system as its stable paper name, so serialized
// Configs (sweep job specs) survive reordering of the System constants.
func (s System) MarshalJSON() ([]byte, error) {
	n, ok := systemNames[s]
	if !ok {
		return nil, fmt.Errorf("imp: unknown system %d", s)
	}
	return json.Marshal(n)
}

// UnmarshalJSON accepts a system name ("imp").
func (s *System) UnmarshalJSON(data []byte) error {
	var name string
	if err := json.Unmarshal(data, &name); err != nil {
		return fmt.Errorf("imp: system must be one of %v: %s", SystemNames(), data)
	}
	v, err := ParseSystem(name)
	if err != nil {
		return err
	}
	*s = v
	return nil
}

// Config describes one simulation run.
type Config struct {
	// Workload is one of Workloads() (e.g. "pagerank", "spmv").
	Workload string
	// Cores is the core count; must be a perfect square (Table 1: 16/64/256).
	Cores int
	// System picks the prefetching configuration.
	System System
	// Scale multiplies the default input size (default 1.0).
	Scale float64
	// OutOfOrder switches the cores to the 32-entry-window model (§6.3.1).
	OutOfOrder bool
	// Seed perturbs input generation (0 = default).
	Seed int64

	// PTEntries, IPDEntries and MaxPrefetchDistance override Table 2's IMP
	// parameters when nonzero (sensitivity studies, §6.3.2).
	PTEntries           int
	IPDEntries          int
	MaxPrefetchDistance int

	// program, when set, reuses a pre-built trace (experiment caching).
	program *trace.Program
}

// Result is the outcome of one run.
type Result struct {
	Cycles       int64
	Instructions uint64
	// Throughput is instructions per cycle summed over cores.
	Throughput float64
	// Coverage, Accuracy and AMAT are the Table 3 metrics.
	Coverage float64
	Accuracy float64
	AMAT     float64
	// MissFracIndirect/Stream/Other decompose L1 misses (Fig 1).
	MissFracIndirect float64
	MissFracStream   float64
	MissFracOther    float64
	// StallIndirect/StallOther are stall cycles by access kind (Fig 2).
	StallIndirect int64
	StallOther    int64
	// NoCFlitHops and DRAMBytes are the Fig 12 traffic metrics.
	NoCFlitHops uint64
	DRAMBytes   uint64
	// IMP internals.
	PatternsDetected  uint64
	SecondaryPatterns uint64

	// Metrics exposes the full internal metric set for advanced users. It
	// is excluded from JSON export (internal layout, not a stable format).
	Metrics *sim.Metrics `json:"-"`
}

// Workloads returns the available workload names in the paper's order.
func Workloads() []string { return workload.Names() }

// PaperWorkloads returns the seven kernels of the evaluation (§5.3).
func PaperWorkloads() []string { return workload.PaperSet() }

// DefaultIMPParams exposes Table 2's IMP configuration.
func DefaultIMPParams() core.Params { return core.DefaultParams() }

// StorageCost returns the §6.4 hardware budget of the default (or partial)
// IMP configuration.
func StorageCost(partial bool) core.StorageCost {
	p := core.DefaultParams()
	p.Partial = partial
	return p.Storage()
}

// BuildProgram traces a workload once for reuse across Run calls with
// the same workload/cores/scale (experiments sweep systems over one trace).
// Builds go through the trace cache: identical (workload, cores, scale,
// swpref, seed) requests are served from memory within a process and from
// the on-disk binary trace store across processes (set IMP_TRACE_CACHE to
// relocate it, or IMP_TRACE_CACHE=off to always rebuild). The returned
// program is shared and must be treated as read-only.
func BuildProgram(name string, cores int, scale float64, swpref bool, seed int64) (*Program, error) {
	p, err := progcache.Get(name, workload.Options{
		Cores: cores, Scale: scale, SoftwarePrefetch: swpref, Seed: seed,
	})
	if err != nil {
		return nil, err
	}
	return &Program{p: p}, nil
}

// Program is an opaque pre-built workload trace.
type Program struct{ p *trace.Program }

// Accesses returns the number of demand memory accesses traced.
func (p *Program) Accesses() uint64 { return p.p.TotalAccesses() }

// Instructions returns the total dynamic instruction count.
func (p *Program) Instructions() uint64 { return p.p.TotalInstructions() }

// WriteTo encodes the program in the versioned binary trace format
// (varint-delta records, ~6-8 bytes per access instead of 16 in memory).
// The same format backs the on-disk trace cache and `imptrace encode`.
func (p *Program) WriteTo(w io.Writer) (int64, error) { return p.p.WriteTo(w) }

// WriteFile encodes the program to path (atomic temp-file-and-rename).
func (p *Program) WriteFile(path string) error { return p.p.WriteFile(path) }

// ReadProgram decodes a binary trace from r, verifying its checksum and
// materializing all records. To replay without materializing, use
// RunTraceFile.
func ReadProgram(r io.Reader) (*Program, error) {
	tp, err := trace.ReadProgram(r)
	if err != nil {
		return nil, err
	}
	return &Program{p: tp}, nil
}

// ReadProgramFile loads a binary trace written by WriteFile or `imptrace
// encode`.
func ReadProgramFile(path string) (*Program, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	p, err := ReadProgram(f)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return p, nil
}

// RunTraceFile replays an encoded trace file under cfg, streaming records
// from disk with memory bounded by the replay lookahead window — the way to
// run traces too large to materialize. The trace defines the core count and
// inputs; cfg.Workload, cfg.Cores, cfg.Scale and cfg.Seed are ignored.
func RunTraceFile(path string, cfg Config) (*Result, error) {
	fs, err := trace.OpenFile(path)
	if err != nil {
		return nil, err
	}
	defer fs.Close()
	cfg.Cores = fs.Cores()
	scfg, err := cfg.simConfig()
	if err != nil {
		return nil, err
	}
	m, err := sim.RunSource(fs, scfg)
	if err != nil {
		return nil, err
	}
	return newResult(m), nil
}

// RunProgram simulates a pre-built trace under cfg (cfg.Workload/Scale/Seed
// are ignored; the program defines them).
func RunProgram(prog *Program, cfg Config) (*Result, error) {
	cfg.program = prog.p
	return Run(cfg)
}

// Run builds the workload trace (unless pre-built) and simulates it.
func Run(cfg Config) (*Result, error) {
	cfg.applyDefaults()
	prog, err := cfg.resolveProgram()
	if err != nil {
		return nil, err
	}
	scfg, err := cfg.simConfig()
	if err != nil {
		return nil, err
	}
	m, err := sim.Run(prog, scfg)
	if err != nil {
		return nil, err
	}
	return newResult(m), nil
}

// applyDefaults fills the run-shaping defaults (Cores 64, Scale 1.0) in
// place, so every entry point resolves the same effective configuration.
func (cfg *Config) applyDefaults() {
	if cfg.Cores <= 0 {
		cfg.Cores = 64
	}
	if cfg.Scale <= 0 {
		cfg.Scale = 1.0
	}
}

// workloadOptions is the trace build request cfg implies — the same values
// participate in trace-cache and checkpoint content keys.
func (cfg Config) workloadOptions() workload.Options {
	return workload.Options{
		Cores:            cfg.Cores,
		Scale:            cfg.Scale,
		SoftwarePrefetch: cfg.System == SystemSWPrefetch,
		Seed:             cfg.Seed,
	}
}

// resolveProgram returns the pre-built trace when one is attached, and
// otherwise builds (or fetches) it through the trace cache.
func (cfg Config) resolveProgram() (*trace.Program, error) {
	if cfg.program != nil {
		return cfg.program, nil
	}
	return progcache.Get(cfg.Workload, cfg.workloadOptions())
}

func (cfg Config) simConfig() (sim.Config, error) {
	sc := sim.DefaultConfig(cfg.Cores)
	if cfg.OutOfOrder {
		sc.CoreModel = cpu.OutOfOrder
	}
	switch cfg.System {
	case SystemBaseline, SystemSWPrefetch:
		sc.Prefetcher = sim.PrefetchStream
	case SystemIMP:
		sc.Prefetcher = sim.PrefetchIMP
	case SystemIMPPartialNoC:
		sc.Prefetcher = sim.PrefetchIMP
		sc.Partial = sim.PartialNoC
	case SystemIMPPartial:
		sc.Prefetcher = sim.PrefetchIMP
		sc.Partial = sim.PartialNoCDRAM
	case SystemPerfect:
		sc.Prefetcher = sim.PrefetchNone
		sc.PerfectPrefetch = true
	case SystemIdeal:
		sc.Prefetcher = sim.PrefetchNone
		sc.Ideal = true
	case SystemGHB:
		sc.Prefetcher = sim.PrefetchGHB
	case SystemNone:
		sc.Prefetcher = sim.PrefetchNone
	default:
		return sc, fmt.Errorf("imp: unknown system %d", cfg.System)
	}
	if cfg.PTEntries > 0 {
		sc.IMP.PTEntries = cfg.PTEntries
	}
	if cfg.IPDEntries > 0 {
		sc.IMP.IPDEntries = cfg.IPDEntries
	}
	if cfg.MaxPrefetchDistance > 0 {
		sc.IMP.MaxPrefetchDistance = cfg.MaxPrefetchDistance
	}
	return sc, nil
}

func newResult(m *sim.Metrics) *Result {
	ind, str, oth := m.MissBreakdown()
	return &Result{
		Cycles:            m.Cycles,
		Instructions:      m.Instructions,
		Throughput:        m.Throughput(),
		Coverage:          m.Coverage(),
		Accuracy:          m.Accuracy(),
		AMAT:              m.AMAT(),
		MissFracIndirect:  ind,
		MissFracStream:    str,
		MissFracOther:     oth,
		StallIndirect:     m.Kind[trace.KindIndirect].StallCycles,
		StallOther:        m.Kind[trace.KindStream].StallCycles + m.Kind[trace.KindOther].StallCycles,
		NoCFlitHops:       m.NoCFlitHops,
		DRAMBytes:         m.DRAMBytes,
		PatternsDetected:  m.IMPPatterns,
		SecondaryPatterns: m.IMPSecondary,
		Metrics:           m,
	}
}
