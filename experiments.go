package imp

import (
	"fmt"
	"sort"
	"time"
)

// ExpOptions parameterize an experiment run. The execution knobs
// (Parallelism, Context, OnProgress, Gate, Seed, Checkpoints) live in the
// embedded RunOptions, shared with SweepOptions; existing field paths like
// opt.Parallelism keep working through promotion.
type ExpOptions struct {
	// Cores (default 64, the paper's headline configuration).
	Cores int
	// Scale multiplies workload input sizes (default 1.0).
	Scale float64
	// Workloads restricts the workload set (default: the experiment's own).
	Workloads []string
	// Progress, when non-nil, receives one line per completed simulation.
	// Kept for backward compatibility; prefer OnProgress.
	Progress func(string)

	RunOptions
}

// ProgressEvent describes one completed (or failed) simulation point of an
// experiment sweep.
type ProgressEvent struct {
	// Experiment is the experiment id ("fig9", "table3", ...).
	Experiment string
	// Workload and System identify the simulated point.
	Workload string
	System   System
	// Point is the point's index in the sweep, Total the sweep size, and
	// Done the number of points finished so far (including this one).
	Point, Total, Done int
	// Cycles is the simulated cycle count (0 if the point failed).
	Cycles int64
	// Elapsed is the point's wall-clock simulation time.
	Elapsed time.Duration
	// Err is the point's failure, nil on success.
	Err error
}

func (o ExpOptions) withDefaults() ExpOptions {
	if o.Cores <= 0 {
		o.Cores = 64
	}
	if o.Scale <= 0 {
		o.Scale = 1.0
	}
	return o
}

// Experiment regenerates one table or figure of the paper.
type Experiment struct {
	ID    string
	Title string
	Run   func(opt ExpOptions) (*Table, error)
}

// ExperimentSet is the registry of all reproducible tables and figures.
type ExperimentSet struct {
	list []*Experiment
}

// Experiments holds every table/figure runner, keyed as in DESIGN.md.
var Experiments = &ExperimentSet{}

// IDs returns the registered experiment ids in definition order.
func (s *ExperimentSet) IDs() []string {
	out := make([]string, len(s.list))
	for i, e := range s.list {
		out[i] = e.ID
	}
	return out
}

// Get returns the experiment with the given id.
func (s *ExperimentSet) Get(id string) (*Experiment, error) {
	for _, e := range s.list {
		if e.ID == id {
			return e, nil
		}
	}
	known := s.IDs()
	sort.Strings(known)
	return nil, fmt.Errorf("imp: unknown experiment %q (have %v)", id, known)
}

// Run executes the experiment with the given id.
func (s *ExperimentSet) Run(id string, opt ExpOptions) (*Table, error) {
	e, err := s.Get(id)
	if err != nil {
		return nil, err
	}
	return e.Run(opt)
}

func registerExp(id, title string, run func(opt ExpOptions) (*Table, error)) {
	Experiments.list = append(Experiments.list, &Experiment{ID: id, Title: title, Run: run})
}

// runner resolves traces for one experiment through the shared progcache
// (in-process LRU + on-disk binary traces — see internal/progcache) and
// fans simulation points out over the harness worker pool. It is safe for
// the concurrent use the sweep engine makes of it: the cache builds each
// trace exactly once and latecomers share the outcome.
type runner struct {
	id  string
	opt ExpOptions
}

func newRunner(id string, opt ExpOptions) *runner {
	return &runner{id: id, opt: opt.withDefaults()}
}

func (r *runner) workloads(def []string) []string {
	if len(r.opt.Workloads) > 0 {
		return r.opt.Workloads
	}
	return def
}

// expPoint is one (workload, config) cell of an experiment's sweep grid.
type expPoint struct {
	workload string
	cfg      Config
}

// sweep simulates all points concurrently (bounded by opt.Parallelism) and
// returns their results in point order, so assembled tables are identical
// at any worker count. Each point's config is fully resolved here (workload,
// cores, scale, derived trace seed); trace builds dedupe through the shared
// progcache, and with opt.Checkpoints enabled, points whose effective
// simulation is identical additionally share one replay through the
// checkpoint cache — common across experiments: fig2 and table3 both
// simulate every workload's Perfect and Baseline cells.
func (r *runner) sweep(points []expPoint) ([]*Result, error) {
	pts := make([]simPoint, len(points))
	for i, p := range points {
		cfg := p.cfg
		cfg.Workload = p.workload
		cfg.Cores = r.opt.Cores
		cfg.Scale = r.opt.Scale
		cfg.Seed = ExpSeed(r.opt.Seed, p.workload)
		pts[i] = newSimPoint(sweepMeta{experiment: r.id, workload: p.workload, system: cfg.System}, cfg, r.opt.Checkpoints)
	}
	return sweepSim(r.opt.ctx(nil), r.opt.RunOptions, pts, r.opt.Progress)
}

// grid sweeps workloads × cfgs and returns results indexed [workload][cfg].
func (r *runner) grid(workloads []string, cfgs []Config) ([][]*Result, error) {
	points := make([]expPoint, 0, len(workloads)*len(cfgs))
	for _, w := range workloads {
		for _, cfg := range cfgs {
			points = append(points, expPoint{workload: w, cfg: cfg})
		}
	}
	flat, err := r.sweep(points)
	if err != nil {
		return nil, err
	}
	out := make([][]*Result, len(workloads))
	for wi := range workloads {
		out[wi] = flat[wi*len(cfgs) : (wi+1)*len(cfgs)]
	}
	return out, nil
}

func init() {
	registerExp("fig1", "L1 cache miss breakdown (indirect / stream / other)", expFig1)
	registerExp("fig2", "Runtime normalized to Ideal, stall attribution + PerfPref", expFig2)
	registerExp("fig9", "Performance normalized to Perfect Prefetching (PerfPref/Base/IMP/SWPref)", expFig9)
	registerExp("table3", "Prefetch coverage / accuracy / latency: stream vs stream+IMP", expTable3)
	registerExp("fig10", "Instruction overhead of software prefetching (normalized to Base)", expFig10)
	registerExp("fig11", "Partial cacheline accessing performance (normalized to PerfPref)", expFig11)
	registerExp("fig12", "NoC and DRAM traffic of partial accessing (normalized to full line)", expFig12)
	registerExp("fig13", "In-order vs out-of-order cores (normalized to Base on OoO)", expFig13)
	registerExp("fig14", "Sensitivity to PT size (8/16/32, normalized to 16)", expFig14)
	registerExp("fig15", "Sensitivity to IPD size (2/4/8, normalized to 4)", expFig15)
	registerExp("fig16", "Sensitivity to max prefetch distance (4/8/16/32, normalized to 16)", expFig16)
	registerExp("storage", "IMP storage cost (§6.4)", expStorage)
	registerExp("ghb", "GHB correlation prefetcher vs stream and IMP (§5.4)", expGHB)
}

func expFig1(opt ExpOptions) (*Table, error) {
	r := newRunner("fig1", opt)
	t := &Table{ID: "fig1", Title: "miss fraction by access type (Base, stream prefetcher)",
		Columns: []string{"indirect", "stream", "other"}}
	ws := r.workloads(PaperWorkloads())
	grid, err := r.grid(ws, []Config{{System: SystemBaseline}})
	if err != nil {
		return nil, err
	}
	for wi, w := range ws {
		res := grid[wi][0]
		t.AddRow(w, res.MissFracIndirect, res.MissFracStream, res.MissFracOther)
	}
	t.AddAverage()
	return t, nil
}

func expFig2(opt ExpOptions) (*Table, error) {
	r := newRunner("fig2", opt)
	t := &Table{ID: "fig2", Title: "runtime normalized to Ideal",
		Columns: []string{"indirect", "other", "total", "perfpref"}}
	ws := r.workloads(PaperWorkloads())
	grid, err := r.grid(ws, []Config{
		{System: SystemIdeal}, {System: SystemBaseline}, {System: SystemPerfect},
	})
	if err != nil {
		return nil, err
	}
	for wi, w := range ws {
		ideal, base, perf := grid[wi][0], grid[wi][1], grid[wi][2]
		norm := float64(base.Cycles) / float64(ideal.Cycles)
		// Split the normalized runtime by stall attribution.
		stalls := float64(base.StallIndirect + base.StallOther)
		indFrac := 0.0
		if stalls > 0 {
			// Fraction of time beyond Ideal spent on indirect stalls.
			indFrac = float64(base.StallIndirect) / stalls
		}
		beyond := norm - 1
		if beyond < 0 {
			beyond = 0
		}
		t.AddRow(w, beyond*indFrac, norm-beyond*indFrac,
			norm, float64(perf.Cycles)/float64(ideal.Cycles))
	}
	t.AddAverage()
	return t, nil
}

func expFig9(opt ExpOptions) (*Table, error) {
	r := newRunner("fig9", opt)
	t := &Table{ID: "fig9", Title: fmt.Sprintf("normalized throughput, %d cores (PerfPref = 1)", opt.withDefaults().Cores),
		Columns: []string{"perfpref", "base", "imp", "swpref"}}
	ws := r.workloads(PaperWorkloads())
	grid, err := r.grid(ws, []Config{
		{System: SystemPerfect}, {System: SystemBaseline},
		{System: SystemIMP}, {System: SystemSWPrefetch},
	})
	if err != nil {
		return nil, err
	}
	for wi, w := range ws {
		perf := grid[wi][0]
		vals := []float64{1}
		for _, res := range grid[wi][1:] {
			vals = append(vals, float64(perf.Cycles)/float64(res.Cycles))
		}
		t.AddRow(w, vals...)
	}
	t.AddAverage()
	return t, nil
}

func expTable3(opt ExpOptions) (*Table, error) {
	r := newRunner("table3", opt)
	t := &Table{ID: "table3", Title: "prefetching effectiveness (latency normalized to PerfPref)",
		Columns: []string{"str.cov", "str.acc", "str.lat", "imp.cov", "imp.acc", "imp.lat"}}
	ws := r.workloads(PaperWorkloads())
	grid, err := r.grid(ws, []Config{
		{System: SystemPerfect}, {System: SystemBaseline}, {System: SystemIMP},
	})
	if err != nil {
		return nil, err
	}
	for wi, w := range ws {
		perf, base, impr := grid[wi][0], grid[wi][1], grid[wi][2]
		t.AddRow(w,
			base.Coverage, base.Accuracy, base.AMAT/perf.AMAT,
			impr.Coverage, impr.Accuracy, impr.AMAT/perf.AMAT)
	}
	t.AddAverage()
	return t, nil
}

func expFig10(opt ExpOptions) (*Table, error) {
	r := newRunner("fig10", opt)
	t := &Table{ID: "fig10", Title: "instruction count normalized to Base",
		Columns: []string{"base", "imp", "swpref"}}
	ws := r.workloads(PaperWorkloads())
	grid, err := r.grid(ws, []Config{
		{System: SystemBaseline}, {System: SystemIMP}, {System: SystemSWPrefetch},
	})
	if err != nil {
		return nil, err
	}
	for wi, w := range ws {
		base, impr, sw := grid[wi][0], grid[wi][1], grid[wi][2]
		b := float64(base.Instructions)
		t.AddRow(w, 1, float64(impr.Instructions)/b, float64(sw.Instructions)/b)
	}
	t.AddAverage()
	return t, nil
}

func expFig11(opt ExpOptions) (*Table, error) {
	r := newRunner("fig11", opt)
	t := &Table{ID: "fig11", Title: fmt.Sprintf("partial cacheline accessing, %d cores (normalized to PerfPref)", opt.withDefaults().Cores),
		Columns: []string{"imp", "partial-noc", "partial-noc+dram", "ideal"}}
	ws := r.workloads(PaperWorkloads())
	grid, err := r.grid(ws, []Config{
		{System: SystemPerfect}, {System: SystemIMP},
		{System: SystemIMPPartialNoC}, {System: SystemIMPPartial}, {System: SystemIdeal},
	})
	if err != nil {
		return nil, err
	}
	for wi, w := range ws {
		perf := grid[wi][0]
		vals := make([]float64, 0, 4)
		for _, res := range grid[wi][1:] {
			vals = append(vals, float64(perf.Cycles)/float64(res.Cycles))
		}
		t.AddRow(w, vals...)
	}
	t.AddAverage()
	return t, nil
}

func expFig12(opt ExpOptions) (*Table, error) {
	r := newRunner("fig12", opt)
	t := &Table{ID: "fig12", Title: "NoC and DRAM traffic with partial accessing (normalized to full-line IMP)",
		Columns: []string{"noc", "dram"}}
	ws := r.workloads(PaperWorkloads())
	grid, err := r.grid(ws, []Config{{System: SystemIMP}, {System: SystemIMPPartial}})
	if err != nil {
		return nil, err
	}
	for wi, w := range ws {
		full, part := grid[wi][0], grid[wi][1]
		t.AddRow(w,
			float64(part.NoCFlitHops)/float64(full.NoCFlitHops),
			float64(part.DRAMBytes)/float64(full.DRAMBytes))
	}
	t.AddAverage()
	return t, nil
}

func expFig13(opt ExpOptions) (*Table, error) {
	r := newRunner("fig13", opt)
	t := &Table{ID: "fig13", Title: "in-order vs out-of-order cores (normalized to Base on OoO)",
		Columns: []string{"base_io", "base_ooo", "imp_io", "imp_ooo", "partial_io", "partial_ooo"}}
	// (io, ooo) per system, as the columns state; Base/OoO is the reference.
	cfgs := make([]Config, 0, 6)
	for _, sys := range []System{SystemBaseline, SystemIMP, SystemIMPPartial} {
		for _, ooo := range []bool{false, true} {
			cfgs = append(cfgs, Config{System: sys, OutOfOrder: ooo})
		}
	}
	ws := r.workloads([]string{"pagerank", "sgd"})
	grid, err := r.grid(ws, cfgs)
	if err != nil {
		return nil, err
	}
	for wi, w := range ws {
		ref := grid[wi][1] // Base, OutOfOrder
		vals := make([]float64, 0, 6)
		for _, res := range grid[wi] {
			vals = append(vals, float64(ref.Cycles)/float64(res.Cycles))
		}
		t.AddRow(w, vals...)
	}
	return t, nil
}

func expSensitivity(id, title string, values []int, def int, set func(*Config, int)) func(ExpOptions) (*Table, error) {
	return func(opt ExpOptions) (*Table, error) {
		r := newRunner(id, opt)
		cols := make([]string, len(values))
		cfgs := make([]Config, len(values))
		ref := -1
		for i, v := range values {
			cols[i] = fmt.Sprintf("%d", v)
			cfgs[i] = Config{System: SystemIMP}
			set(&cfgs[i], v)
			if v == def {
				ref = i
			}
		}
		if ref < 0 {
			return nil, fmt.Errorf("imp: %s: default %d not in sweep values %v", id, def, values)
		}
		t := &Table{ID: id, Title: title, Columns: cols,
			Notes: fmt.Sprintf("normalized to the default value %d", def)}
		ws := r.workloads(PaperWorkloads())
		grid, err := r.grid(ws, cfgs)
		if err != nil {
			return nil, err
		}
		for wi, w := range ws {
			vals := make([]float64, len(values))
			for i, res := range grid[wi] {
				vals[i] = float64(grid[wi][ref].Cycles) / float64(res.Cycles)
			}
			t.AddRow(w, vals...)
		}
		t.AddAverage()
		return t, nil
	}
}

func expFig14(opt ExpOptions) (*Table, error) {
	return expSensitivity("fig14", "PT size sensitivity", []int{8, 16, 32}, 16,
		func(c *Config, v int) { c.PTEntries = v })(opt)
}

func expFig15(opt ExpOptions) (*Table, error) {
	return expSensitivity("fig15", "IPD size sensitivity", []int{2, 4, 8}, 4,
		func(c *Config, v int) { c.IPDEntries = v })(opt)
}

func expFig16(opt ExpOptions) (*Table, error) {
	return expSensitivity("fig16", "max prefetch distance sensitivity", []int{4, 8, 16, 32}, 16,
		func(c *Config, v int) { c.MaxPrefetchDistance = v })(opt)
}

func expStorage(opt ExpOptions) (*Table, error) {
	t := &Table{ID: "storage", Title: "IMP storage cost in bits (§6.4)",
		Columns: []string{"bits", "per-entry"},
		Notes:   "paper: PT < 2 Kbit, IPD ~3.5 Kbit, total ~5.5 Kbit (0.7 KB); GP ~3.4 Kbit"}
	c := StorageCost(false)
	t.AddRow("PT(indirect)", float64(c.PTBits), float64(c.PTEntryBits))
	t.AddRow("IPD", float64(c.IPDBits), float64(c.IPDEntryBits))
	t.AddRow("total", float64(c.TotalBits()), 0)
	cg := StorageCost(true)
	t.AddRow("GP", float64(cg.GPBits), float64(cg.GPEntryBits))
	t.AddRow("total+GP", float64(cg.TotalBits()), 0)
	return t, nil
}

func expGHB(opt ExpOptions) (*Table, error) {
	r := newRunner("ghb", opt)
	t := &Table{ID: "ghb", Title: "GHB adds (almost) nothing over stream on indirect workloads (§5.4)",
		Columns: []string{"base", "ghb", "imp"}}
	ws := r.workloads(PaperWorkloads())
	grid, err := r.grid(ws, []Config{
		{System: SystemBaseline}, {System: SystemGHB}, {System: SystemIMP},
	})
	if err != nil {
		return nil, err
	}
	for wi, w := range ws {
		base, ghb, impr := grid[wi][0], grid[wi][1], grid[wi][2]
		t.AddRow(w, 1,
			float64(base.Cycles)/float64(ghb.Cycles),
			float64(base.Cycles)/float64(impr.Cycles))
	}
	t.AddAverage()
	return t, nil
}
