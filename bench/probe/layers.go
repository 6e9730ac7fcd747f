package main

import (
	"bytes"
	"context"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"github.com/impsim/imp"
	"github.com/impsim/imp/api"
	"github.com/impsim/imp/bench/internal/meter"
	"github.com/impsim/imp/internal/cache"
	"github.com/impsim/imp/internal/ckptcache"
	"github.com/impsim/imp/internal/coherence"
	"github.com/impsim/imp/internal/core"
	"github.com/impsim/imp/internal/cpu"
	"github.com/impsim/imp/internal/dram"
	"github.com/impsim/imp/internal/harness"
	"github.com/impsim/imp/internal/jobkey"
	"github.com/impsim/imp/internal/mem"
	"github.com/impsim/imp/internal/noc"
	"github.com/impsim/imp/internal/prefetch"
	"github.com/impsim/imp/internal/progcache"
	"github.com/impsim/imp/internal/service"
	"github.com/impsim/imp/internal/sim"
	"github.com/impsim/imp/internal/snap"
	"github.com/impsim/imp/internal/trace"
	"github.com/impsim/imp/internal/workload"
)

// probe carries what later steps reuse from earlier ones.
type probe struct {
	config
	vals  map[string]float64
	opts  []workload.Options // build request of each replay-hot trace
	progs []*trace.Program   // the replay-hot traces, in meter.ReplayKernels order
	accs  []access           // the access stream the per-call probes are driven by
	blob  []byte             // a finished replay's snapshot
}

// access is one demand access of the driving stream with what the simulator
// would know when it reaches a layer: the issuing core, whether the L1
// missed, and the loaded value the IMP taps.
type access struct {
	rec   trace.Record
	core  int
	miss  bool
	value uint64
}

// driver is the index in meter.ReplayKernels of the trace whose records
// drive the per-call probes: spmv, the plainest A[B[i]] kernel.
const driver = 1

// ms is the median over reps of f's duration in milliseconds.
func (p *probe) ms(f func()) float64 {
	var out []float64
	for r := 0; r < p.reps; r++ {
		t0 := time.Now()
		f()
		out = append(out, float64(time.Since(t0).Nanoseconds())/1e6)
	}
	return meter.Median(out)
}

// perCall runs f over the access stream, as often as it takes to make at
// least p.calls calls, and returns the median nanoseconds per call.
func (p *probe) perCall(f func(a *access)) float64 {
	rounds := (p.calls + len(p.accs) - 1) / len(p.accs)
	return p.ms(func() {
		for r := 0; r < rounds; r++ {
			for i := range p.accs {
				f(&p.accs[i])
			}
		}
	}) * 1e6 / float64(rounds*len(p.accs))
}

func allocDelta(f func()) (bytes, mallocs uint64) {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	f()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc, after.Mallocs - before.Mallocs
}

// workload times trace generation, uncached, for the replay-hot traces.
func (p *probe) workload() error {
	for _, k := range meter.ReplayKernels {
		p.opts = append(p.opts, workload.Options{Cores: p.cores, Scale: p.scale, Seed: meter.ReplaySeed(p.seed, k, 0)})
	}
	var err error
	buildMS := p.ms(func() {
		p.progs = p.progs[:0]
		for i, k := range meter.ReplayKernels {
			var prog *trace.Program
			if prog, err = workload.Build(k, p.opts[i]); err != nil {
				return
			}
			p.progs = append(p.progs, prog)
		}
	})
	if err != nil {
		return err
	}
	var accesses uint64
	for _, prog := range p.progs {
		accesses += prog.TotalAccesses()
	}
	p.vals["workload.build_ms_per_maccess"] = buildMS / (float64(accesses) / 1e6)
	p.vals["workload.accesses"] = float64(accesses)
	return nil
}

// trace times the codec on the replay-hot traces: whole-program encode and
// decode, and a bare walk over every record through the in-memory and the
// file-backed stream.
func (p *probe) trace() error {
	var encoded [][]byte
	var total, records float64
	var err error
	encMS := p.ms(func() {
		encoded, total = encoded[:0], 0
		for _, prog := range p.progs {
			var buf bytes.Buffer
			if _, err = prog.WriteTo(&buf); err != nil {
				return
			}
			encoded, total = append(encoded, buf.Bytes()), total+float64(buf.Len())
		}
	})
	if err != nil {
		return err
	}
	decode := func() {
		for _, enc := range encoded {
			if _, err = trace.ReadProgram(bytes.NewReader(enc)); err != nil {
				return
			}
		}
	}
	decMS := p.ms(decode)
	decAlloc, _ := allocDelta(decode)
	if err != nil {
		return err
	}
	walk := func(src trace.Source) {
		for c := 0; c < src.Cores(); c++ {
			st := src.Open(c)
			for win := st.Window(64); len(win) > 0; win = st.Window(64) {
				st.Advance(len(win))
			}
			if err == nil {
				err = st.Err()
			}
		}
	}
	var files []trace.Source
	for i, prog := range p.progs {
		for _, t := range prog.Traces {
			records += float64(len(t.Records))
		}
		fs, ferr := trace.NewFileSource(bytes.NewReader(encoded[i]), int64(len(encoded[i])))
		if ferr != nil {
			return ferr
		}
		files = append(files, fs)
	}
	memMS := p.ms(func() {
		for _, prog := range p.progs {
			walk(prog.Source())
		}
	})
	fileMS := p.ms(func() {
		for _, fs := range files {
			walk(fs)
		}
	})
	if err != nil {
		return err
	}
	p.vals["trace.encode_mb_per_s"] = total / 1e6 / (encMS / 1e3)
	p.vals["trace.decode_mb_per_s"] = total / 1e6 / (decMS / 1e3)
	p.vals["trace.decode_alloc_mb"] = float64(decAlloc) / 1e6
	p.vals["trace.bytes_per_record"] = total / records
	p.vals["trace.memstream_ns_per_record"] = memMS * 1e6 / records
	p.vals["trace.filestream_ns_per_record"] = fileMS * 1e6 / records
	return nil
}

// progcache walks the trace cache through its three outcomes on a disk
// layer of its own: every trace built once, then read back from disk by a
// process that has forgotten them, then served from memory.
func (p *probe) progcache() error {
	old, had := os.LookupEnv(progcache.EnvDir)
	os.Setenv(progcache.EnvDir, filepath.Join(p.tmp, "traces"))
	defer func() {
		if had {
			os.Setenv(progcache.EnvDir, old)
		} else {
			os.Unsetenv(progcache.EnvDir)
		}
		progcache.Flush()
	}()
	getAll := func() error {
		for i, k := range meter.ReplayKernels {
			if _, err := progcache.Get(k, p.opts[i]); err != nil {
				return err
			}
		}
		return nil
	}
	progcache.Flush()
	if err := getAll(); err != nil {
		return err
	}
	builds := progcache.GetStats().Builds
	progcache.Flush()
	if err := getAll(); err != nil {
		return err
	}
	const hits = 1 << 16
	var err error
	hitMS := p.ms(func() {
		for i := 0; i < hits; i++ {
			if _, err = progcache.Get(meter.ReplayKernels[driver], p.opts[driver]); err != nil {
				return
			}
		}
	})
	if err != nil {
		return err
	}
	st := progcache.GetStats()
	p.vals["progcache.get_hit_ns"] = hitMS * 1e6 / hits
	p.vals["progcache.builds"] = float64(builds)
	p.vals["progcache.disk_hits"] = float64(st.DiskHits)
	p.vals["progcache.mem_hits"] = float64(st.MemHits)
	return nil
}

// simConfig resolves a system name the way imp.Config does. The layered
// replay checks the two against each other.
func simConfig(cores int, system string) sim.Config {
	c := sim.DefaultConfig(cores)
	switch system {
	case "imp":
		c.Prefetcher = sim.PrefetchIMP
	case "imp+partial":
		c.Prefetcher, c.Partial = sim.PrefetchIMP, sim.PartialNoCDRAM
	case "ghb":
		c.Prefetcher = sim.PrefetchGHB
	case "perfpref":
		c.Prefetcher, c.PerfectPrefetch = sim.PrefetchNone, true
	case "ooo":
		c.CoreModel = cpu.OutOfOrder
	}
	return c
}

// replayed is what replaying the first two replay-hot traces on one system
// gave: timings, and each trace's metrics from the last repetition.
type replayed struct {
	nsPerAccess float64
	collectUS   float64
	metrics     []*sim.Metrics
}

// sim times system build, replay per system, collection, snapshot and
// restore, and takes the modelled layers' counts from the replays.
func (p *probe) sim() error {
	src := p.progs[driver].Source()
	base := simConfig(p.cores, "base")
	var err error
	p.vals["sim.build_ms.c16"] = p.ms(func() { _, err = sim.New(src, base) })
	buildAlloc, _ := allocDelta(func() { _, err = sim.New(src, base) })
	p.vals["sim.build_alloc_mb.c16"] = float64(buildAlloc) / 1e6
	if err != nil {
		return err
	}
	// The 64-core build is timed at 64 cores whatever size the run has.
	big, err := workload.Build("pagerank", workload.Options{Cores: 64, Scale: 0.05, Seed: meter.ReplaySeed(p.seed, "pagerank", 0)})
	if err != nil {
		return err
	}
	p.vals["sim.build_ms.c64"] = p.ms(func() { _, err = sim.New(big.Source(), simConfig(64, "base")) })
	if err != nil {
		return err
	}

	progs := p.progs[:driver+1]
	replay := func(system string) (replayed, error) {
		var r replayed
		var ns, collect []float64
		for rep := 0; rep < p.reps; rep++ {
			var wall, fin time.Duration
			var accesses uint64
			r.metrics = r.metrics[:0]
			for _, prog := range progs {
				sys, err := sim.New(prog.Source(), simConfig(p.cores, system))
				if err != nil {
					return r, err
				}
				t0 := time.Now()
				if err := sys.RunUntil(math.MaxInt); err != nil {
					return r, err
				}
				t1 := time.Now()
				m, err := sys.Finish()
				if err != nil {
					return r, err
				}
				wall, fin = wall+t1.Sub(t0), fin+time.Since(t1)
				accesses += m.TotalAccesses()
				r.metrics = append(r.metrics, m)
			}
			ns = append(ns, float64(wall.Nanoseconds())/float64(accesses))
			collect = append(collect, float64(fin.Nanoseconds())/1e3/float64(len(progs)))
		}
		r.nsPerAccess, r.collectUS = meter.Median(ns), meter.Median(collect)
		return r, nil
	}
	runs := map[string]replayed{}
	for _, system := range []string{"base", "imp", "imp+partial", "ghb", "perfpref", "ooo"} {
		r, err := replay(system)
		if err != nil {
			return err
		}
		runs[system] = r
		name := system
		if name == "imp+partial" {
			name = "imp-partial" // metric names hold no '+'
		}
		p.vals["sim.replay_ns_per_access."+name] = r.nsPerAccess
	}
	p.vals["sim.collect_us"] = runs["base"].collectUS

	sum := func(system string, f func(*sim.Metrics) uint64) float64 {
		var n uint64
		for _, m := range runs[system].metrics {
			n += f(m)
		}
		return float64(n)
	}
	p.vals["coherence.invalidations"] = sum("base", func(m *sim.Metrics) uint64 { return m.Invalidations })
	p.vals["coherence.broadcasts"] = sum("base", func(m *sim.Metrics) uint64 { return m.Broadcasts })
	p.vals["noc.flit_hops"] = sum("base", func(m *sim.Metrics) uint64 { return m.NoCFlitHops })
	p.vals["prefetch.stream_requests"] = sum("base", func(m *sim.Metrics) uint64 { return m.PrefetchesIssued })
	p.vals["prefetch.ghb_requests"] = sum("ghb", func(m *sim.Metrics) uint64 { return m.PrefetchesIssued })
	p.vals["core.requests"] = sum("imp", func(m *sim.Metrics) uint64 { return m.IMPIndirect })
	p.vals["core.patterns"] = sum("imp", func(m *sim.Metrics) uint64 { return m.IMPPatterns })
	// Useful outcomes over attempts, on the plain A[B[i]] kernel.
	p.vals["core.coverage"] = runs["imp"].metrics[driver].Coverage()
	p.vals["core.accuracy"] = runs["imp"].metrics[driver].Accuracy()

	sys, err := sim.New(src, base)
	if err != nil {
		return err
	}
	_, mallocs := allocDelta(func() { err = sys.RunUntil(math.MaxInt) })
	if err != nil {
		return err
	}
	p.vals["sim.replay_allocs"] = float64(mallocs)
	p.vals["sim.snapshot_ms"] = p.ms(func() { p.blob, err = sys.Snapshot() })
	p.vals["sim.snapshot_kb"] = float64(len(p.blob)) / 1e3
	if err != nil {
		return err
	}
	p.vals["sim.restore_ms"] = p.ms(func() { _, err = sim.Restore(src, base, p.blob) })
	return err
}

// stream flattens the driving trace into the access stream, cores taking
// turns as they would in a replay, and runs it through per-core L1s once to
// learn which accesses miss.
func (p *probe) stream() error {
	prog := p.progs[driver]
	readers := make([]*mem.CachedReader, p.cores)
	l1 := make([]*cache.Cache, p.cores)
	for c := range l1 {
		readers[c] = mem.NewCachedReader(prog.Space)
		l1[c] = cache.New(l1Config)
	}
	var hits, evictions float64
	for i, more := 0, true; more; i++ {
		more = false
		for c, t := range prog.Traces {
			if i >= len(t.Records) {
				continue
			}
			more = true
			rec := t.Records[i]
			if rec.IsBarrier() || rec.IsGapOnly() || rec.IsSWPrefetch() {
				continue
			}
			a := access{rec: rec, core: c}
			if !rec.IsStore() {
				a.value = readers[c].ReadWord(rec.Addr)
			}
			line, mask := rec.Addr.LineID(), l1[c].MaskFor(rec.Addr, int(rec.Size))
			if res, _ := l1[c].Lookup(line, mask); res == cache.Hit {
				hits++
			} else {
				a.miss = true
				if ev := l1[c].Insert(line, l1[c].FullMask(), cache.Shared, 0, false); ev.State != cache.Invalid {
					evictions++
				}
			}
			p.accs = append(p.accs, a)
		}
	}
	if len(p.accs) == 0 {
		return fmt.Errorf("the driving trace has no accesses")
	}
	p.vals["cache.hit_ratio"] = hits / float64(len(p.accs))
	p.vals["cache.evictions"] = evictions
	return nil
}

// l1Config is Table 1's L1: 32 KB, 4-way, unsectored.
var l1Config = cache.Config{SizeBytes: 32 * 1024, Ways: 4, SectorBytes: 64}

func (p *probe) cache() error {
	l1 := make([]*cache.Cache, p.cores)
	for c := range l1 {
		l1[c] = cache.New(l1Config)
	}
	full := l1[0].FullMask()
	p.vals["cache.insert_ns"] = p.perCall(func(a *access) {
		l1[a.core].Insert(a.rec.Addr.LineID(), full, cache.Shared, 0, false)
	})
	p.vals["cache.lookup_ns"] = p.perCall(func(a *access) {
		l1[a.core].Lookup(a.rec.Addr.LineID(), full)
	})
	return nil
}

func (p *probe) coherence() error {
	dir := coherence.New(coherence.DefaultK, p.cores)
	p.vals["coherence.read_ns"] = p.perCall(func(a *access) { dir.Read(a.rec.Addr.LineID(), a.core) })
	p.vals["coherence.write_ns"] = p.perCall(func(a *access) { dir.Write(a.rec.Addr.LineID(), a.core) })
	p.vals["coherence.evict_ns"] = p.perCall(func(a *access) { dir.EvictL1(a.rec.Addr.LineID(), a.core) })
	return nil
}

// nocDRAM sends each access's line from its core to its home tile, and asks
// both DRAM models for it, on a clock that advances a little per call.
func (p *probe) nocDRAM() error {
	mesh := noc.New(noc.DefaultConfig(p.cores))
	var now int64
	p.vals["noc.send_ns"] = p.perCall(func(a *access) {
		now++
		mesh.Send(now, a.core, int(a.rec.Addr.LineID()%uint64(p.cores)), mem.LineSize)
	})
	mcs := dram.MCCountForCores(p.cores)
	ddr3, simple := dram.NewDDR3(dram.DefaultDDR3Config(mcs)), dram.NewSimple(dram.DefaultSimpleConfig(mcs))
	for name, model := range map[string]dram.Model{"dram.ddr3_access_ns": ddr3, "dram.simple_access_ns": simple} {
		now = 0
		p.vals[name] = p.perCall(func(a *access) {
			now += 4
			line := a.rec.Addr.LineID()
			model.Access(now, dram.MCForLine(line, mcs), line, mem.LineSize)
		})
	}
	st := ddr3.Stats()
	p.vals["dram.row_hit_ratio"] = float64(st.RowHits) / float64(st.RowHits+st.RowMisses)
	return nil
}

func observed(a *access) prefetch.Access {
	return prefetch.Access{
		PC: a.rec.PC, Addr: a.rec.Addr, Size: int(a.rec.Size),
		Store: a.rec.IsStore(), Miss: a.miss, Value: a.value,
	}
}

// prefetchers shows each access to a per-core stream prefetcher, GHB and IMP.
func (p *probe) prefetchers() error {
	space := p.progs[driver].Space
	streams, ghbs, imps := make([]*prefetch.Stream, p.cores), make([]*prefetch.GHB, p.cores), make([]*core.IMP, p.cores)
	for c := 0; c < p.cores; c++ {
		streams[c] = prefetch.NewStream(prefetch.DefaultStreamConfig())
		ghbs[c] = prefetch.NewGHB(prefetch.DefaultGHBConfig())
		imps[c] = core.New(core.DefaultParams(), mem.NewCachedReader(space))
	}
	var reqs []prefetch.Request
	p.vals["prefetch.stream_observe_ns"] = p.perCall(func(a *access) { reqs = streams[a.core].Observe(observed(a), reqs[:0]) })
	p.vals["prefetch.ghb_observe_ns"] = p.perCall(func(a *access) { reqs = ghbs[a.core].Observe(observed(a), reqs[:0]) })
	p.vals["core.observe_ns"] = p.perCall(func(a *access) { reqs = imps[a.core].Observe(observed(a), reqs[:0]) })
	return nil
}

func (p *probe) cpuMemSnap() error {
	pipe := cpu.New(cpu.OutOfOrder, cpu.DefaultWindow)
	var now int64
	var instr uint64
	p.vals["cpu.gate_ns"] = p.perCall(func(a *access) {
		instr += uint64(a.rec.Gap) + 1
		now = pipe.Gate(now+int64(a.rec.Gap), instr, a.rec.DependsOnPrev())
		latency := int64(1)
		if a.miss {
			latency = 100
		}
		pipe.NoteLoad(instr, now+latency)
	})
	reader := mem.NewCachedReader(p.progs[driver].Space)
	var sink uint64
	p.vals["mem.readword_ns"] = p.perCall(func(a *access) { sink += reader.ReadWord(a.rec.Addr) })

	words := max(p.calls, len(p.accs))
	var w *snap.Writer
	writeMS := p.ms(func() {
		w = snap.NewWriter(0)
		for i := 0; i < words; i++ {
			w.U64(uint64(i) * 0x9e3779b97f4a7c15)
		}
	})
	data := w.Data()
	var err error
	readMS := p.ms(func() {
		r := snap.NewReader(data)
		for i := 0; i < words; i++ {
			sink += r.U64()
		}
		err = r.Err()
	})
	p.vals["snap.write_mb_per_s"] = float64(len(data)) / 1e6 / (writeMS / 1e3)
	p.vals["snap.read_mb_per_s"] = float64(len(data)) / 1e6 / (readMS / 1e3)
	return err
}

// ckptcache stores the finished replay's snapshot under a few keys and
// reads it back from memory, then from disk after the memory is dropped.
func (p *probe) ckptcache() error {
	dir := filepath.Join(p.tmp, "checkpoints")
	const n = 8
	key := func(i int) string { return fmt.Sprintf("probe%019d", i) }
	ckptcache.Flush()
	defer ckptcache.Flush()
	get := func() float64 {
		t0 := time.Now()
		for i := 0; i < n; i++ {
			if _, ok := ckptcache.Get(key(i), dir); !ok {
				return math.NaN()
			}
		}
		return float64(time.Since(t0).Nanoseconds()) / n
	}
	t0 := time.Now()
	for i := 0; i < n; i++ {
		ckptcache.Put(key(i), dir, p.blob)
	}
	p.vals["ckptcache.put_ms"] = float64(time.Since(t0).Nanoseconds()) / n / 1e6
	p.vals["ckptcache.get_mem_us"] = get() / 1e3
	ckptcache.Flush()
	p.vals["ckptcache.get_disk_ms"] = get() / 1e6
	if math.IsNaN(p.vals["ckptcache.get_mem_us"]) || math.IsNaN(p.vals["ckptcache.get_disk_ms"]) {
		return fmt.Errorf("the checkpoint cache lost a checkpoint it was given")
	}
	return nil
}

// harness times the sweep pool on points that do nothing, and the same
// handful of replays on one worker against two.
func (p *probe) harness() error {
	ctx := context.Background()
	idle := make([]harness.Point[int], 1<<14)
	for i := range idle {
		idle[i] = harness.Point[int]{Run: func(context.Context) (int, error) { return 0, nil }}
	}
	var err error
	idleMS := p.ms(func() { _, err = harness.Sweep(ctx, idle, harness.Options{Workers: 2}, nil) })
	if err != nil {
		return err
	}
	p.vals["harness.overhead_us_per_point"] = idleMS * 1e3 / float64(len(idle))

	var replays []harness.Point[int64]
	for _, system := range meter.ReplaySystems {
		for _, prog := range p.progs[:2] {
			replays = append(replays, harness.Point[int64]{Run: func(context.Context) (int64, error) {
				m, err := sim.Run(prog, simConfig(p.cores, system))
				if err != nil {
					return 0, err
				}
				return m.Cycles, nil
			}})
		}
	}
	one := p.ms(func() { _, err = harness.Sweep(ctx, replays, harness.Options{Workers: 1}, nil) })
	two := p.ms(func() { _, err = harness.Sweep(ctx, replays, harness.Options{Workers: 2}, nil) })
	p.vals["harness.j2_speedup"] = one / two
	return err
}

// service times the result store behind a backend's public methods (put,
// get from memory, get from disk in a backend started on the same results
// dir), a submit answered from the store, and the job key under them.
func (p *probe) service() error {
	dir := filepath.Join(p.tmp, "results")
	const n = 64
	specs, keys := make([]api.JobSpec, n), make([]string, n)
	for i := range specs {
		specs[i] = api.JobSpec{Sweep: []imp.Config{{Workload: "spmv", Cores: p.cores, Scale: 0.15, Seed: int64(i + 1)}}}
		var err error
		if keys[i], err = jobkey.ResultKey(specs[i]); err != nil {
			return err
		}
	}
	const keyCalls = 1 << 12
	p.vals["jobkey.key_us"] = p.ms(func() {
		for i := 0; i < keyCalls; i++ {
			jobkey.ResultKey(specs[i%n])
		}
	}) * 1e3 / keyCalls

	result := bytes.Repeat([]byte("0123456789abcdef"), 128) // 2 KB, a two-config sweep result's size
	stop := func(s *service.Service) {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		s.Close(ctx)
	}
	first := service.New(service.Config{ResultsDir: dir})
	t0 := time.Now()
	for _, k := range keys {
		if err := first.StoreResult(k, result); err != nil {
			stop(first)
			return err
		}
	}
	p.vals["service.store_put_us"] = float64(time.Since(t0).Nanoseconds()) / 1e3 / n
	getAll := func(s *service.Service) (float64, error) {
		t0 := time.Now()
		for _, k := range keys {
			if _, ok := s.StoredResult(k); !ok {
				return 0, fmt.Errorf("the result store lost result %s", k)
			}
		}
		return float64(time.Since(t0).Nanoseconds()) / 1e3 / n, nil
	}
	memUS, err := getAll(first)
	stop(first)
	if err != nil {
		return err
	}
	second := service.New(service.Config{ResultsDir: dir})
	defer stop(second)
	diskUS, err := getAll(second)
	if err != nil {
		return err
	}
	p.vals["service.store_get_mem_us"], p.vals["service.store_get_disk_us"] = memUS, diskUS

	const submits = 1 << 11
	p.vals["service.submit_us"] = p.ms(func() {
		for i := 0; i < submits && err == nil; i++ {
			var st api.JobStatus
			if st, err = second.Submit(specs[i%n]); err == nil && !st.Cached {
				err = fmt.Errorf("a submit of stored job %s was not answered from the store", st.Key)
			}
		}
	}) * 1e3 / submits
	return err
}

// layeredReplay is the traced form of the replay-hot op list: the benchmark
// makes the calls imp.RunProgram makes, each under its span. It returns the
// spans and every op's simulated time, which must be the one imp.RunProgram
// gives for the same trace and system.
func (p *probe) layeredReplay() ([]meter.Span, []int64, error) {
	rec := meter.NewRecorder()
	var cycles []int64
	for k, prog := range p.progs {
		for s, system := range meter.ReplaySystems {
			slot := k*len(meter.ReplaySystems) + s
			op := rec.Start("op", 0, slot)
			id := rec.Start("sim.build", op, slot)
			sys, err := sim.New(prog.Source(), simConfig(p.cores, system))
			rec.End(id)
			if err != nil {
				return nil, nil, err
			}
			id = rec.Start("sim.replay", op, slot)
			err = sys.RunUntil(math.MaxInt)
			rec.End(id)
			if err != nil {
				return nil, nil, err
			}
			id = rec.Start("sim.collect", op, slot)
			m, err := sys.Finish()
			rec.End(id)
			rec.End(op)
			if err != nil {
				return nil, nil, err
			}
			cycles = append(cycles, m.Cycles)
		}
	}
	return rec.Spans(), cycles, nil
}
