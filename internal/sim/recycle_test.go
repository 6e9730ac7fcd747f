package sim

import (
	"bytes"
	"reflect"
	"runtime"
	"runtime/debug"
	"testing"
	"unsafe"

	"github.com/impsim/imp/internal/cache"
	"github.com/impsim/imp/internal/mem"
	"github.com/impsim/imp/internal/recycle"
	"github.com/impsim/imp/internal/trace"
)

// allocBytes reports the heap bytes f allocates.
func allocBytes(f func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	f()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// frameBytes is the size of the cache frames a system of cfg is built from:
// the bulk (84% at 16 cores) of what a build from empty free lists makes.
func frameBytes(cfg Config) uint64 {
	frames := cfg.Cores * (cfg.L1SizeBytes + cfg.l2SliceBytes()) / mem.LineSize
	return uint64(frames) * (8 + uint64(unsafe.Sizeof(cache.Line{})))
}

// emptyFreeLists drops everything the layers' free lists hold. They are
// sync.Pools, which the collector empties over two cycles; callers that
// depend on it check through allocBytes that the next build made its frames.
func emptyFreeLists() {
	runtime.GC()
	runtime.GC()
}

// forked is what one cut-and-fork of a run yields.
type forked struct {
	snapshot  []byte   // mid-run
	resnap    []byte   // of the system restored from snapshot
	resumed   *Metrics // the original, finished
	restored  *Metrics // the restored copy, finished
	buildCost uint64   // bytes New allocated
}

// cutAndFork builds a system, runs it to cut, snapshots it, restores the
// snapshot into a second system, and finishes both.
func cutAndFork(t *testing.T, p *trace.Program, cfg Config, cut int) forked {
	t.Helper()
	var f forked
	var sys *System
	var err error
	f.buildCost = allocBytes(func() { sys, err = New(p.Source(), cfg) })
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	if err := sys.RunUntil(cut); err != nil {
		t.Fatalf("RunUntil(%d): %v", cut, err)
	}
	if f.snapshot, err = sys.Snapshot(); err != nil {
		t.Fatalf("Snapshot: %v", err)
	}
	rest, err := Restore(p.Source(), cfg, f.snapshot)
	if err != nil {
		t.Fatalf("Restore: %v", err)
	}
	if f.resnap, err = rest.Snapshot(); err != nil {
		t.Fatalf("re-Snapshot: %v", err)
	}
	if f.restored, err = rest.Finish(); err != nil {
		t.Fatalf("restored Finish: %v", err)
	}
	if f.resumed, err = sys.Finish(); err != nil {
		t.Fatalf("resumed Finish: %v", err)
	}
	return f
}

// TestRecycledBuildEqualsFreshBuild is the correctness contract of storage
// recycling. The free lists are first dirtied every way a process can dirty
// them; then systems are built from recycled storage across changes of core
// count, sector geometry and prefetcher, each cut, snapshotted, forked and
// finished. Every mid-run snapshot, every re-snapshot of its restored fork
// and every final Metrics must equal those of the same system built from
// emptied lists. Snapshots cover all architectural state (impvet
// snapfields), so byte-equal snapshots mean no stale state leaked in.
func TestRecycledBuildEqualsFreshBuild(t *testing.T) {
	progs := map[int]*trace.Program{4: indirectProgram(4, 600, 2), 16: indirectProgram(16, 600, 2)}
	mk := func(cores int, pk PrefetcherKind, partial PartialMode, perfect bool) Config {
		cfg := DefaultConfig(cores)
		cfg.Prefetcher, cfg.Partial, cfg.PerfectPrefetch = pk, partial, perfect
		return cfg
	}
	steps := []struct {
		name string
		cfg  Config
	}{
		{"16c base", mk(16, PrefetchStream, PartialOff, false)},
		{"4c base", mk(4, PrefetchStream, PartialOff, false)},
		{"16c imp", mk(16, PrefetchIMP, PartialOff, false)},
		{"16c imp sectored", mk(16, PrefetchIMP, PartialNoCDRAM, false)},
		{"16c ghb", mk(16, PrefetchGHB, PartialOff, false)},
		{"4c imp sectored", mk(4, PrefetchIMP, PartialNoC, false)},
		{"16c perfpref", mk(16, PrefetchNone, PartialOff, true)},
		{"16c ddr3", func() Config { c := mk(16, PrefetchStream, PartialOff, false); c.DRAM = DRAMDDR3; return c }()},
	}
	cut := func(cfg Config) int { return maxRecords(progs[cfg.Cores]) / 2 }

	// Dirty the lists: a finished run, an abandoned system, and a Restore
	// that fails after overwriting part of the storage it took.
	sectored := steps[3].cfg
	p16 := progs[16]
	if _, err := Run(p16, sectored); err != nil {
		t.Fatal(err)
	}
	abandoned, err := New(p16.Source(), steps[0].cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := abandoned.RunUntil(cut(steps[0].cfg)); err != nil {
		t.Fatal(err)
	}
	blob, err := abandoned.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	payload := blob[snapshotHeaderLen : len(blob)-4]
	if _, err := Restore(p16.Source(), steps[0].cfg, seal(BlobMachine, payload[:len(payload)*3/4])); err == nil {
		t.Fatal("Restore accepted a truncated payload")
	}

	var got []forked
	recycledAny := false
	for _, st := range steps {
		f := cutAndFork(t, progs[st.cfg.Cores], st.cfg, cut(st.cfg))
		recycledAny = recycledAny || f.buildCost < frameBytes(st.cfg)
		got = append(got, f)
	}
	if !recycledAny {
		t.Error("no build in the sequence took recycled frames: the test compared fresh builds with fresh builds")
	}

	for i, st := range steps {
		emptyFreeLists()
		want := cutAndFork(t, progs[st.cfg.Cores], st.cfg, cut(st.cfg))
		if want.buildCost < frameBytes(st.cfg) {
			t.Fatalf("%s: reference build allocated %d B, under its %d B of frames: the lists were not empty",
				st.name, want.buildCost, frameBytes(st.cfg))
		}
		g := got[i]
		if !bytes.Equal(g.snapshot, want.snapshot) {
			t.Errorf("%s: mid-run snapshot of the recycled build differs from the fresh build's", st.name)
		}
		if !bytes.Equal(g.resnap, want.snapshot) {
			t.Errorf("%s: restoring into recycled storage changed the state", st.name)
		}
		if !reflect.DeepEqual(g.resumed, want.resumed) {
			t.Errorf("%s: recycled build finished differently:\n  recycled: %v\n  fresh:    %v", st.name, g.resumed, want.resumed)
		}
		if !reflect.DeepEqual(g.restored, want.resumed) {
			t.Errorf("%s: fork restored into recycled storage finished differently:\n  fork:  %v\n  fresh: %v", st.name, g.restored, want.resumed)
		}
	}
}

// TestRecycledRunAllocatesNoStorage: once one run of a geometry has
// finished, the next makes none of the large arrays. In bytes it stays
// under 1/32 of the cold run, which is less than one cache's frames plus one
// doubling of the directory tables (the recycled tables start at the size
// the first run grew them to; coherence's own test holds a recycled
// directory to zero table allocations). In allocations it saves at least
// every array a cold build makes.
func TestRecycledRunAllocatesNoStorage(t *testing.T) {
	if recycle.Lossy {
		t.Skip("sync.Pool drops Puts at random under the race detector")
	}
	defer debug.SetGCPercent(debug.SetGCPercent(-1)) // a collection may empty the lists
	p := indirectProgram(16, 600, 2)
	cfg := DefaultConfig(16)
	cfg.Prefetcher = PrefetchIMP
	emptyFreeLists()
	var first, second *Metrics
	cold := allocBytes(func() { first = run(t, p, cfg) })
	warm := allocBytes(func() { second = run(t, p, cfg) })
	if !reflect.DeepEqual(first, second) {
		t.Errorf("second run diverged:\n  first:  %v\n  second: %v", first, second)
	}
	// A recycled run still makes tiles, pipelines and prefetcher tables:
	// ~110 KB here. One L2 slice's frames are 384 KB; doubling sixteen
	// 256-slot directory tables is 300 KB.
	if cold < frameBytes(cfg) || warm > cold/32 {
		t.Errorf("cold run allocated %d B (frames are %d B), recycled run %d B; want the recycled run under 1/32 of the cold one",
			cold, frameBytes(cfg), warm)
	}
	coldAllocs := testing.AllocsPerRun(1, func() { emptyFreeLists(); run(t, p, cfg) })
	warmAllocs := testing.AllocsPerRun(5, func() { run(t, p, cfg) })
	// Per cache two arrays and their list entry, per directory three arrays,
	// the mesh's and the DRAM model's one array and entry each.
	const arrays = 3*2*16 + 3*16 + 2 + 2
	if saved := coldAllocs - warmAllocs; saved < arrays {
		t.Errorf("recycled run made %v allocations, cold run %v: saved %v, want at least %d",
			warmAllocs, coldAllocs, saved, arrays)
	}
}

// sharingProgram is rounds of: an A[B[i]] scan whose indices repeat, so the
// IMP's detectors keep being armed, failing and re-armed; every core reading
// the same lines (more sharers than the directory tracks precisely on the
// first, a precise pair on the second); then one core storing to them. Every
// round touches the same lines, so a longer program grows no table.
func sharingProgram(cores, rounds int) *trace.Program {
	s := mem.NewSpace()
	b := s.AllocInt32("B", cores*64)
	x := uint64(424243)
	for i := range b.Int32s() {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		b.Int32s()[i] = int32(x % (1 << 12))
	}
	a := s.AllocFloat64("A", 1<<12)
	shared := s.AllocInt64("shared", 16)
	var traces []*trace.Trace
	for c := 0; c < cores; c++ {
		tb := trace.NewBuilder()
		for r := 0; r < rounds; r++ {
			for i := c * 64; i < (c+1)*64; i++ {
				tb.Load(1, b.Addr(i), 4, trace.KindStream)
				tb.LoadDep(2, a.Addr(int(b.Int32s()[i])), 8, trace.KindIndirect)
			}
			tb.Load(3, shared.Addr(0), 8, trace.KindOther)
			if c < 2 {
				tb.Load(4, shared.Addr(8), 8, trace.KindOther)
			}
			tb.Barrier()
			if c == r%cores {
				tb.Store(5, shared.Addr(0), 8, trace.KindOther)
				tb.Store(6, shared.Addr(8), 8, trace.KindOther)
			}
			tb.Barrier()
		}
		traces = append(traces, tb.Trace())
	}
	return &trace.Program{Space: s, Traces: traces}
}

// TestReplayAllocatesNothingPerAccess: a run makes its allocations building
// the machine, none replaying. A trace four times as long, invalidating,
// broadcasting and re-arming detectors four times as often, allocates no
// more.
func TestReplayAllocatesNothingPerAccess(t *testing.T) {
	if recycle.Lossy {
		t.Skip("sync.Pool drops Puts at random under the race detector")
	}
	defer debug.SetGCPercent(debug.SetGCPercent(-1)) // a collection may empty the lists
	cfg := DefaultConfig(16)
	cfg.Prefetcher = PrefetchIMP
	short, long := sharingProgram(16, 8), sharingProgram(16, 32)
	m := run(t, long, cfg) // fills the free lists with tables grown to this footprint
	if m.Invalidations == 0 || m.Broadcasts == 0 || m.IMPPatterns == 0 {
		t.Fatalf("the trace does not exercise the sites under test: %v invalidations, %v broadcasts, %v patterns",
			m.Invalidations, m.Broadcasts, m.IMPPatterns)
	}
	shortAllocs := testing.AllocsPerRun(3, func() { run(t, short, cfg) })
	longAllocs := testing.AllocsPerRun(3, func() { run(t, long, cfg) })
	if longAllocs > shortAllocs {
		t.Errorf("a 4x longer replay made %v allocations against %v: replay allocates per access", longAllocs, shortAllocs)
	}
}

// TestRecycledMetricsAreIndependent: the Metrics a run hands back shares
// nothing with the system, whose storage the next run takes over.
func TestRecycledMetricsAreIndependent(t *testing.T) {
	p := indirectProgram(4, 300, 2)
	cfg := DefaultConfig(4)
	first := run(t, p, cfg)
	kept := *first
	kept.PerCoreCycles = append([]int64(nil), first.PerCoreCycles...)
	other := cfg
	other.Prefetcher = PrefetchIMP
	run(t, p, other)
	if !reflect.DeepEqual(first, &kept) {
		t.Errorf("a later run changed an earlier run's Metrics:\n  before: %v\n  after:  %v", &kept, first)
	}
}

var sinkSystem *system

// benchSystem is the paper's 16-core IMP machine over a small program: the
// build benchmarks time the machine, not the trace.
func benchSystem() (trace.Source, Config) {
	cfg := DefaultConfig(16)
	cfg.Prefetcher = PrefetchIMP
	return indirectProgram(16, 600, 2).Source(), cfg
}

// BenchmarkBuildCold assembles a system whose storage must be made: nothing
// is released, so the free lists stay empty.
func BenchmarkBuildCold(b *testing.B) {
	src, cfg := benchSystem()
	emptyFreeLists()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sinkSystem = build(src, cfg, false)
	}
}

// BenchmarkBuildRecycled assembles a system from the storage the previous
// one released after a full run: take, clean, release.
func BenchmarkBuildRecycled(b *testing.B) {
	src, cfg := benchSystem()
	s := build(src, cfg, false)
	s.run()
	s.release()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sinkSystem = build(src, cfg, false)
		sinkSystem.release()
	}
}

// BenchmarkRestore restores an end-of-run machine snapshot into recycled
// storage, then surrenders it again.
func BenchmarkRestore(b *testing.B) {
	src, cfg := benchSystem()
	sys, err := New(src, cfg)
	if err != nil {
		b.Fatal(err)
	}
	if err := sys.RunUntil(1 << 30); err != nil {
		b.Fatal(err)
	}
	blob, err := sys.Snapshot()
	if err != nil {
		b.Fatal(err)
	}
	if _, err := sys.Finish(); err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(len(blob)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		y, err := Restore(src, cfg, blob)
		if err != nil {
			b.Fatal(err)
		}
		y.s.release()
	}
}
