package imp

// Benchmark harness: one benchmark per table/figure of the paper (DESIGN.md
// maps each to its experiment id). Each benchmark iteration regenerates the
// table at a reduced scale (16 cores, 10-20% inputs) so `go test -bench=.`
// completes quickly; run cmd/impbench for full-scale reproductions. Key
// series values are attached as custom benchmark metrics.

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"path/filepath"
	"testing"

	"github.com/impsim/imp/internal/ckptcache"
)

// benchOpt keeps benchmark iterations cheap but non-degenerate.
var benchOpt = ExpOptions{Cores: 16, Scale: 0.15}

// runExp runs one experiment per iteration and reports selected columns of
// the average row as metrics.
func runExp(b *testing.B, id string, metricCols map[string]int) {
	b.Helper()
	var tbl *Table
	var err error
	for i := 0; i < b.N; i++ {
		tbl, err = Experiments.Run(id, benchOpt)
		if err != nil {
			b.Fatal(err)
		}
	}
	if len(tbl.Rows) == 0 {
		b.Fatal("empty table")
	}
	avg := tbl.Rows[len(tbl.Rows)-1]
	for name, col := range metricCols {
		if col < len(avg.Values) {
			b.ReportMetric(avg.Values[col], name)
		}
	}
}

func BenchmarkFig1MissBreakdown(b *testing.B) {
	runExp(b, "fig1", map[string]int{"indirect_frac": 0, "stream_frac": 1})
}

func BenchmarkFig2RuntimeBreakdown(b *testing.B) {
	runExp(b, "fig2", map[string]int{"norm_runtime": 2, "perfpref": 3})
}

func BenchmarkFig9Performance(b *testing.B) {
	runExp(b, "fig9", map[string]int{"base": 1, "imp": 2, "swpref": 3})
}

func BenchmarkTable3Effectiveness(b *testing.B) {
	runExp(b, "table3", map[string]int{"stream_cov": 0, "imp_cov": 3, "imp_acc": 4})
}

func BenchmarkFig10InstructionOverhead(b *testing.B) {
	runExp(b, "fig10", map[string]int{"imp_instr": 1, "swpref_instr": 2})
}

func BenchmarkFig11PartialAccess(b *testing.B) {
	runExp(b, "fig11", map[string]int{"imp": 0, "partial_noc_dram": 2, "ideal": 3})
}

func BenchmarkFig12Traffic(b *testing.B) {
	runExp(b, "fig12", map[string]int{"noc_ratio": 0, "dram_ratio": 1})
}

func BenchmarkFig13OutOfOrder(b *testing.B) {
	runExp(b, "fig13", map[string]int{"imp_io": 2, "imp_ooo": 3})
}

func BenchmarkFig14PTSize(b *testing.B) {
	runExp(b, "fig14", map[string]int{"pt8": 0, "pt32": 2})
}

func BenchmarkFig15IPDSize(b *testing.B) {
	runExp(b, "fig15", map[string]int{"ipd2": 0, "ipd8": 2})
}

func BenchmarkFig16Distance(b *testing.B) {
	runExp(b, "fig16", map[string]int{"dist4": 0, "dist32": 3})
}

func BenchmarkGHBComparison(b *testing.B) {
	runExp(b, "ghb", map[string]int{"ghb_speedup": 1, "imp_speedup": 2})
}

// BenchmarkSweepPrefixSharing measures checkpointed sweep execution on the
// fig2+table3 pair — the grids overlap in every workload's Perfect and
// Baseline cells, so with checkpointing on, table3 reads those cells from
// the checkpoints fig2 published instead of re-simulating them (and every
// iteration after the first reads everything from the warm cache). "off" is
// the plain path on the identical workload; the ratio of the two is the
// speedup recorded in BENCH_*.json.
func BenchmarkSweepPrefixSharing(b *testing.B) {
	run := func(b *testing.B, opt ExpOptions) {
		b.Helper()
		for _, id := range []string{"fig2", "table3"} {
			if _, err := Experiments.Run(id, opt); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.Run("off", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			run(b, benchOpt)
		}
	})
	b.Run("on", func(b *testing.B) {
		ckptcache.Flush()
		defer ckptcache.Flush()
		opt := benchOpt
		opt.Checkpoints = CheckpointPolicy{Enabled: true, Dir: b.TempDir()}
		// Populate the cache untimed: the steady state under measurement is
		// a sweep whose prefixes are already checkpointed (by an earlier
		// run, another experiment, or — fleet-side — another job).
		run(b, opt)
		ResetCheckpointStats()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			run(b, opt)
		}
		s := GetCheckpointStats()
		b.ReportMetric(float64(s.Hits)/float64(b.N), "ckpt_hits/op")
		b.ReportMetric(float64(s.Misses)/float64(b.N), "ckpt_misses/op")
	})
}

// BenchmarkMemoHit is one warm cell of fig2 as a sweep executes it: derive
// the point's key, read the stored metrics from the memory tier, open them,
// build the Result. It is all that is left of a cell whose answer is known.
func BenchmarkMemoHit(b *testing.B) {
	ckptcache.Flush()
	defer ckptcache.Flush()
	pol := CheckpointPolicy{Enabled: true, Dir: b.TempDir()}
	cfg := Config{Workload: "pagerank", Cores: benchOpt.Cores, Scale: benchOpt.Scale, System: SystemBaseline}
	ctx := context.Background()
	if _, err := newSimPoint(sweepMeta{}, cfg, pol).run(ctx); err != nil { // publishes
		b.Fatal(err)
	}
	ResetCheckpointStats()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := newSimPoint(sweepMeta{}, cfg, pol).run(ctx); err != nil {
			b.Fatal(err)
		}
	}
	if s := GetCheckpointStats(); s.Hits != uint64(b.N) || s.Misses != 0 {
		b.Fatalf("%d iterations made %d hits and %d misses", b.N, s.Hits, s.Misses)
	}
}

// BenchmarkSimulatorThroughput measures raw replay speed (records/sec) of
// the timing simulator on the baseline configuration. The tick loop is
// expected to run allocation-free; allocs/op here is essentially the
// per-run system construction cost and is gated by CI.
func BenchmarkSimulatorThroughput(b *testing.B) {
	prog, err := BuildProgram("spmv", 16, 0.3, false, 0)
	if err != nil {
		b.Fatal(err)
	}
	accesses := prog.Accesses()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := RunProgram(prog, Config{Cores: 16, System: SystemBaseline}); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(accesses)*float64(b.N)/b.Elapsed().Seconds(), "accesses/s")
}

// BenchmarkIMPObserve measures the prefetcher model itself (per-access
// hardware-model cost, the dominant simulation overhead of IMP configs).
func BenchmarkIMPObserve(b *testing.B) {
	prog, err := BuildProgram("pagerank", 16, 0.2, false, 0)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := RunProgram(prog, Config{Cores: 16, System: SystemIMP}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTraceEncode measures binary trace encoding (cmd/imptrace encode,
// trace-cache writes).
func BenchmarkTraceEncode(b *testing.B) {
	prog, err := BuildProgram("spmv", 16, 0.3, false, 0)
	if err != nil {
		b.Fatal(err)
	}
	var bytesOut int64
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		n, err := prog.WriteTo(io.Discard)
		if err != nil {
			b.Fatal(err)
		}
		bytesOut = n
	}
	b.SetBytes(bytesOut)
}

// BenchmarkTraceDecode measures binary trace decoding (trace-cache reads),
// the startup cost every cached experiment pays instead of a rebuild.
func BenchmarkTraceDecode(b *testing.B) {
	prog, err := BuildProgram("spmv", 16, 0.3, false, 0)
	if err != nil {
		b.Fatal(err)
	}
	var buf bytes.Buffer
	if _, err := prog.WriteTo(&buf); err != nil {
		b.Fatal(err)
	}
	data := buf.Bytes()
	b.SetBytes(int64(len(data)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p, err := ReadProgram(bytes.NewReader(data))
		if err != nil {
			b.Fatal(err)
		}
		if p.Accesses() != prog.Accesses() {
			b.Fatal("decode mismatch")
		}
	}
}

// BenchmarkTraceStreamReplay measures the bounded-memory replay path: the
// simulator pulling records through a FileSource window instead of a
// materialized program.
func BenchmarkTraceStreamReplay(b *testing.B) {
	prog, err := BuildProgram("spmv", 16, 0.3, false, 0)
	if err != nil {
		b.Fatal(err)
	}
	path := filepath.Join(b.TempDir(), "spmv.imptrace")
	if err := prog.WriteFile(path); err != nil {
		b.Fatal(err)
	}
	accesses := prog.Accesses()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := RunTraceFile(path, Config{System: SystemBaseline}); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(accesses)*float64(b.N)/b.Elapsed().Seconds(), "accesses/s")
}

// BenchmarkWorkloadGeneration measures trace construction speed.
func BenchmarkWorkloadGeneration(b *testing.B) {
	for _, w := range []string{"pagerank", "spmv", "graph500"} {
		b.Run(w, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := BuildProgram(w, 16, 0.15, false, 0); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkScalability runs the fig9 headline comparison at each paper core
// count to show the simulator handles 16/64/256-core meshes.
func BenchmarkScalability(b *testing.B) {
	for _, cores := range []int{16, 64, 256} {
		b.Run(fmt.Sprintf("cores%d", cores), func(b *testing.B) {
			prog, err := BuildProgram("spmv", cores, 0.15, false, 0)
			if err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			var base, impc int64
			for i := 0; i < b.N; i++ {
				rb, err := RunProgram(prog, Config{Cores: cores, System: SystemBaseline})
				if err != nil {
					b.Fatal(err)
				}
				ri, err := RunProgram(prog, Config{Cores: cores, System: SystemIMP})
				if err != nil {
					b.Fatal(err)
				}
				base, impc = rb.Cycles, ri.Cycles
			}
			b.ReportMetric(float64(base)/float64(impc), "imp_speedup")
		})
	}
}
