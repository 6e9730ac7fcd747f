package sim

import (
	"reflect"
	"sync"
	"testing"

	"github.com/impsim/imp/internal/trace"
	"github.com/impsim/imp/internal/workload"
)

// fuzzWorkload/fuzzCores/fuzzScale pin the trace every FuzzRestore input is
// decoded against. gen_fuzz_corpus.go builds the committed seeds with the
// same values; change them together.
const (
	fuzzWorkload = "spmv"
	fuzzCores    = 4 // the mesh requires a square core count
	fuzzScale    = 0.02
)

var fuzzProgOnce = sync.OnceValues(func() (*trace.Program, error) {
	return workload.Build(fuzzWorkload, workload.Options{Cores: fuzzCores, Scale: fuzzScale})
})

// fuzzConfig shrinks the caches far below Table 1 so a snapshot is a few KB
// instead of ~100KB: the fuzz engine minimizes every coverage-expanding
// mutation, and minimization cost scales with seed size. The IMP prefetcher
// is enabled so its table restore paths are in the fuzzed surface.
// gen_fuzz_corpus.go mirrors this; change them together.
func fuzzConfig() Config {
	cfg := DefaultConfig(fuzzCores)
	cfg.L1SizeBytes = 4 << 10
	cfg.L1Ways = 2
	cfg.L2SliceBytes = 8 << 10
	cfg.L2Ways = 2
	cfg.Prefetcher = PrefetchIMP
	return cfg
}

// FuzzRestore feeds Restore arbitrary bytes, both raw and re-enveloped with
// a valid header and CRC (so inputs reach the component restore paths behind
// the integrity checks instead of dying at the CRC gate). The contract: corrupt input must produce an
// error, never a panic, an unbounded allocation or a runaway loop; input
// that happens to decode must yield a system whose accessors work.
func FuzzRestore(f *testing.F) {
	prog, err := fuzzProgOnce()
	if err != nil {
		f.Fatalf("building %s workload: %v", fuzzWorkload, err)
	}
	cfg := fuzzConfig()

	// Seed with a genuine mid-run snapshot and its bare payload; the
	// committed corpus (gen_fuzz_corpus.go) layers corruptions on top.
	sys, err := New(prog.Source(), cfg)
	if err != nil {
		f.Fatal(err)
	}
	if err := sys.RunUntil(maxRecords(prog) / 2); err != nil {
		f.Fatal(err)
	}
	valid, err := sys.Snapshot()
	if err != nil {
		f.Fatal(err)
	}
	f.Add(valid)
	f.Add(valid[snapshotHeaderLen : len(valid)-4])
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, data []byte) {
		tryRestore(t, prog, cfg, data)
		tryRestore(t, prog, cfg, seal(BlobMachine, data))
	})
}

// tryRestore runs one Restore attempt; errors are the expected outcome for
// corrupt input, panics are the bug class under test.
func tryRestore(t *testing.T, prog *trace.Program, cfg Config, data []byte) {
	t.Helper()
	sys, err := Restore(prog.Source(), cfg, data)
	if err != nil {
		return
	}
	// Decoded state may be semantically garbage (wrong counters); it must
	// still be structurally sound enough for the accessors.
	sys.Cycles()
	if _, err := sys.Snapshot(); err != nil {
		t.Fatalf("restored system cannot re-snapshot: %v", err)
	}
}

// FuzzOpenMetrics feeds OpenMetrics arbitrary bytes, raw and re-enveloped
// like FuzzRestore's. Damaged input must be an error, never a panic or an
// allocation sized by the input's say-so; input that opens is a fuzzCores-core
// run's metrics and survives another seal and open unchanged.
func FuzzOpenMetrics(f *testing.F) {
	valid := SealMetrics(filledMetrics(f, fuzzCores))
	f.Add(valid)
	f.Add(valid[snapshotHeaderLen : len(valid)-4])
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, data []byte) {
		for _, in := range [][]byte{data, seal(BlobMetrics, data)} {
			m, err := OpenMetrics(in, fuzzCores)
			if err != nil {
				continue
			}
			if len(m.PerCoreCycles) != fuzzCores {
				t.Fatalf("opened metrics of %d cores, asked for %d", len(m.PerCoreCycles), fuzzCores)
			}
			again, err := OpenMetrics(SealMetrics(m), fuzzCores)
			if err != nil || !reflect.DeepEqual(again, m) {
				t.Fatalf("opened metrics do not survive a reseal (err %v):\n  first:  %+v\n  second: %+v", err, m, again)
			}
		}
	})
}
