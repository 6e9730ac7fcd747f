package sim

import (
	"bytes"
	"reflect"
	"testing"

	"github.com/impsim/imp/internal/cpu"
	"github.com/impsim/imp/internal/trace"
	"github.com/impsim/imp/internal/workload"
)

// maxRecords returns the longest per-core record count, the natural scale
// for RunUntil cut points.
func maxRecords(p *trace.Program) int {
	n := 0
	for _, t := range p.Traces {
		if len(t.Records) > n {
			n = len(t.Records)
		}
	}
	return n
}

// checkRoundTrip runs p cold, then again with a snapshot/restore cut at
// `cut` records, and requires byte-identical results three ways: the resumed
// original system, the restored copy, and a re-snapshot of the restored copy.
func checkRoundTrip(t *testing.T, p *trace.Program, cfg Config, cut int) {
	t.Helper()
	cold, err := Run(p, cfg)
	if err != nil {
		t.Fatalf("cold run: %v", err)
	}

	sys, err := New(p.Source(), cfg)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	if err := sys.RunUntil(cut); err != nil {
		t.Fatalf("RunUntil(%d): %v", cut, err)
	}
	data, err := sys.Snapshot()
	if err != nil {
		t.Fatalf("Snapshot: %v", err)
	}

	rest, err := Restore(p.Source(), cfg, data)
	if err != nil {
		t.Fatalf("Restore: %v", err)
	}
	redata, err := rest.Snapshot()
	if err != nil {
		t.Fatalf("re-Snapshot: %v", err)
	}
	if !bytes.Equal(data, redata) {
		t.Errorf("cut=%d: restore(snapshot(S)) re-snapshots to different bytes (%d vs %d)",
			cut, len(data), len(redata))
	}

	warm, err := rest.Finish()
	if err != nil {
		t.Fatalf("restored Finish: %v", err)
	}
	if !reflect.DeepEqual(cold, warm) {
		t.Errorf("cut=%d: restored run diverged from cold run:\n  cold: %v\n  warm: %v", cut, cold, warm)
	}

	resumed, err := sys.Finish()
	if err != nil {
		t.Fatalf("resumed Finish: %v", err)
	}
	if !reflect.DeepEqual(cold, resumed) {
		t.Errorf("cut=%d: resumed run diverged from cold run:\n  cold: %v\n  resumed: %v", cut, cold, resumed)
	}
}

// TestSnapshotRoundTripWorkloadsAndPrefetchers is the tentpole property
// test: for every registered workload kind and every prefetcher, a run cut
// by snapshot/restore must equal the uncheckpointed run exactly.
func TestSnapshotRoundTripWorkloadsAndPrefetchers(t *testing.T) {
	kinds := []PrefetcherKind{PrefetchNone, PrefetchStream, PrefetchGHB, PrefetchIMP}
	for _, name := range workload.Names() {
		p, err := workload.Build(name, workload.Options{Cores: 4, Scale: 0.02})
		if err != nil {
			t.Fatalf("build %s: %v", name, err)
		}
		cut := maxRecords(p) / 2
		for _, pk := range kinds {
			t.Run(name+"/"+pk.String(), func(t *testing.T) {
				cfg := DefaultConfig(4)
				cfg.Prefetcher = pk
				checkRoundTrip(t, p, cfg, cut)
			})
		}
	}
}

// TestSnapshotRoundTripConfigVariants covers the orthogonal config axes:
// DRAM model, core model, partial accessing, idealized modes, spin barriers.
func TestSnapshotRoundTripConfigVariants(t *testing.T) {
	base := func() Config { return DefaultConfig(4) }
	variants := map[string]func(*Config){
		"ddr3":        func(c *Config) { c.DRAM = DRAMDDR3 },
		"ooo":         func(c *Config) { c.CoreModel = cpu.OutOfOrder },
		"partial-noc": func(c *Config) { c.Prefetcher = PrefetchIMP; c.Partial = PartialNoC },
		"partial-all": func(c *Config) { c.Prefetcher = PrefetchIMP; c.Partial = PartialNoCDRAM },
		"ideal":       func(c *Config) { c.Ideal = true },
		"perfect":     func(c *Config) { c.PerfectPrefetch = true },
	}
	for name, mod := range variants {
		t.Run(name, func(t *testing.T) {
			p := indirectProgram(4, 300, 2)
			cfg := base()
			mod(&cfg)
			checkRoundTrip(t, p, cfg, maxRecords(p)/3)
		})
	}
	t.Run("spin-barriers", func(t *testing.T) {
		p := indirectProgram(4, 300, 2)
		p.SpinBarriers = true
		checkRoundTrip(t, p, DefaultConfig(4), maxRecords(p)/3)
	})
}

// TestSnapshotCutPoints sweeps the cut position, including degenerate ones:
// before the first record, past the end of the trace, and around barriers.
func TestSnapshotCutPoints(t *testing.T) {
	p := indirectProgram(4, 200, 3)
	cfg := DefaultConfig(4)
	n := maxRecords(p)
	for _, cut := range []int{0, 1, n / 4, n / 2, n - 1, n, n + 1000} {
		checkRoundTrip(t, p, cfg, cut)
	}
}

// TestSnapshotChecksConfig pins the mismatch errors: a snapshot only
// restores into the system shape it was taken from.
func TestSnapshotChecksConfig(t *testing.T) {
	p := indirectProgram(4, 100, 1)
	cfg := DefaultConfig(4)
	sys, err := New(p.Source(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := sys.RunUntil(50); err != nil {
		t.Fatal(err)
	}
	data, err := sys.Snapshot()
	if err != nil {
		t.Fatal(err)
	}

	other := cfg
	other.Prefetcher = PrefetchIMP
	if _, err := Restore(p.Source(), other, data); err == nil {
		t.Error("restore accepted a snapshot taken under a different prefetcher")
	}
	p16 := indirectProgram(16, 100, 1)
	if _, err := Restore(p16.Source(), DefaultConfig(16), data); err == nil {
		t.Error("restore accepted a snapshot taken under a different core count")
	}
}

// TestSnapshotRejectsCorruption pins the envelope checks: magic, version,
// CRC and truncation each produce a distinct, descriptive failure.
func TestSnapshotRejectsCorruption(t *testing.T) {
	p := indirectProgram(4, 100, 1)
	cfg := DefaultConfig(4)
	sys, err := New(p.Source(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := sys.RunUntil(50); err != nil {
		t.Fatal(err)
	}
	data, err := sys.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	if v, k, ok := IsSnapshot(data); !ok || v != SnapshotFormatVersion || k != BlobMachine {
		t.Fatalf("IsSnapshot = (%d, %v, %v), want (%d, %v, true)", v, k, ok, SnapshotFormatVersion, BlobMachine)
	}

	corrupt := func(mutate func([]byte)) []byte {
		c := append([]byte(nil), data...)
		mutate(c)
		return c
	}
	cases := map[string][]byte{
		"magic":     corrupt(func(b []byte) { b[0] = 'X' }),
		"version":   corrupt(func(b []byte) { b[4] = 0xFF; b[5] = 0xFF }),
		"payload":   corrupt(func(b []byte) { b[len(b)/2] ^= 0x40 }),
		"crc":       corrupt(func(b []byte) { b[len(b)-1] ^= 0x01 }),
		"truncated": data[:len(data)/2],
		"empty":     nil,
	}
	for name, bad := range cases {
		if _, err := Restore(p.Source(), cfg, bad); err == nil {
			t.Errorf("%s corruption: restore accepted the snapshot", name)
		}
	}
	if _, _, ok := IsSnapshot([]byte("IMPT....")); ok {
		t.Error("IsSnapshot accepted trace magic")
	}
}

// TestSystemLifecycle pins the one-way Finish transition.
func TestSystemLifecycle(t *testing.T) {
	p := indirectProgram(4, 100, 1)
	sys, err := New(p.Source(), DefaultConfig(4))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sys.Finish(); err != nil {
		t.Fatal(err)
	}
	if _, err := sys.Snapshot(); err == nil {
		t.Error("Snapshot succeeded after Finish")
	}
	if err := sys.RunUntil(10); err == nil {
		t.Error("RunUntil succeeded after Finish")
	}
	if _, err := sys.Finish(); err == nil {
		t.Error("second Finish succeeded")
	}
}
