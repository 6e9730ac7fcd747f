package imp

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"testing"

	"github.com/impsim/imp/internal/castore"
	"github.com/impsim/imp/internal/ckptcache"
	"github.com/impsim/imp/internal/progcache"
	"github.com/impsim/imp/internal/sim"
	"github.com/impsim/imp/internal/trace"
	"github.com/impsim/imp/internal/workload"
)

// goldenOpts are the options testdata/golden_{fig2,table3}.json were
// recorded under (TestExperimentGolden), with checkpoints kept in dir.
func goldenOpts(dir string) ExpOptions {
	return ExpOptions{
		Cores: 4, Scale: 0.05, Workloads: testWorkloads,
		RunOptions: RunOptions{Checkpoints: CheckpointPolicy{Enabled: true, Dir: dir}},
	}
}

// goldenBytes is a committed golden table as Table.JSON prints it.
func goldenBytes(t *testing.T, id string) []byte {
	t.Helper()
	data, err := os.ReadFile(filepath.Join("testdata", "golden_"+id+".json"))
	if err != nil {
		t.Fatal(err)
	}
	return bytes.TrimSuffix(data, []byte("\n"))
}

func tableBytes(t *testing.T, id string, opt ExpOptions) []byte {
	t.Helper()
	tbl, err := Experiments.Run(id, opt)
	if err != nil {
		t.Fatal(err)
	}
	data, err := tbl.JSON()
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// TestModelVersionPinsGoldens: a stored answer is keyed by sim.ModelVersion,
// so a change that moves the simulator's numbers has to move the version with
// them, or disk caches filled before it keep serving the old cycles. The
// goldens are the numbers' witness: their checksums are pinned beside the
// version they were recorded under.
func TestModelVersionPinsGoldens(t *testing.T) {
	const pinnedVersion = 1
	pinned := map[string]uint32{"fig2": 0xc0cf90b6, "table3": 0x779d0a47}
	for id, want := range pinned {
		data, err := os.ReadFile(filepath.Join("testdata", "golden_"+id+".json"))
		if err != nil {
			t.Fatal(err)
		}
		if got := crc32.ChecksumIEEE(data); got != want {
			t.Errorf("golden_%s.json has CRC %#08x, pinned %#08x: goldens changed: bump sim.ModelVersion, then pin the new CRCs and version here",
				id, got, want)
		}
	}
	if sim.ModelVersion != pinnedVersion {
		t.Errorf("sim.ModelVersion is %d, the goldens are pinned under %d: pin the new version and CRCs here", sim.ModelVersion, pinnedVersion)
	}
}

// TestCheckpointKeyDomain: checkpoints live in a key domain of their own. A
// machine snapshot still on disk under the address the same cell had in the
// retired "impckpt" domain is never looked up, let alone evicted; and within
// the domain the key tells systems apart but not knobs a system never reads.
func TestCheckpointKeyDomain(t *testing.T) {
	ckptcache.Flush()
	defer ckptcache.Flush()
	dir := t.TempDir()
	cfg := Config{Workload: "spmv", Cores: 4, Scale: 0.05, System: SystemBaseline}
	scfg, err := cfg.simConfig()
	if err != nil {
		t.Fatal(err)
	}
	spec, err := json.Marshal(ckptSpec{Workload: cfg.Workload, Options: cfg.workloadOptions().WithDefaults(), Sim: scfg})
	if err != nil {
		t.Fatal(err)
	}
	h := sha256.New()
	fmt.Fprintf(h, "impckpt|fmt%d|gen%d|snap%d|", trace.FormatVersion, workload.GenVersion, sim.SnapshotFormatVersion)
	h.Write(spec)
	retired := filepath.Join(dir, hex.EncodeToString(h.Sum(nil)[:12])+castore.Ext)
	if err := os.WriteFile(retired, []byte("IMPS a machine snapshot of the old model"), 0o644); err != nil {
		t.Fatal(err)
	}

	key, err := checkpointKey(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for pass := 0; pass < 2; pass++ {
		if _, err := runCfg(cfg, key, dir); err != nil {
			t.Fatal(err)
		}
	}
	if s := ckptcache.GetStats(); s.Corrupt != 0 || s.MemHits != 1 {
		t.Errorf("cache stats %+v: want the retired blob left alone and the second run a hit", s)
	}
	if _, err := os.Stat(retired); err != nil {
		t.Errorf("the blob under the retired key was touched: %v", err)
	}

	other := cfg
	other.System = SystemIMP
	if k, _ := checkpointKey(other); k == key {
		t.Error("two systems share a checkpoint key")
	}
	inert := cfg
	inert.PTEntries = 8
	if k, _ := checkpointKey(inert); k != key {
		t.Error("an IMP knob the baseline never reads changed its checkpoint key")
	}
}

// TestCheckpointHitEqualsLiveRun: for every cell fig2 and table3 simulate at
// the golden options, the answer read back from the checkpoint cache — the
// Result and every field of its Metrics — is the live run's.
func TestCheckpointHitEqualsLiveRun(t *testing.T) {
	ckptcache.Flush()
	defer ckptcache.Flush()
	ResetCheckpointStats()
	dir := t.TempDir()
	// fig2 is Ideal/Base/PerfPref per workload, table3 PerfPref/Base/IMP.
	systems := []System{SystemIdeal, SystemBaseline, SystemPerfect, SystemIMP}
	var cycles uint64
	for _, w := range testWorkloads {
		for _, sys := range systems {
			cfg := Config{Workload: w, Cores: 4, Scale: 0.05, System: sys, Seed: ExpSeed(0, w)}
			live, err := Run(cfg)
			if err != nil {
				t.Fatal(err)
			}
			key, err := checkpointKey(cfg)
			if err != nil {
				t.Fatal(err)
			}
			for pass, what := range []string{"published", "read from memory", "read from disk"} {
				if pass == 2 {
					ckptcache.Flush()
				}
				got, err := runCfg(cfg, key, dir)
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(got, live) {
					t.Errorf("%s/%v %s: result differs from the live run's:\n  live: %+v %+v\n  got:  %+v %+v",
						w, sys, what, live, live.Metrics, got, got.Metrics)
				}
				if got.Metrics == live.Metrics {
					t.Fatalf("%s/%v %s: result shares its Metrics with another result", w, sys, what)
				}
			}
			cycles += 2 * uint64(live.Cycles)
		}
	}
	cells := uint64(len(testWorkloads) * len(systems))
	if s := GetCheckpointStats(); s.Misses != cells || s.Hits != 2*cells || s.PrefixCyclesSaved != cycles {
		t.Errorf("stats %+v: want %d misses, %d hits, %d cycles saved", s, cells, 2*cells, cycles)
	}
	if s := ckptcache.GetStats(); s.Corrupt != 0 {
		t.Errorf("%d checkpoints evicted as corrupt in a clean run", s.Corrupt)
	}
}

// TestDamagedCheckpointColdStartsToGolden: whatever is wrong with a stored
// blob — cut short, a flipped bit, another format version, another core
// count, a machine snapshot where metrics belong — it is evicted
// (Stats.Corrupt+1), that one cell is simulated, and the table's bytes are
// the golden's.
func TestDamagedCheckpointColdStartsToGolden(t *testing.T) {
	ckptcache.Flush()
	defer ckptcache.Flush()
	dir := t.TempDir()
	opt := goldenOpts(dir)
	golden := goldenBytes(t, "fig2")
	if got := tableBytes(t, "fig2", opt); !bytes.Equal(got, golden) {
		t.Fatal("fig2 with checkpointing on differs from golden bytes")
	}
	files, err := filepath.Glob(filepath.Join(dir, "*"+castore.Ext))
	if err != nil || len(files) != 6 {
		t.Fatalf("%d checkpoint files published (err=%v), want fig2's 6 cells", len(files), err)
	}
	sort.Strings(files)
	for _, f := range files {
		if st, err := os.Stat(f); err != nil || st.Size() > 512 {
			t.Errorf("%s: %v bytes (err %v); a checkpoint is a cell's metrics, not its machine", f, st.Size(), err)
		}
	}

	otherCores := func(b []byte) []byte {
		m, err := sim.OpenMetrics(b, 4)
		if err != nil {
			t.Fatal(err)
		}
		m.PerCoreCycles = append(m.PerCoreCycles, m.Cycles)
		return sim.SealMetrics(m)
	}
	machine := func([]byte) []byte {
		prog, err := BuildProgram("spmv", 4, 0.05, false, 0)
		if err != nil {
			t.Fatal(err)
		}
		sys, err := sim.New(prog.p.Source(), sim.DefaultConfig(4))
		if err != nil {
			t.Fatal(err)
		}
		if err := sys.RunUntil(1 << 30); err != nil {
			t.Fatal(err)
		}
		blob, err := sys.Snapshot()
		if err != nil {
			t.Fatal(err)
		}
		return blob
	}
	// Each case damages the blob inside the file's envelope and seals it
	// again, so the damage reaches the simulator; a damaged envelope is
	// castore's to catch (TestCorruptCheckpointEvictsAndColdStarts).
	damage := []struct {
		name string
		do   func([]byte) []byte
	}{
		{"truncated", func(b []byte) []byte { return b[:len(b)*2/3] }},
		{"flipped byte", func(b []byte) []byte { b[len(b)/2] ^= 0x10; return b }},
		{"wrong version", func(b []byte) []byte {
			binary.LittleEndian.PutUint16(b[4:], sim.SnapshotFormatVersion+1)
			return b
		}},
		{"wrong core count", otherCores},
		{"machine snapshot", machine},
	}
	for i, d := range damage {
		victim := files[i%len(files)]
		data, err := os.ReadFile(victim)
		if err != nil {
			t.Fatal(err)
		}
		blob, err := castore.Open(bytes.Clone(data))
		if err == nil {
			err = castore.WriteFile(victim, d.do(blob))
		}
		if err != nil {
			t.Fatal(err)
		}
		ckptcache.Flush() // the next run must read the damaged file
		ResetCheckpointStats()
		if got := tableBytes(t, "fig2", opt); !bytes.Equal(got, golden) {
			t.Errorf("%s: table differs from golden bytes", d.name)
		}
		if s := ckptcache.GetStats(); s.Corrupt != 1 {
			t.Errorf("%s: Stats.Corrupt = %d, want 1", d.name, s.Corrupt)
		}
		if s := GetCheckpointStats(); s.Misses != 1 || s.Hits != 5 {
			t.Errorf("%s: %d cells simulated and %d read, want 1 and 5", d.name, s.Misses, s.Hits)
		}
		if healed, err := os.ReadFile(victim); err != nil || !bytes.Equal(healed, data) {
			t.Errorf("%s: the cold start did not republish the cell's checkpoint (err %v)", d.name, err)
		}
	}
}

// TestCheckpointHitReadsNoTrace: a cell answered from the checkpoint cache
// needs nothing else. With no trace in memory and no trace cache on disk, a
// warm table asks the trace cache for nothing.
func TestCheckpointHitReadsNoTrace(t *testing.T) {
	ckptcache.Flush()
	defer ckptcache.Flush()
	opt := goldenOpts(t.TempDir())
	for _, id := range []string{"fig2", "table3"} {
		tableBytes(t, id, opt)
	}
	t.Setenv("IMP_TRACE_CACHE", "off")
	progcache.Flush()
	defer progcache.Flush()
	for _, id := range []string{"fig2", "table3"} {
		if got := tableBytes(t, id, opt); !bytes.Equal(got, goldenBytes(t, id)) {
			t.Errorf("%s from checkpoints differs from golden bytes", id)
		}
	}
	if s := progcache.GetStats(); s != (progcache.Stats{}) {
		t.Errorf("a warm table went to the trace cache: %+v", s)
	}
}
