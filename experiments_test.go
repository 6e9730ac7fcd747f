package imp

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"math"
	"os"
	"path/filepath"
	"sync"
	"testing"

	"github.com/impsim/imp/internal/castore"
	"github.com/impsim/imp/internal/ckptcache"
)

var update = flag.Bool("update", false, "rewrite golden files under testdata/")

// testWorkloads keeps sweep tests fast while still exercising two distinct
// trace builds per experiment.
var testWorkloads = []string{"spmv", "pagerank"}

// tablesAtOnce runs experiment id once per core count, all at the same time
// and each with ro, and returns the tables' JSON and rendered text in
// cores order. Machines of different geometries building, finishing and
// recycling each other's storage side by side is what it is for.
func tablesAtOnce(t *testing.T, id string, cores []int, ro RunOptions) (jsons [][]byte, texts []string) {
	t.Helper()
	jsons = make([][]byte, len(cores))
	texts = make([]string, len(cores))
	errs := make([]error, len(cores))
	var wg sync.WaitGroup
	for i, n := range cores {
		wg.Add(1)
		go func(i, n int) {
			defer wg.Done()
			tbl, err := Experiments.Run(id, ExpOptions{Cores: n, Scale: 0.05, Workloads: testWorkloads, RunOptions: ro})
			if err == nil {
				texts[i] = tbl.String()
				jsons[i], err = tbl.JSON()
			}
			errs[i] = err
		}(i, n)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("%s at %d cores: %v", id, cores[i], err)
		}
	}
	return jsons, texts
}

// TestExperimentsDeterministicAcrossParallelism is the harness's core
// guarantee: every experiment produces byte-identical tables at parallelism
// 1 and 8 (same derived seeds, ordered collection, no shared mutable state).
// The parallel side runs a 4-core and a 16-core table at once, so cells of
// two geometries trade recycled storage while the serial reference never
// shares anything.
func TestExperimentsDeterministicAcrossParallelism(t *testing.T) {
	cores := []int{4, 16}
	for _, id := range Experiments.IDs() {
		id := id
		t.Run(id, func(t *testing.T) {
			t.Parallel()
			var sj [][]byte
			var st []string
			for _, n := range cores {
				j, s := tablesAtOnce(t, id, []int{n}, RunOptions{Seed: 7, Parallelism: 1})
				sj, st = append(sj, j...), append(st, s...)
			}
			pj, pt := tablesAtOnce(t, id, cores, RunOptions{Seed: 7, Parallelism: 8})
			for k, n := range cores {
				if !bytes.Equal(sj[k], pj[k]) {
					t.Errorf("%d cores: tables differ between parallelism 1 and 8:\n--- j1\n%s\n--- j8\n%s", n, sj[k], pj[k])
				}
				if st[k] != pt[k] {
					t.Errorf("%d cores: rendered text differs between parallelism 1 and 8", n)
				}
			}
		})
	}
}

// TestExperimentGolden pins small-scale paper numbers so refactors cannot
// silently change them. Regenerate with: go test -run Golden -update ./...
func TestExperimentGolden(t *testing.T) {
	const tol = 1e-9 // runs are deterministic; tolerance only absorbs FP noise
	for _, id := range []string{"fig2", "table3"} {
		id := id
		t.Run(id, func(t *testing.T) {
			tbl, err := Experiments.Run(id, ExpOptions{
				Cores: 4, Scale: 0.05, Workloads: testWorkloads,
			})
			if err != nil {
				t.Fatal(err)
			}
			path := filepath.Join("testdata", "golden_"+id+".json")
			if *update {
				data, err := tbl.JSON()
				if err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			data, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("%v (regenerate with -update)", err)
			}
			var want Table
			if err := json.Unmarshal(data, &want); err != nil {
				t.Fatal(err)
			}
			if tbl.ID != want.ID || len(tbl.Rows) != len(want.Rows) {
				t.Fatalf("shape changed: got %d rows of %q, want %d of %q",
					len(tbl.Rows), tbl.ID, len(want.Rows), want.ID)
			}
			for ri, row := range tbl.Rows {
				wrow := want.Rows[ri]
				if row.Label != wrow.Label || len(row.Values) != len(wrow.Values) {
					t.Fatalf("row %d changed: got %v, want %v", ri, row, wrow)
				}
				for ci, v := range row.Values {
					w := wrow.Values[ci]
					if diff := math.Abs(v - w); diff > tol*math.Max(1, math.Abs(w)) {
						t.Errorf("%s[%s][%s] = %v, golden %v (paper number drifted)",
							id, row.Label, tbl.Columns[ci], v, w)
					}
				}
			}
		})
	}
}

// TestExperimentGoldenCheckpointed is the checkpointing correctness gate:
// with prefix sharing on, fig2 and table3 must stay BYTE-identical to the
// goldens at parallelism 1 and 8. The cache directory is shared across all
// runs, so later runs fork from checkpoints earlier runs published — the
// exact cross-experiment reuse path (fig2 and table3 share every workload's
// Perfect and Baseline cells) must not perturb a single bit. Each table is
// then run at 4 and 16 cores at once at -j 8, checkpoints off, on (16-core
// cells publish) and on again (they fork): cold cells and forks of two
// geometries recycle each other's storage, and the 4-core bytes must still
// be the golden's and the 16-core bytes those of a plain -j 1 run.
func TestExperimentGoldenCheckpointed(t *testing.T) {
	ckptcache.Flush()
	defer ckptcache.Flush()
	ResetCheckpointStats()
	dir := t.TempDir()
	on := CheckpointPolicy{Enabled: true, Dir: dir}
	for _, id := range []string{"fig2", "table3"} {
		golden, err := os.ReadFile(filepath.Join("testdata", "golden_"+id+".json"))
		if err != nil {
			t.Fatalf("%v (regenerate with -update)", err)
		}
		golden = bytes.TrimSuffix(golden, []byte("\n"))
		for _, par := range []int{1, 8} {
			data, _ := tablesAtOnce(t, id, []int{4}, RunOptions{Parallelism: par, Checkpoints: on})
			if !bytes.Equal(data[0], golden) {
				t.Errorf("%s -j %d: checkpointed run differs from golden bytes", id, par)
			}
		}
		serial16, _ := tablesAtOnce(t, id, []int{16}, RunOptions{Parallelism: 1})
		for pass, pol := range []CheckpointPolicy{{}, on, on} {
			data, _ := tablesAtOnce(t, id, []int{4, 16}, RunOptions{Parallelism: 8, Checkpoints: pol})
			if !bytes.Equal(data[0], golden) {
				t.Errorf("%s pass %d: 4-core table run beside a 16-core one differs from golden bytes", id, pass)
			}
			if !bytes.Equal(data[1], serial16[0]) {
				t.Errorf("%s pass %d: 16-core table run beside a 4-core one differs from its -j 1 bytes", id, pass)
			}
		}
	}
	s := GetCheckpointStats()
	if s.Hits == 0 || s.Misses == 0 {
		t.Errorf("checkpointing not exercised: stats = %+v", s)
	}
	if s.PrefixCyclesSaved == 0 {
		t.Errorf("no cycles accounted as saved despite %d hits", s.Hits)
	}
}

// TestCorruptCheckpointEvictsAndColdStarts pins the poisoned-cache path: a
// checkpoint that fails to restore is evicted and the point re-simulated,
// so corruption can cost time but never correctness.
func TestCorruptCheckpointEvictsAndColdStarts(t *testing.T) {
	ckptcache.Flush()
	defer ckptcache.Flush()
	dir := t.TempDir()
	cfg := Config{Workload: "spmv", Cores: 4, Scale: 0.05, System: SystemBaseline}
	key, err := checkpointKey(cfg)
	if err != nil {
		t.Fatal(err)
	}
	pristine, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}

	// Populate the cache, then corrupt every checkpoint on disk and drop the
	// in-memory copies so the next run must read the poisoned bytes.
	if _, err := runCfg(cfg, key, dir); err != nil {
		t.Fatal(err)
	}
	files, err := filepath.Glob(filepath.Join(dir, "*"+castore.Ext))
	if err != nil || len(files) == 0 {
		t.Fatalf("no checkpoint files published (err=%v)", err)
	}
	for _, f := range files {
		if err := os.WriteFile(f, []byte("IMPSgarbage-not-a-valid-snapshot"), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	ckptcache.Flush()

	res, err := runCfg(cfg, key, dir)
	if err != nil {
		t.Fatalf("corrupt checkpoint failed the run instead of cold-starting: %v", err)
	}
	if res.Cycles != pristine.Cycles || res.Throughput != pristine.Throughput || res.AMAT != pristine.AMAT {
		t.Errorf("cold-start after corruption diverged: %+v vs %+v", res, pristine)
	}
	if s := ckptcache.GetStats(); s.Corrupt == 0 {
		t.Error("corrupt blob was not evicted (Stats.Corrupt == 0)")
	}
	if _, err := os.Stat(files[0]); err == nil {
		// The cold start re-published a fresh checkpoint under the same key;
		// it must now restore cleanly.
		ckptcache.Flush()
		if _, err := runCfg(cfg, key, dir); err != nil {
			t.Errorf("re-published checkpoint unusable: %v", err)
		}
	}
}

// TestExpSeedChangesResults checks the Seed plumbing actually reaches input
// generation (and that the default remains the paper's seed-0 inputs).
func TestExpSeedChangesResults(t *testing.T) {
	base := ExpOptions{Cores: 4, Scale: 0.05, Workloads: []string{"spmv"}}
	t0, err := Experiments.Run("fig1", base)
	if err != nil {
		t.Fatal(err)
	}
	seeded := base
	seeded.Seed = 12345
	t1, err := Experiments.Run("fig1", seeded)
	if err != nil {
		t.Fatal(err)
	}
	same := true
	for ri := range t0.Rows {
		for ci := range t0.Rows[ri].Values {
			if t0.Rows[ri].Values[ci] != t1.Rows[ri].Values[ci] {
				same = false
			}
		}
	}
	if same {
		t.Error("Seed had no effect on experiment inputs")
	}
}

// TestExpSeedReproducesExperimentPoint pins the cross-tool contract: a
// single cell of a seeded experiment is reproducible through Run (and thus
// impsim -exp-seed) by deriving Config.Seed with ExpSeed.
func TestExpSeedReproducesExperimentPoint(t *testing.T) {
	tbl, err := Experiments.Run("fig1", ExpOptions{
		Cores: 4, Scale: 0.05, Workloads: []string{"spmv"},
		RunOptions: RunOptions{Seed: 7},
	})
	if err != nil {
		t.Fatal(err)
	}
	res, err := Run(Config{
		Workload: "spmv", Cores: 4, Scale: 0.05, System: SystemBaseline,
		Seed: ExpSeed(7, "spmv"),
	})
	if err != nil {
		t.Fatal(err)
	}
	got := []float64{res.MissFracIndirect, res.MissFracStream, res.MissFracOther}
	for i, v := range tbl.Rows[0].Values {
		if got[i] != v {
			t.Fatalf("direct run with ExpSeed diverges from experiment cell: %v vs %v", got, tbl.Rows[0].Values)
		}
	}
}

func TestExpProgressEvents(t *testing.T) {
	var mu sync.Mutex
	var events []ProgressEvent
	_, err := Experiments.Run("fig12", ExpOptions{
		Cores: 4, Scale: 0.05, Workloads: testWorkloads,
		RunOptions: RunOptions{
			Parallelism: 4,
			OnProgress: func(e ProgressEvent) {
				mu.Lock() // callback is serialized, but the test asserts from outside
				events = append(events, e)
				mu.Unlock()
			},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	mu.Lock()
	defer mu.Unlock()
	// fig12: 2 workloads x 2 systems.
	if len(events) != 4 {
		t.Fatalf("got %d progress events, want 4", len(events))
	}
	for _, e := range events {
		if e.Experiment != "fig12" || e.Total != 4 || e.Cycles <= 0 || e.Err != nil {
			t.Errorf("bad event: %+v", e)
		}
	}
}

func TestSensitivityDefaultMustBeInValues(t *testing.T) {
	run := expSensitivity("figX", "bad", []int{8, 16}, 32,
		func(c *Config, v int) { c.PTEntries = v })
	_, err := run(ExpOptions{Cores: 4, Scale: 0.05, Workloads: []string{"spmv"}})
	if err == nil {
		t.Fatal("default outside the sweep values must error, not panic later")
	}
}

func TestExpContextCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := Experiments.Run("fig9", ExpOptions{
		Cores: 4, Scale: 0.05, Workloads: testWorkloads,
		RunOptions: RunOptions{Context: ctx},
	})
	if err == nil {
		t.Fatal("cancelled context did not abort the experiment")
	}
}

func TestRunSweepMatchesRun(t *testing.T) {
	cfgs := []Config{
		{Workload: "spmv", Cores: 4, Scale: 0.05, System: SystemIMP},
		{Workload: "pagerank", Cores: 4, Scale: 0.05, System: SystemBaseline},
		{Workload: "dense", Cores: 4, Scale: 0.05, System: SystemIdeal},
	}
	swept, err := RunSweep(context.Background(), cfgs, SweepOptions{
		RunOptions: RunOptions{Parallelism: 3},
	})
	if err != nil {
		t.Fatal(err)
	}
	for i, cfg := range cfgs {
		direct, err := Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if swept[i].Cycles != direct.Cycles || swept[i].Instructions != direct.Instructions {
			t.Errorf("cfg %d: sweep result %d cycles, direct %d", i, swept[i].Cycles, direct.Cycles)
		}
	}
}

func TestRunSweepError(t *testing.T) {
	cfgs := []Config{
		{Workload: "spmv", Cores: 4, Scale: 0.05},
		{Workload: "nope", Cores: 4, Scale: 0.05},
	}
	if _, err := RunSweep(context.Background(), cfgs, SweepOptions{}); err == nil {
		t.Fatal("sweep swallowed the unknown-workload error")
	}
}

func TestTableJSONRoundTrip(t *testing.T) {
	tbl := &Table{ID: "x", Title: "t", Columns: []string{"a", "b"}, Notes: "n"}
	tbl.AddRow("w1", 1.5, 2.5)
	data, err := tbl.JSON()
	if err != nil {
		t.Fatal(err)
	}
	var back Table
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatal(err)
	}
	if back.ID != tbl.ID || back.Rows[0].Values[1] != 2.5 || back.Notes != "n" {
		t.Errorf("round trip lost data: %+v", back)
	}
}
