package main

import (
	"bytes"
	"math"
	"path/filepath"
	"slices"
	"sort"
	"strings"
	"testing"

	"github.com/impsim/imp/bench/internal/meter"
)

func TestTailPercent(t *testing.T) {
	for _, c := range []struct{ n, want int }{{40, 75}, {100, 90}, {19, 50}, {1000, 90}, {1, 50}} {
		if got := meter.TailPercent(c.n); got != c.want {
			t.Errorf("TailPercent(%d) = %d, want %d", c.n, got, c.want)
		}
	}
	vals := make([]float64, 40)
	for i := range vals {
		vals[i] = float64(40 - i) // 1..40, unsorted
	}
	if v, pct := meter.Tail(vals); v != 30 || pct != 75 {
		t.Errorf("Tail of 1..40 = %v at p%d, want 30 at p75", v, pct)
	}
	if v, pct := meter.Tail(vals[:19]); v != meter.Median(vals[:19]) || pct != 50 {
		t.Errorf("Tail of 19 samples = %v at p%d, want the median", v, pct)
	}
}

// TestWindowOps wants forty ops in every workload's timed window at
// run_seconds, the fewest for which the tail is read at p75 or above.
func TestWindowOps(t *testing.T) {
	spec := loadSpec(t)
	for _, name := range workloadNames {
		w, err := newWorkload(name)
		if err != nil {
			t.Fatal(err)
		}
		c := runConfig{seconds: float64(spec.RunSeconds)}
		if n := c.passCount(w, 1) * w.passLen(); n < 40 {
			t.Errorf("%s: %d ops in a window of %d s, want at least 40", name, n, spec.RunSeconds)
		}
	}
}

// TestDeclaredWorkloads wants every workload BENCHMARK.json declares to be
// one the binary has.
func TestDeclaredWorkloads(t *testing.T) {
	for _, wl := range loadSpec(t).Workloads {
		if !slices.Contains(workloadNames, wl.Name) {
			t.Errorf("BENCHMARK.json declares workload %q, which is not in workloadNames", wl.Name)
		}
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles([1, 2, 4, 7, 11, 16, 22, 29, 37, 46], n=4)
	q1, q3 := meter.Quartiles([]float64{46, 1, 2, 4, 37, 7, 11, 16, 22, 29})
	if q1 != 3.5 || q3 != 31 {
		t.Errorf("Quartiles = %v, %v, want 3.5, 31", q1, q3)
	}
}

func TestSelfTimes(t *testing.T) {
	spans := []meter.Span{
		{ID: 1, Name: "op", Start: 0, End: 100},
		{ID: 2, Parent: 1, Name: "a", Start: 10, End: 40},
		{ID: 3, Parent: 1, Name: "b", Start: 30, End: 60},  // overlaps a: side by side workers
		{ID: 4, Parent: 1, Name: "c", Start: 90, End: 120}, // overhangs the parent
		{ID: 5, Parent: 2, Name: "a.inner", Start: 15, End: 20},
	}
	self := meter.SelfTimes(spans)
	for id, want := range map[int]int64{1: 100 - 50 - 10, 2: 25, 3: 30, 4: 30, 5: 5} {
		if self[id] != want {
			t.Errorf("self time of span %d = %d, want %d", id, self[id], want)
		}
	}
	if got := coverage(spans); got != 0.6 {
		t.Errorf("coverage = %v, want 0.6", got)
	}
}

func TestJudge(t *testing.T) {
	lower := meter.MetricSpec{Name: "op_p50_ms", Better: "lower", Bound: 0.10}
	higher := meter.MetricSpec{Name: "ops_per_s", Better: "higher", Bound: 0.10}
	setup := meter.MetricSpec{Name: "setup_s", Better: "lower", Bound: 0.25}
	tight := func(mid float64) []float64 { return []float64{mid * 0.99, mid, mid * 1.01, mid, mid} }
	for _, c := range []struct {
		name string
		m    meter.MetricSpec
		a, b []float64
		want verdict
	}{
		{"within the bound", lower, tight(100), tight(108), flat},
		{"beyond the bound", lower, tight(100), tight(112), worse},
		{"improved beyond the bound", lower, tight(100), tight(85), better},
		{"higher is better", higher, tight(100), tight(85), worse},
		{"higher is better, improved", higher, tight(100), tight(115), better},
		{"the floor covers a small set-up", setup, tight(0.2), tight(0.4), flat},
		{"the bound covers a large set-up", setup, tight(2), tight(2.4), flat},
		{"beyond both", setup, tight(2), tight(2.6), worse},
		{"the floor covers a small set-up whatever its spread", setup, []float64{0.04, 0.05, 0.08}, []float64{0.09, 0.10, 0.12}, flat},
		{"spread over the bound", lower, []float64{80, 100, 120, 90, 110}, []float64{85, 105, 125, 95, 115}, unresolved},
		{"spread over the bound, every run better", lower, []float64{80, 100, 120, 90, 110}, []float64{50, 60, 70, 55, 65}, better},
		{"spread over the bound, every run worse", higher, []float64{80, 100, 120, 90, 110}, []float64{50, 60, 70, 55, 65}, worse},
		{"single runs", lower, []float64{100}, []float64{120}, worse},
	} {
		if got := judge(c.m, c.a, c.b); got != c.want {
			t.Errorf("%s: judge = %s, want %s", c.name, got, c.want)
		}
	}
}

func TestCompare(t *testing.T) {
	spec := loadSpec(t)
	set := func(p50, crc float64, failed int) []meter.Record {
		var recs []meter.Record
		for _, w := range workloadNames {
			plain := meter.Record{Workload: w, Seed: 1, Result: meter.Result{Correct: failed == 0, Attempted: 100, Failed: failed, Metrics: map[string]meter.Metric{}}}
			traced := plain
			traced.Trace, traced.Metrics = 1, map[string]meter.Metric{"model.result_crc32": {Value: crc}}
			for _, m := range spec.EndToEnd {
				plain.Metrics[m.Name] = meter.Metric{Value: p50, Unit: m.Unit}
			}
			recs = append(recs, plain, plain, traced)
		}
		return recs
	}
	for _, c := range []struct {
		name string
		b    []meter.Record
		pass bool
		says string
	}{
		{"the same commit", set(50, 7, 0), true, "pass"},
		{"a model change", set(50, 8, 0), false, "model changed: model.result_crc32"},
		{"a failed op", set(50, 7, 1), false, "failed_op_share rose"},
		{"a slower commit", set(60, 7, 0), false, "worse"},
		{"a workload that was not run", set(50, 7, 0)[3:], false, "missing: 2 runs in A, 0 in B"},
	} {
		var out bytes.Buffer
		if got := compare(spec, set(50, 7, 0), c.b, &out); got != c.pass || !strings.Contains(out.String(), c.says) {
			t.Errorf("%s: compare = %t, want %t with %q in:\n%s", c.name, got, c.pass, c.says, out.String())
		}
	}
}

func loadSpec(t *testing.T) *meter.Spec {
	t.Helper()
	root, err := meter.RepoRoot()
	if err != nil {
		t.Fatal(err)
	}
	spec, err := meter.LoadSpec(root)
	if err != nil {
		t.Fatal(err)
	}
	return spec
}

func names(specs []meter.MetricSpec) []string {
	var out []string
	for _, s := range specs {
		out = append(out, s.Name)
	}
	sort.Strings(out)
	return out
}

func keys(vals map[string]float64) []string {
	var out []string
	for k := range vals {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// TestSmoke passes once over each workload's op list, plain and traced, on
// inputs of the golden-check size, and wants every metric the driver owes
// BENCHMARK.json emitted once with a finite value, every op correct, and the
// traced ops' children covering the op spans where the issue asks for it.
func TestSmoke(t *testing.T) {
	spec := loadSpec(t)
	root, _ := meter.RepoRoot()
	golden := size{cores: 4, scale: 0.05, kernels: []string{"spmv", "pagerank"}}
	driverLayer := append([]string(nil), meter.DriverLayer...)
	sort.Strings(driverLayer)
	for _, w := range workloadNames {
		t.Run(w, func(t *testing.T) {
			tmp := t.TempDir()
			t.Setenv("IMP_TRACE_CACHE", filepath.Join(tmp, "traces"))
			t.Setenv("IMP_CKPT_CACHE", filepath.Join(tmp, "checkpoints"))
			cfg := runConfig{workload: w, seed: 7, size: golden, passes: 1, setUps: 1, tmp: tmp, root: root}

			plain, err := measure(cfg)
			if err != nil {
				t.Fatal(err)
			}
			check(t, "end-to-end", plain, names(spec.EndToEnd))
			for name, v := range plain.vals {
				if v <= 0 {
					t.Errorf("end-to-end metric %s = %v, want it positive", name, v)
				}
			}

			cfg.tmp = t.TempDir() // a run's results dir is its own
			traced, err := measureTraced(cfg)
			if err != nil {
				t.Fatal(err)
			}
			check(t, "per-layer", traced, driverLayer)
			if traced.vals["model.cycles_sum"] <= 0 || traced.vals["model.result_crc32"] <= 0 {
				t.Errorf("the model record is empty: %v", traced.vals)
			}
			if w != "tables-cold" && w != "tables-warm" {
				if got := coverage(traced.spans); got < 0.9 {
					t.Errorf("children cover %.3f of the op spans, want 0.9", got)
				}
			}
			if (w == "replay-hot") != (len(traced.replayCycles) > 0) {
				t.Errorf("replay cycles for the probe: %v", traced.replayCycles)
			}
		})
	}
}

func check(t *testing.T, kind string, o *outcome, want []string) {
	t.Helper()
	if !o.correct || o.failed != 0 || o.attempted < 1 {
		t.Errorf("%s run: correct %t, %d of %d ops failed", kind, o.correct, o.failed, o.attempted)
	}
	if got := keys(o.vals); strings.Join(got, " ") != strings.Join(want, " ") {
		t.Errorf("%s metrics emitted:\n%v\nwant:\n%v", kind, got, want)
	}
	for name, v := range o.vals {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			t.Errorf("%s metric %s = %v", kind, name, v)
		}
	}
}
