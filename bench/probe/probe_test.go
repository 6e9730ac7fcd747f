package main

import (
	"math"
	"slices"
	"sort"
	"strings"
	"testing"

	"github.com/impsim/imp"
	"github.com/impsim/imp/bench/internal/meter"
)

// TestProbe runs every probe and the layered replay on inputs of the
// golden-check size. The probe must emit, once and finite, exactly the
// per-layer metrics of BENCHMARK.json that are not the driver's, and its
// layer-by-layer replay must reproduce imp.RunProgram's simulated time for
// every op of the replay-hot list, which also pins simConfig to imp.Config.
func TestProbe(t *testing.T) {
	root, err := meter.RepoRoot()
	if err != nil {
		t.Fatal(err)
	}
	spec, err := meter.LoadSpec(root)
	if err != nil {
		t.Fatal(err)
	}
	t.Setenv("IMP_TRACE_CACHE", "off")
	c := config{seed: 7, cores: 4, scale: 0.05, tmp: t.TempDir(), calls: 2000, reps: 1}
	out, err := run(c)
	if err != nil {
		t.Fatal(err)
	}
	var want []int64
	for _, k := range meter.ReplayKernels {
		prog, err := imp.BuildProgram(k, c.cores, c.scale, false, meter.ReplaySeed(c.seed, k, 0))
		if err != nil {
			t.Fatal(err)
		}
		for _, name := range meter.ReplaySystems {
			system, err := imp.ParseSystem(name)
			if err != nil {
				t.Fatal(err)
			}
			res, err := imp.RunProgram(prog, imp.Config{Cores: c.cores, System: system})
			if err != nil {
				t.Fatal(err)
			}
			want = append(want, res.Cycles)
		}
	}
	if !slices.Equal(out.ReplayCycles, want) {
		t.Errorf("simulated time of the ops replayed layer by layer:\n%v\nthrough imp.RunProgram:\n%v", out.ReplayCycles, want)
	}
	if ops, spans := len(want), len(out.Spans); spans != 4*ops {
		t.Errorf("%d spans for %d ops, want an op span and three layer spans each", spans, ops)
	}

	driver := map[string]bool{}
	for _, name := range meter.DriverLayer {
		driver[name] = true
	}
	var wantNames, got []string
	for _, m := range spec.PerLayer {
		if !driver[m.Name] {
			wantNames = append(wantNames, m.Name)
		}
	}
	if len(wantNames)+len(driver) != len(spec.PerLayer) {
		t.Errorf("meter.DriverLayer names a metric BENCHMARK.json does not declare")
	}
	for name, v := range out.Metrics {
		got = append(got, name)
		if math.IsNaN(v) || math.IsInf(v, 0) {
			t.Errorf("%s = %v", name, v)
		}
	}
	sort.Strings(wantNames)
	sort.Strings(got)
	if strings.Join(got, " ") != strings.Join(wantNames, " ") {
		t.Errorf("the probe emitted:\n%v\nwant:\n%v", got, wantNames)
	}
}
