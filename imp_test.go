package imp

import (
	"encoding/json"
	"fmt"
	"strings"
	"testing"
)

// tiny keeps API tests fast: 4 cores, 5% inputs.
var tiny = ExpOptions{Cores: 4, Scale: 0.05}

func TestRunBasic(t *testing.T) {
	res, err := Run(Config{Workload: "pagerank", Cores: 4, Scale: 0.05, System: SystemBaseline})
	if err != nil {
		t.Fatal(err)
	}
	if res.Cycles <= 0 || res.Instructions == 0 {
		t.Errorf("degenerate result: %+v", res)
	}
	if res.MissFracIndirect+res.MissFracStream+res.MissFracOther < 0.99 {
		t.Errorf("miss fractions do not sum to 1: %+v", res)
	}
}

func TestRunUnknownWorkload(t *testing.T) {
	if _, err := Run(Config{Workload: "nope", Cores: 4}); err == nil {
		t.Error("accepted unknown workload")
	}
}

func TestRunUnknownSystem(t *testing.T) {
	if _, err := Run(Config{Workload: "dense", Cores: 4, Scale: 0.05, System: System(99)}); err == nil {
		t.Error("accepted unknown system")
	}
}

func TestSystemsOrdering(t *testing.T) {
	prog, err := BuildProgram("spmv", 4, 0.05, false, 0)
	if err != nil {
		t.Fatal(err)
	}
	cycles := map[System]int64{}
	for _, sys := range []System{SystemIdeal, SystemPerfect, SystemIMP, SystemBaseline, SystemNone} {
		res, err := RunProgram(prog, Config{Cores: 4, System: sys})
		if err != nil {
			t.Fatalf("%v: %v", sys, err)
		}
		cycles[sys] = res.Cycles
	}
	if !(cycles[SystemIdeal] <= cycles[SystemPerfect]) {
		t.Errorf("ideal (%d) > perfect (%d)", cycles[SystemIdeal], cycles[SystemPerfect])
	}
	if !(cycles[SystemIMP] <= cycles[SystemBaseline]) {
		t.Errorf("imp (%d) > base (%d)", cycles[SystemIMP], cycles[SystemBaseline])
	}
	if !(cycles[SystemBaseline] <= cycles[SystemNone]) {
		t.Errorf("base (%d) > none (%d)", cycles[SystemBaseline], cycles[SystemNone])
	}
}

func TestProgramReuseMatchesDirectRun(t *testing.T) {
	prog, err := BuildProgram("lsh", 4, 0.05, false, 0)
	if err != nil {
		t.Fatal(err)
	}
	a, err := RunProgram(prog, Config{Cores: 4, System: SystemIMP})
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(Config{Workload: "lsh", Cores: 4, Scale: 0.05, System: SystemIMP})
	if err != nil {
		t.Fatal(err)
	}
	if a.Cycles != b.Cycles {
		t.Errorf("cached program run (%d) differs from direct run (%d)", a.Cycles, b.Cycles)
	}
	if prog.Accesses() == 0 || prog.Instructions() == 0 {
		t.Error("program accessors returned zero")
	}
}

func TestIMPParamOverrides(t *testing.T) {
	prog, err := BuildProgram("spmv", 4, 0.05, false, 0)
	if err != nil {
		t.Fatal(err)
	}
	small, err := RunProgram(prog, Config{Cores: 4, System: SystemIMP, MaxPrefetchDistance: 2})
	if err != nil {
		t.Fatal(err)
	}
	big, err := RunProgram(prog, Config{Cores: 4, System: SystemIMP, MaxPrefetchDistance: 16})
	if err != nil {
		t.Fatal(err)
	}
	if small.Cycles == big.Cycles {
		t.Log("distance 2 and 16 gave identical cycles (possible on tiny inputs)")
	}
	if small.PatternsDetected == 0 || big.PatternsDetected == 0 {
		t.Error("IMP detected no patterns with overridden parameters")
	}
}

func TestWorkloadsList(t *testing.T) {
	if len(Workloads()) != 8 || len(PaperWorkloads()) != 7 {
		t.Errorf("Workloads() = %v", Workloads())
	}
}

func TestStorageCostAPI(t *testing.T) {
	c := StorageCost(false)
	if c.TotalBits() < 4500 || c.TotalBits() > 6500 {
		t.Errorf("storage = %d bits, want ~5.5Kbit", c.TotalBits())
	}
	if StorageCost(true).GPBits == 0 {
		t.Error("partial storage missing GP bits")
	}
}

func TestExperimentRegistry(t *testing.T) {
	want := []string{"fig1", "fig2", "fig9", "table3", "fig10", "fig11", "fig12",
		"fig13", "fig14", "fig15", "fig16", "storage", "ghb"}
	got := Experiments.IDs()
	if len(got) != len(want) {
		t.Fatalf("IDs = %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("IDs[%d] = %q, want %q", i, got[i], want[i])
		}
	}
	if _, err := Experiments.Get("nope"); err == nil {
		t.Error("Get accepted unknown id")
	}
	if _, err := Experiments.Run("nope", tiny); err == nil {
		t.Error("Run accepted unknown id")
	}
}

func TestExperimentStorage(t *testing.T) {
	tbl, err := Experiments.Run("storage", tiny)
	if err != nil {
		t.Fatal(err)
	}
	if len(tbl.Rows) != 5 {
		t.Errorf("storage rows = %d, want 5", len(tbl.Rows))
	}
	if !strings.Contains(tbl.String(), "PT") {
		t.Error("storage table missing PT row")
	}
}

func TestExperimentFig1Tiny(t *testing.T) {
	tbl, err := Experiments.Run("fig1", ExpOptions{Cores: 4, Scale: 0.05, Workloads: []string{"spmv", "pagerank"}})
	if err != nil {
		t.Fatal(err)
	}
	// 2 workloads + avg row.
	if len(tbl.Rows) != 3 {
		t.Fatalf("rows = %d, want 3", len(tbl.Rows))
	}
	for _, r := range tbl.Rows {
		sum := 0.0
		for _, v := range r.Values {
			if v < 0 || v > 1 {
				t.Errorf("%s: fraction %v out of range", r.Label, v)
			}
			sum += v
		}
		if sum < 0.99 || sum > 1.01 {
			t.Errorf("%s: fractions sum to %v", r.Label, sum)
		}
	}
}

func TestExperimentFig9Tiny(t *testing.T) {
	tbl, err := Experiments.Run("fig9", ExpOptions{Cores: 4, Scale: 0.05, Workloads: []string{"spmv"}})
	if err != nil {
		t.Fatal(err)
	}
	r := tbl.Rows[0]
	if r.Values[0] != 1 {
		t.Errorf("perfpref column = %v, want 1 (normalization anchor)", r.Values[0])
	}
	// IMP must beat base on spmv.
	if r.Values[2] <= r.Values[1] {
		t.Errorf("imp (%v) not above base (%v)", r.Values[2], r.Values[1])
	}
}

func TestExperimentFig12Tiny(t *testing.T) {
	tbl, err := Experiments.Run("fig12", ExpOptions{Cores: 4, Scale: 0.05, Workloads: []string{"pagerank"}})
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range tbl.Rows[0].Values {
		if v <= 0 || v > 1.6 {
			t.Errorf("traffic ratio %v out of plausible range", v)
		}
	}
}

func TestExperimentSensitivityTiny(t *testing.T) {
	tbl, err := Experiments.Run("fig16", ExpOptions{Cores: 4, Scale: 0.05, Workloads: []string{"spmv"}})
	if err != nil {
		t.Fatal(err)
	}
	if len(tbl.Columns) != 4 {
		t.Fatalf("columns = %v", tbl.Columns)
	}
	// The default (16) column must be exactly 1.
	if tbl.Rows[0].Values[2] != 1 {
		t.Errorf("default distance not normalized to 1: %v", tbl.Rows[0].Values)
	}
}

func TestTableFormatting(t *testing.T) {
	tbl := &Table{ID: "x", Title: "t", Columns: []string{"a", "b"}}
	tbl.AddRow("row1", 1, 2)
	tbl.AddRow("row2", 3, 4)
	tbl.AddAverage()
	s := tbl.String()
	if !strings.Contains(s, "row1") || !strings.Contains(s, "avg") {
		t.Errorf("bad table output:\n%s", s)
	}
	if tbl.Rows[2].Values[0] != 2 || tbl.Rows[2].Values[1] != 3 {
		t.Errorf("average row = %v", tbl.Rows[2].Values)
	}
}

func TestProgressCallback(t *testing.T) {
	var lines []string
	_, err := Experiments.Run("fig1", ExpOptions{
		Cores: 4, Scale: 0.05, Workloads: []string{"dense"},
		Progress: func(s string) { lines = append(lines, s) },
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(lines) == 0 {
		t.Error("no progress lines")
	}
}

// TestSystemJSONRoundTrip pins the serializable-Config contract the
// experiment service depends on: System marshals as its stable paper name
// and unmarshals from a name only.
func TestSystemJSONRoundTrip(t *testing.T) {
	for s := SystemBaseline; s <= SystemNone; s++ {
		data, err := json.Marshal(s)
		if err != nil {
			t.Fatal(err)
		}
		if want := `"` + s.String() + `"`; string(data) != want {
			t.Errorf("System %d marshals as %s, want %s", s, data, want)
		}
		var back System
		if err := json.Unmarshal(data, &back); err != nil {
			t.Fatal(err)
		}
		if back != s {
			t.Errorf("round trip changed %v to %v", s, back)
		}
	}
	var bad System
	if err := json.Unmarshal([]byte("1"), &bad); err == nil || !strings.Contains(err.Error(), fmt.Sprint(SystemNames())) {
		t.Errorf("a numeric system unmarshaled (%v), or the error does not list the names: %v", bad, err)
	}
	if err := json.Unmarshal([]byte(`"warp-drive"`), &bad); err == nil {
		t.Error("unknown system name unmarshaled successfully")
	}
	if err := json.Unmarshal([]byte("99"), &bad); err == nil {
		t.Error("unknown system number unmarshaled successfully")
	}
}

// TestConfigJSONRoundTrip: a full Config survives the wire (the job-spec
// format of the experiment service).
func TestConfigJSONRoundTrip(t *testing.T) {
	cfg := Config{
		Workload: "spmv", Cores: 16, System: SystemIMPPartial, Scale: 0.5,
		OutOfOrder: true, Seed: 7, PTEntries: 32, IPDEntries: 8, MaxPrefetchDistance: 4,
	}
	data, err := json.Marshal(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var back Config
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatal(err)
	}
	if back != cfg {
		t.Errorf("round trip changed config: %+v vs %+v", back, cfg)
	}
}

// TestParseSystemCoversAllNames: every name SystemNames reports parses back
// to its constant.
func TestParseSystemCoversAllNames(t *testing.T) {
	names := SystemNames()
	if len(names) != 9 {
		t.Fatalf("SystemNames returned %d names: %v", len(names), names)
	}
	for _, n := range names {
		s, err := ParseSystem(n)
		if err != nil {
			t.Fatal(err)
		}
		if s.String() != n {
			t.Errorf("ParseSystem(%q) = %v", n, s)
		}
	}
	if _, err := ParseSystem("warp-drive"); err == nil {
		t.Error("unknown name parsed successfully")
	}
}
