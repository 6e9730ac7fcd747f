package meter

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
)

// Metric is one reported value with its unit.
type Metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// Result is the object a run prints as the last line of its output.
type Result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]Metric `json:"metrics"`
}

// Record is a Result with the run that produced it, one line of a result
// set (-out) that -compare reads.
type Record struct {
	Workload string `json:"workload"`
	Seed     int64  `json:"seed"`
	Trace    int    `json:"trace"`
	Result
}

// ProbeOutput is what bench/probe prints for the driver to merge: the layer
// metrics by name, and the spans and the simulated time of each op of the
// replay-hot list replayed layer by layer.
type ProbeOutput struct {
	Metrics      map[string]float64 `json:"metrics"`
	Spans        []Span             `json:"spans"`
	ReplayCycles []int64            `json:"replay_cycles"`
}

// MetricSpec is one metric declared in BENCHMARK.json. Bound is set for
// end-to-end metrics only.
type MetricSpec struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

// Spec is BENCHMARK.json, the one place metric names, units, directions and
// bounds are declared; the programs look units and bounds up here.
type Spec struct {
	RunSeconds int `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []MetricSpec `json:"end_to_end"`
	PerLayer []MetricSpec `json:"per_layer"`
}

// RepoRoot walks up from the working directory to the directory holding
// go.mod and BENCHMARK.json.
func RepoRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		if exists(filepath.Join(dir, "go.mod")) && exists(filepath.Join(dir, "BENCHMARK.json")) {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", fmt.Errorf("no go.mod beside BENCHMARK.json at or above the working directory")
		}
		dir = parent
	}
}

func exists(path string) bool {
	_, err := os.Stat(path)
	return err == nil
}

// LoadSpec reads BENCHMARK.json from the repository root.
func LoadSpec(root string) (*Spec, error) {
	data, err := os.ReadFile(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		return nil, err
	}
	var s Spec
	if err := json.Unmarshal(data, &s); err != nil {
		return nil, fmt.Errorf("BENCHMARK.json: %w", err)
	}
	return &s, nil
}

// Label attaches the declared units to measured values. It fails when the
// measured names are not exactly the declared ones, so a metric cannot be
// added or dropped on one side only.
func Label(specs []MetricSpec, values map[string]float64) (map[string]Metric, error) {
	out := make(map[string]Metric, len(specs))
	for _, s := range specs {
		v, ok := values[s.Name]
		if !ok {
			return nil, fmt.Errorf("metric %s is declared in BENCHMARK.json but was not measured", s.Name)
		}
		out[s.Name] = Metric{Value: v, Unit: s.Unit}
	}
	for name := range values {
		if _, ok := out[name]; !ok {
			return nil, fmt.Errorf("metric %s was measured but is not declared in BENCHMARK.json", name)
		}
	}
	return out, nil
}
