// Command bench is the repository's benchmark: six closed-loop workloads, six
// end-to-end metrics measured with tracing off, and a separate traced run
// that yields the per-layer metrics. BENCHMARK.json at the repository root
// declares every metric's name, unit, direction and bound, and the four
// workloads its gate times; README.md beside this file says what each
// workload is for.
//
//	go run ./bench -workload replay-hot -seed 1 -seconds 10 -trace 0
//	go run ./bench -trace 1 -out A.json      # every workload, plain then traced
//	go run ./bench -compare A.json B.json
//
// The model is unvalidated against the paper: the repository holds no paper
// reference numbers, so the benchmark gives no error figure and checks
// correctness against the repository's own goldens and cross-checks instead.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strconv"
	"strings"

	"github.com/impsim/imp/bench/internal/meter"
)

func main() {
	workload := flag.String("workload", "", "workload to run (default: every workload, each in a child process)")
	seed := flag.Int64("seed", 1, "input seed; the same seed gives the same inputs")
	seconds := flag.Float64("seconds", 0, "length of the timed window (default: run_seconds of BENCHMARK.json)")
	trace := flag.Int("trace", 0, "0: end-to-end metrics, tracing off; 1: the traced run and the layer probes, per-layer metrics")
	out := flag.String("out", "", "append each run's result to this result set, for -compare")
	spans := flag.String("spans", "", "write the traced run's spans here as JSON lines (default: .bench_out/spans-<workload>.jsonl)")
	probed := flag.String("probe", "", "a traced run reads the layer probe's output here and does not run the probe (set by the every-workload run, which probes once)")
	cmp := flag.Bool("compare", false, "compare two result sets: -compare A.json B.json")
	flag.Parse()

	root, err := meter.RepoRoot()
	if err != nil {
		fatal(err)
	}
	spec, err := meter.LoadSpec(root)
	if err != nil {
		fatal(err)
	}
	if *seconds <= 0 {
		*seconds = float64(spec.RunSeconds)
	}
	switch {
	case *cmp:
		if flag.NArg() != 2 {
			fatal(fmt.Errorf("-compare takes two result sets"))
		}
		if !compareFiles(spec, flag.Arg(0), flag.Arg(1)) {
			os.Exit(1)
		}
	case *workload == "":
		if err := runAll(root, *seed, *seconds, *trace, *out); err != nil {
			fatal(err)
		}
	default:
		rec, err := runOne(root, spec, *workload, *seed, *seconds, *trace, *spans, *probed)
		if err != nil {
			fatal(err)
		}
		if *out != "" {
			if err := appendRecord(*out, rec); err != nil {
				fatal(err)
			}
		}
		printResult(rec)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "bench:", err)
	os.Exit(2)
}

// scratchDir makes a directory of the caller's own under .bench_tmp in the
// repository root; remove deletes it.
func scratchDir(root, name string) (dir string, remove func(), err error) {
	base := filepath.Join(root, ".bench_tmp")
	if err := os.MkdirAll(base, 0o755); err != nil {
		return "", nil, err
	}
	dir, err = os.MkdirTemp(base, name+"-*")
	if err != nil {
		return "", nil, err
	}
	return dir, func() {
		os.RemoveAll(dir)
		os.Remove(base) // once the last concurrent run has left it empty
	}, nil
}

// runOne runs one workload in this process, inside a scratch directory of
// its own under the repository root that is gone when it returns.
func runOne(root string, spec *meter.Spec, workload string, seed int64, seconds float64, trace int, spansPath, probePath string) (meter.Record, error) {
	rec := meter.Record{Workload: workload, Seed: seed, Trace: trace}
	tmp, remove, err := scratchDir(root, workload)
	if err != nil {
		return rec, err
	}
	defer remove()
	os.Setenv("IMP_TRACE_CACHE", filepath.Join(tmp, "traces"))
	os.Setenv("IMP_CKPT_CACHE", filepath.Join(tmp, "checkpoints"))

	cfg := runConfig{workload: workload, seed: seed, size: fullSize, seconds: seconds, setUps: 3, tmp: tmp, root: root}
	var o *outcome
	declared := spec.EndToEnd
	if trace == 0 {
		o, err = measure(cfg)
	} else {
		declared = spec.PerLayer
		o, err = measureTraced(cfg)
		if err == nil {
			err = addProbe(root, cfg, o, probePath)
		}
		if err == nil {
			err = writeSpans(root, spansPath, workload, o.spans)
		}
	}
	if err != nil {
		return rec, err
	}
	rec.Correct, rec.Attempted, rec.Failed = o.correct, o.attempted, o.failed
	rec.Metrics, err = meter.Label(declared, o.vals)
	return rec, err
}

// runProbe runs bench/probe as a child and returns what it printed.
func runProbe(root string, seed int64, tmp string) ([]byte, error) {
	cmd := exec.Command("go", "run", "./bench/probe", "-seed", strconv.FormatInt(seed, 10), "-tmp", tmp)
	cmd.Dir = root
	cmd.Stderr = os.Stderr
	stdout, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("bench/probe: %w", err)
	}
	return stdout, nil
}

// addProbe merges the probe's layer metrics into a traced run, from
// probePath if the probe has run already. For replay-hot the probe's layered
// replay must reproduce the simulated time of every op, and its spans join
// the run's.
func addProbe(root string, c runConfig, o *outcome, probePath string) error {
	var data []byte
	var err error
	if probePath != "" {
		data, err = os.ReadFile(probePath)
	} else {
		data, err = runProbe(root, c.seed, filepath.Join(c.tmp, "probe"))
	}
	if err != nil {
		return err
	}
	var p meter.ProbeOutput
	if err := json.Unmarshal(data, &p); err != nil {
		return fmt.Errorf("bench/probe output: %w", err)
	}
	for name, v := range p.Metrics {
		o.vals[name] = v
	}
	if len(o.replayCycles) == 0 {
		return nil
	}
	if len(p.ReplayCycles) != len(o.replayCycles) {
		return fmt.Errorf("bench/probe replayed %d ops layer by layer, the replay-hot list has %d", len(p.ReplayCycles), len(o.replayCycles))
	}
	o.attempted += len(o.replayCycles)
	for slot, want := range o.replayCycles {
		if got := p.ReplayCycles[slot]; got != want {
			fmt.Fprintf(os.Stderr, "replay-hot op %d took %d simulated cycles layer by layer, %d through imp.RunProgram\n", slot, got, want)
			o.failed++
			o.correct = false
		}
	}
	// Number the probe's spans after the driver's.
	shift, ops := len(o.spans), 0
	for _, s := range o.spans {
		ops = max(ops, s.Op+1)
	}
	for _, s := range p.Spans {
		s.ID += shift
		if s.Parent != 0 {
			s.Parent += shift
		}
		s.Op += ops
		o.spans = append(o.spans, s)
	}
	return nil
}

func writeSpans(root, path, workload string, spans []meter.Span) error {
	if path == "" {
		path = filepath.Join(root, ".bench_out", "spans-"+workload+".jsonl")
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	var buf bytes.Buffer
	if err := meter.WriteJSONL(&buf, workload, spans); err != nil {
		return err
	}
	return os.WriteFile(path, buf.Bytes(), 0o644)
}

func appendRecord(path string, rec meter.Record) error {
	line, err := json.Marshal(rec)
	if err != nil {
		return err
	}
	f, err := os.OpenFile(path, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(append(line, '\n')); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// printResult prints every metric by name with its unit, then the result
// object on the last line.
func printResult(rec meter.Record) {
	fmt.Printf("%s  seed %d  trace %d  (model unvalidated against the paper; correctness is checked against the repository's goldens)\n",
		rec.Workload, rec.Seed, rec.Trace)
	names := make([]string, 0, len(rec.Metrics))
	for name := range rec.Metrics {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		m := rec.Metrics[name]
		fmt.Printf("  %-40s %16.6g %s\n", name, m.Value, m.Unit)
	}
	line, err := json.Marshal(rec.Result)
	if err != nil {
		fatal(err)
	}
	fmt.Printf("%s\n", line)
}

// runAll runs every workload, each in a child process of this binary, so
// that set-up time, allocation and peak memory are one workload's own. The
// probe's output does not depend on the workload, so a traced set probes
// once and every traced child reads that.
func runAll(root string, seed int64, seconds float64, trace int, out string) error {
	self, err := os.Executable()
	if err != nil {
		return err
	}
	var probePath string
	if trace > 0 {
		tmp, remove, err := scratchDir(root, "probe")
		if err != nil {
			return err
		}
		defer remove()
		data, err := runProbe(root, seed, filepath.Join(tmp, "scratch"))
		if err != nil {
			return err
		}
		probePath = filepath.Join(tmp, "probe.json")
		if err := os.WriteFile(probePath, data, 0o644); err != nil {
			return err
		}
	}
	var failed []string
	for _, w := range workloadNames {
		for tr := 0; tr <= trace; tr++ {
			args := []string{"-workload", w, "-seed", strconv.FormatInt(seed, 10),
				"-seconds", strconv.FormatFloat(seconds, 'g', -1, 64), "-trace", strconv.Itoa(tr)}
			if out != "" {
				args = append(args, "-out", out)
			}
			if tr > 0 {
				args = append(args, "-probe", probePath)
			}
			cmd := exec.Command(self, args...)
			cmd.Stdout, cmd.Stderr = os.Stdout, os.Stderr
			if err := cmd.Run(); err != nil {
				failed = append(failed, fmt.Sprintf("%s (trace %d): %v", w, tr, err))
			}
		}
	}
	if len(failed) > 0 {
		return fmt.Errorf("runs failed: %s", strings.Join(failed, "; "))
	}
	return nil
}
