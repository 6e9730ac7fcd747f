package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"strings"

	"github.com/impsim/imp/bench/internal/meter"
)

// floors are absolute allowances beside a metric's relative bound: a change
// is a regression only beyond the larger of the two. A set-up of a quarter
// of a second moves by a quarter of itself from one run to the next.
// BENCHMARK.json has no field for them, so they live here.
var floors = map[string]float64{"setup_s": 0.25}

type verdict string

const (
	better     verdict = "better"
	flat       verdict = "flat"
	worse      verdict = "worse"
	unresolved verdict = "unresolved"
)

// judge compares the runs of B against the runs of A on one metric. Medians
// within the floor of each other are flat whatever the spread. Otherwise,
// where either side's own spread exceeds the bound the medians cannot carry
// a verdict: it is unresolved unless every run of one side reads better than
// every run of the other. Otherwise within the bound is flat.
func judge(m meter.MetricSpec, a, b []float64) verdict {
	ma, mb := meter.Median(a), meter.Median(b)
	worsening := mb - ma
	if m.Better != "lower" {
		worsening = ma - mb
	}
	if math.Abs(worsening) <= floors[m.Name] {
		return flat
	}
	if noisy(a, m.Bound) || noisy(b, m.Bound) {
		// Flip "higher is better" values so that lower is better on both sides.
		sign := 1.0
		if m.Better != "lower" {
			sign = -1
		}
		lowA, highA := minMax(a, sign)
		lowB, highB := minMax(b, sign)
		switch {
		case lowB > highA:
			return worse
		case highB < lowA:
			return better
		}
		return unresolved
	}
	allowed := m.Bound * math.Abs(ma)
	switch {
	case worsening > allowed:
		return worse
	case -worsening > allowed:
		return better
	}
	return flat
}

func noisy(vals []float64, bound float64) bool {
	return len(vals) >= 2 && meter.Spread(vals) > bound
}

// minMax is the range of vals, each times sign.
func minMax(vals []float64, sign float64) (lo, hi float64) {
	lo, hi = math.Inf(1), math.Inf(-1)
	for _, v := range vals {
		lo, hi = math.Min(lo, sign*v), math.Max(hi, sign*v)
	}
	return lo, hi
}

func readSet(path string) ([]meter.Record, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var recs []meter.Record
	sc := bufio.NewScanner(f)
	sc.Buffer(nil, 1<<20)
	for sc.Scan() {
		if strings.TrimSpace(sc.Text()) == "" {
			continue
		}
		var r meter.Record
		if err := json.Unmarshal(sc.Bytes(), &r); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		recs = append(recs, r)
	}
	return recs, sc.Err()
}

func compareFiles(spec *meter.Spec, pathA, pathB string) bool {
	a, err := readSet(pathA)
	if err != nil {
		fatal(err)
	}
	b, err := readSet(pathB)
	if err != nil {
		fatal(err)
	}
	return compare(spec, a, b, os.Stdout)
}

// values collects one metric's values over a set's runs of one workload.
func values(recs []meter.Record, workload string, trace int, metric string) []float64 {
	var out []float64
	for _, r := range recs {
		if m, ok := r.Metrics[metric]; ok && r.Workload == workload && r.Trace == trace {
			out = append(out, m.Value)
		}
	}
	return out
}

// compare prints one row per end-to-end metric and workload and reports
// whether B passes: every workload measured on both sides, nothing worse,
// every model.* value of a seed identical in both sets, and no more failed
// ops than A.
func compare(spec *meter.Spec, a, b []meter.Record, w io.Writer) bool {
	ok := true
	fmt.Fprintf(w, "%-13s %-16s %14s %25s %14s %25s %8s  %s\n",
		"workload", "metric", "A median", "A quartiles", "B median", "B quartiles", "change", "verdict")
	for _, wl := range workloadNames {
		for _, m := range spec.EndToEnd {
			va, vb := values(a, wl, 0, m.Name), values(b, wl, 0, m.Name)
			if len(va) == 0 || len(vb) == 0 {
				fmt.Fprintf(w, "%-13s %-16s missing: %d runs in A, %d in B\n", wl, m.Name, len(va), len(vb))
				ok = false
				continue
			}
			v := judge(m, va, vb)
			ok = ok && v != worse
			ma, mb := meter.Median(va), meter.Median(vb)
			fmt.Fprintf(w, "%-13s %-16s %14.6g %25s %14.6g %25s %+7.1f%%  %s\n",
				wl, m.Name, ma, quartiles(va), mb, quartiles(vb), 100*(mb-ma)/ma, v)
		}
	}
	for _, wl := range workloadNames {
		if diff := modelDiff(spec, a, b, wl); diff != "" {
			fmt.Fprintf(w, "%-13s model changed: %s\n", wl, diff)
			ok = false
		}
		fa, fb := failedShare(a, wl), failedShare(b, wl)
		if fb > fa {
			fmt.Fprintf(w, "%-13s failed_op_share rose from %g to %g\n", wl, fa, fb)
			ok = false
		}
	}
	if ok {
		fmt.Fprintln(w, "pass: nothing missing, nothing worse, model.* identical, no more failed ops")
	}
	return ok
}

func quartiles(vals []float64) string {
	if len(vals) < 2 {
		return "-"
	}
	q1, q3 := meter.Quartiles(vals)
	return fmt.Sprintf("[%.5g, %.5g]", q1, q3)
}

// modelDiff names the model.* metrics that, for one seed, do not read the
// same in every traced run of both sets.
func modelDiff(spec *meter.Spec, a, b []meter.Record, workload string) string {
	var diffs []string
	for _, m := range spec.PerLayer {
		if !strings.HasPrefix(m.Name, "model.") {
			continue
		}
		seen := map[int64]float64{}
		for _, r := range append(append([]meter.Record(nil), a...), b...) {
			v, has := r.Metrics[m.Name]
			if !has || r.Workload != workload || r.Trace != 1 {
				continue
			}
			if was, ok := seen[r.Seed]; ok && was != v.Value {
				diffs = append(diffs, fmt.Sprintf("%s (seed %d: %v and %v)", m.Name, r.Seed, was, v.Value))
				break
			}
			seen[r.Seed] = v.Value
		}
	}
	return strings.Join(diffs, ", ")
}

// failedShare is a workload's failed ops over its attempted ops, a run that
// reports itself incorrect counting as wholly failed.
func failedShare(recs []meter.Record, workload string) float64 {
	var failed, attempted int
	for _, r := range recs {
		if r.Workload != workload {
			continue
		}
		attempted += r.Attempted
		if failed += r.Failed; !r.Correct && r.Failed == 0 {
			failed += r.Attempted
		}
	}
	if attempted == 0 {
		return 0
	}
	return float64(failed) / float64(attempted)
}
