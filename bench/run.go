package main

import (
	"bytes"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"github.com/impsim/imp"
	"github.com/impsim/imp/bench/internal/meter"
)

// runConfig is one run of one workload.
type runConfig struct {
	workload string
	seed     int64
	size     size
	// seconds sizes the timed window: it is passesPer10s()*seconds/10 whole
	// passes, which take about that long on the box the counts were sized
	// on. A slower program takes longer; it does not do fewer ops, so op
	// counts, percentile ranks and the model record repeat exactly. passes,
	// when set, fixes the pass count instead (tests).
	seconds float64
	passes  int
	// setUps is how many times set-up runs; setup_s is their median.
	setUps int
	tmp    string // scratch directory, the caller's to remove
	root   string // repository root, for the goldens
}

// outcome is what a run measured.
type outcome struct {
	vals      map[string]float64
	correct   bool
	attempted int
	failed    int
	// Traced runs only.
	spans        []meter.Span
	replayCycles []int64 // replay-hot: each slot's simulated time, for the probe
}

// window is one stretch of whole passes and what the process spent on it.
type window struct {
	ms       []float64 // each op's latency, in op order
	failed   int
	passes   int
	wall     time.Duration
	passWall []float64 // each pass's wall seconds
	passCPU  []float64 // each pass's user+sys seconds
	alloc    uint64    // bytes
	gcs      uint32
	gcPause  time.Duration
}

func (w window) ops() float64 { return float64(len(w.ms)) }

// latency summarises a window's op latencies. An op list mixes kinds of op
// that differ in cost several times over, so percentiles of the raw samples
// would sit on the border between two kinds and jump with the mix. Each kind
// is therefore summarised on its own: p50 is the median over kinds of the
// kind's median latency, and the tail is the tail percentile of every op's
// latency relative to its own kind's median, in units of p50 — how much
// slower than usual an unlucky op is, whatever its kind.
func (w window) latency(kinds int) (p50, tail float64, pct int) {
	byKind := make([][]float64, kinds)
	for i, ms := range w.ms {
		byKind[i%kinds] = append(byKind[i%kinds], ms)
	}
	medians := make([]float64, kinds)
	for k, ms := range byKind {
		medians[k] = meter.Median(ms)
	}
	relative := make([]float64, len(w.ms))
	for i, ms := range w.ms {
		relative[i] = ms / medians[i%kinds]
	}
	p50 = meter.Median(medians)
	rel, pct := meter.Tail(relative)
	return p50, p50 * rel, pct
}

// runner issues a workload's ops. next numbers ops across windows, so a
// workload that must never repeat an input can key its inputs on it.
type runner struct {
	w    workload
	next int
}

// run issues the given number of whole passes. With rec set every op gets a
// span and the traced form; m collects the model record of the first pass.
func (r *runner) run(passes int, rec *meter.Recorder, m *model) window {
	n := r.w.passLen()
	var win window
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	t0 := time.Now()
	for ; win.passes < passes; win.passes++ {
		passCPU, passStart := cpuSeconds(), time.Now()
		durs, errs := make([]time.Duration, n), make([]error, n)
		var slot atomic.Int64
		var wg sync.WaitGroup
		for c := 0; c < r.w.clients(); c++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for s := int(slot.Add(1)) - 1; s < n; s = int(slot.Add(1)) - 1 {
					i := r.next + s
					var t *opTrace
					if rec != nil {
						t = &opTrace{rec: rec, id: rec.Start("op", 0, i), op: i, slot: s, m: m}
					}
					durs[s], errs[s] = r.w.op(i, t)
					if t != nil {
						rec.End(t.id)
					}
				}
			}()
		}
		wg.Wait()
		win.passWall = append(win.passWall, time.Since(passStart).Seconds())
		win.passCPU = append(win.passCPU, cpuSeconds()-passCPU)
		r.next += n
		m = nil
		for s := range durs {
			win.ms = append(win.ms, float64(durs[s].Nanoseconds())/1e6)
			if errs[s] != nil {
				win.failed++
				fmt.Fprintln(os.Stderr, "failed op:", errs[s])
			}
		}
	}
	win.wall = time.Since(t0)
	runtime.ReadMemStats(&after)
	win.alloc = after.TotalAlloc - before.TotalAlloc
	win.gcs = after.NumGC - before.NumGC
	win.gcPause = time.Duration(after.PauseTotalNs - before.PauseTotalNs)
	return win
}

// passCount is the window's length in passes, or the given share of it.
func (c runConfig) passCount(w workload, share float64) int {
	if c.passes > 0 {
		return c.passes
	}
	return max(1, int(math.Round(float64(w.passesPer10s())*c.seconds/10*share)))
}

// cpuSeconds is the process's user plus system CPU time so far.
func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return tv(ru.Utime) + tv(ru.Stime)
}

// peakRSSMB is the process's high-water resident set.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KB
}

// goldenCheck regenerates fig2 and table3 at the golden options and compares
// bytes with the repository's goldens. They sit outside bench/ on purpose: a
// deliberate model change regenerates them there, and only then passes here.
func goldenCheck(root string) error {
	for _, id := range []string{"fig2", "table3"} {
		tbl, err := imp.Experiments.Run(id, imp.ExpOptions{
			Cores: 4, Scale: 0.05, Workloads: []string{"spmv", "pagerank"},
			RunOptions: imp.RunOptions{Parallelism: sweepParallelism},
		})
		if err != nil {
			return err
		}
		got, err := tbl.JSON()
		if err != nil {
			return err
		}
		want, err := os.ReadFile(filepath.Join(root, "testdata", "golden_"+id+".json"))
		if err != nil {
			return err
		}
		if !bytes.Equal(append(got, '\n'), want) {
			return fmt.Errorf("%s at the golden options differs from testdata/golden_%s.json", id, id)
		}
	}
	return nil
}

// setUp runs the golden check once and the workload's set-up c.setUps
// times, and returns the seconds of each repetition with the golden check's
// added. The golden inputs are fixed, so a second check would find the
// first one's traces cached and read warm; the workload's own inputs are
// seeded per repetition. The last repetition is left standing.
func (c runConfig) setUp(w workload, out *outcome) ([]float64, error) {
	e := &env{seed: c.seed, size: c.size, tmp: c.tmp}
	t0 := time.Now()
	if err := goldenCheck(c.root); err != nil {
		fmt.Fprintln(os.Stderr, "golden check:", err)
		out.correct = false
	}
	golden := time.Since(t0).Seconds()
	var secs []float64
	for rep := 0; rep < c.setUps; rep++ {
		if rep > 0 {
			w.tearDown()
		}
		t0 := time.Now()
		if err := w.setUp(e, rep); err != nil {
			return nil, fmt.Errorf("set-up of %s: %w", c.workload, err)
		}
		secs = append(secs, golden+time.Since(t0).Seconds())
	}
	return secs, nil
}

// measure is the untraced run: set-up (repeated, for its median), one
// untimed pass so that caches and lazy set-up have settled, then the timed
// window, then the workload's cross-checks. It reports the end-to-end
// metrics.
func measure(c runConfig) (*outcome, error) {
	w, err := newWorkload(c.workload)
	if err != nil {
		return nil, err
	}
	defer w.tearDown()
	out := &outcome{correct: true}
	setUps, err := c.setUp(w, out)
	if err != nil {
		return nil, err
	}
	r := &runner{w: w}
	warm := r.run(1, nil, nil)
	win := r.run(c.passCount(w, 1), nil, nil)
	attempted, failed := w.after()
	out.attempted = len(warm.ms) + len(win.ms) + attempted
	out.failed = warm.failed + win.failed + failed
	out.correct = out.correct && out.failed == 0

	// Rates are the median pass's: a pass that shared the box with another
	// tenant for a moment does not move them.
	n := float64(w.passLen())
	p50, tail, pct := win.latency(w.kinds())
	fmt.Fprintf(os.Stderr, "%s: %d ops in %d passes over %.2fs; op_tail_ms is p%d of %d samples\n",
		c.workload, len(win.ms), win.passes, win.wall.Seconds(), pct, len(win.ms))
	out.vals = map[string]float64{
		"setup_s":         meter.Median(setUps),
		"ops_per_s":       n / meter.Median(win.passWall),
		"op_p50_ms":       p50,
		"op_tail_ms":      tail,
		"cpu_s_per_op":    meter.Median(win.passCPU) / n,
		"alloc_mb_per_op": float64(win.alloc) / 1e6 / win.ops(),
	}
	return out, nil
}

// measureTraced is the traced run. One traced pass comes first: it is the
// model record (op numbers start at 0 in every run, so it repeats exactly)
// and settles the caches. Then the same number of passes is timed untraced
// and traced; their difference is the tracing overhead. It reports the
// driver's share of the per-layer metrics; the probe's share is merged by
// the caller.
func measureTraced(c runConfig) (*outcome, error) {
	w, err := newWorkload(c.workload)
	if err != nil {
		return nil, err
	}
	defer w.tearDown()
	out := &outcome{correct: true}
	c.setUps = 1
	if _, err := c.setUp(w, out); err != nil {
		return nil, err
	}
	r := &runner{w: w}
	rec, m := meter.NewRecorder(), newModel()
	first := r.run(1, rec, m)
	plain := r.run(c.passCount(w, 1.0/3), nil, nil)
	traced := r.run(plain.passes, rec, nil)
	attempted, failed := w.after()
	out.attempted = len(first.ms) + len(plain.ms) + len(traced.ms) + attempted
	out.failed = first.failed + plain.failed + traced.failed + failed
	out.correct = out.correct && out.failed == 0
	out.spans = rec.Spans()
	if rh, ok := w.(*replayHot); ok {
		out.replayCycles = rh.cycles
	}

	out.vals = map[string]float64{}
	for _, name := range meter.DriverLayer {
		out.vals[name] = 0 // a layer this workload does not reach
	}
	model, err := m.metrics()
	if err != nil {
		return nil, err
	}
	for name, v := range model {
		out.vals[name] = v
	}
	perOp := func(w window) float64 { return w.wall.Seconds() / w.ops() }
	out.vals["host.tracing_overhead_share"] = (perOp(traced) - perOp(plain)) / perOp(plain)
	out.vals["host.gc_cycles"] = float64(plain.gcs)
	out.vals["host.gc_pause_ms"] = float64(plain.gcPause.Nanoseconds()) / 1e6
	spanMetrics(out.spans, out.vals)
	if err := w.layer(out.vals); err != nil {
		return nil, err
	}
	out.vals["host.peak_rss_mb"] = peakRSSMB()
	fmt.Fprintf(os.Stderr, "%s: %d spans over %d traced ops; children cover %.3f of the op spans\n",
		c.workload, len(out.spans), len(first.ms)+len(traced.ms), coverage(out.spans))
	return out, nil
}

// spanMetrics reads the layer metrics that are span durations: the median
// of each named span, and for table ops the op's own time outside its cells.
func spanMetrics(spans []meter.Span, vals map[string]float64) {
	byName := map[string][]float64{}
	self := meter.SelfTimes(spans)
	tableOps := map[int]bool{}
	for _, s := range spans {
		byName[s.Name] = append(byName[s.Name], float64(s.Dur())/1e6)
		if s.Name == "imp.cell" {
			tableOps[s.Parent] = true
		}
	}
	var tableSelf []float64
	for id := range tableOps {
		tableSelf = append(tableSelf, float64(self[id])/1e6)
	}
	for metric, span := range map[string]string{
		"imp.cell_ms_p50":       "imp.cell",
		"client.submit_ms":      "client.submit",
		"client.stream_ms":      "client.stream",
		"client.result_ms":      "client.result",
		"service.queue_wait_ms": "service.queue",
		"service.exec_ms":       "service.exec",
	} {
		vals[metric] = meter.Median(byName[span])
	}
	vals["imp.table_self_ms"] = meter.Median(tableSelf)
}

// coverage is the share of the op spans' time that their children cover.
func coverage(spans []meter.Span) float64 {
	self := meter.SelfTimes(spans)
	var total, own int64
	for _, s := range spans {
		if s.Parent == 0 {
			total += s.Dur()
			own += self[s.ID]
		}
	}
	if total == 0 {
		return 0
	}
	return 1 - float64(own)/float64(total)
}
