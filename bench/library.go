package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"github.com/impsim/imp"
	"github.com/impsim/imp/bench/internal/meter"
)

// The four workloads that call the library in process. Sweeps run at
// Parallelism 2, the core count of the box the bounds were sized on.
const sweepParallelism = 2

// systemByName resolves the names the op lists are written in.
func systemByName(name string) imp.System {
	s, err := imp.ParseSystem(name)
	if err != nil {
		panic(err) // a typo in an op list
	}
	return s
}

// replayHot: one imp.RunProgram per op over traces built in set-up, so an op
// is almost entirely simulator replay.
type replayHot struct {
	e     *env
	progs []*imp.Program
	first [][]byte // each slot's first output, which every repeat must equal
	// cycles is each slot's simulated time, which the probe's layered replay
	// of the same traces must reproduce.
	cycles []int64
}

func (w *replayHot) passLen() int      { return len(meter.ReplayKernels) * len(meter.ReplaySystems) }
func (w *replayHot) kinds() int        { return w.passLen() }
func (w *replayHot) clients() int      { return 1 }
func (w *replayHot) passesPer10s() int { return 6 }
func (w *replayHot) tearDown()         {}

func (w *replayHot) setUp(e *env, rep int) error {
	w.e = e
	w.progs = w.progs[:0]
	for _, k := range meter.ReplayKernels {
		p, err := imp.BuildProgram(k, e.size.cores, e.size.scaleOr(meter.ReplayScale), false, meter.ReplaySeed(e.seed, k, rep))
		if err != nil {
			return err
		}
		w.progs = append(w.progs, p)
	}
	w.first = make([][]byte, w.passLen())
	w.cycles = make([]int64, w.passLen())
	return nil
}

func (w *replayHot) op(i int, t *opTrace) (time.Duration, error) {
	slot := i % w.passLen()
	k, sys := slot/len(meter.ReplaySystems), meter.ReplaySystems[slot%len(meter.ReplaySystems)]
	end := t.span("imp.run_program")
	t0 := time.Now()
	res, err := imp.RunProgram(w.progs[k], imp.Config{Cores: w.e.size.cores, System: systemByName(sys)})
	d := time.Since(t0)
	end()
	if err != nil {
		return d, err
	}
	data, err := json.Marshal(res)
	if err != nil {
		return d, err
	}
	if w.first[slot] == nil {
		w.first[slot], w.cycles[slot] = data, res.Cycles
	} else if !bytes.Equal(data, w.first[slot]) {
		return d, fmt.Errorf("replay-hot slot %d: a repeat differs from the first run", slot)
	}
	t.cell(cell{
		kernel: meter.ReplayKernels[k], system: sys, cycles: res.Cycles,
		accesses: res.Metrics.TotalAccesses(), flitHops: res.NoCFlitHops, dramBytes: res.DRAMBytes,
	})
	t.result(data)
	return d, nil
}

func (w *replayHot) after() (int, int)              { return 0, 0 }
func (w *replayHot) layer(map[string]float64) error { return nil }

// runTable is the op of both table workloads: one imp.Experiments.Run. The
// traced form adds a progress callback, which yields one imp.cell span per
// simulated cell and, in the first pass, the cell's cycles for the model.
func runTable(e *env, id string, scale float64, opt imp.RunOptions, t *opTrace) (time.Duration, []byte, error) {
	eo := imp.ExpOptions{Cores: e.size.cores, Scale: e.size.scaleOr(scale), Workloads: e.size.kernels, RunOptions: opt}
	eo.Parallelism = sweepParallelism
	if t != nil {
		eo.OnProgress = func(ev imp.ProgressEvent) {
			now := time.Now()
			t.phase("imp.cell", now.Add(-ev.Elapsed), now)
			t.cell(cell{
				point: ev.Point, kernel: ev.Workload, system: ev.System.String(), cycles: ev.Cycles,
				cores: eo.Cores, scale: eo.Scale, seed: imp.ExpSeed(eo.Seed, ev.Workload),
			})
		}
	}
	t0 := time.Now()
	tbl, err := imp.Experiments.Run(id, eo)
	d := time.Since(t0)
	if err != nil {
		return d, nil, err
	}
	data, err := tbl.JSON()
	t.result(data)
	return d, data, err
}

// tablesCold: a researcher's first run of a table. Every op has a seed no op
// before it had, so each trace is generated, encoded into the (empty) trace
// cache, and every cell is built and replayed.
type tablesCold struct {
	e     *env
	first []byte
}

var coldTables = []string{"fig2", "table3", "fig9", "fig13"}

const coldScale = 0.05

func (w *tablesCold) passLen() int      { return len(coldTables) }
func (w *tablesCold) kinds() int        { return w.passLen() }
func (w *tablesCold) clients() int      { return 1 }
func (w *tablesCold) passesPer10s() int { return 7 }
func (w *tablesCold) tearDown()         {}

func (w *tablesCold) setUp(e *env, rep int) error {
	w.e = e
	return nil
}

func (w *tablesCold) run(i int, t *opTrace) (time.Duration, []byte, error) {
	opt := imp.RunOptions{Seed: meter.SubSeed(w.e.seed, "tables-cold", i)}
	return runTable(w.e, coldTables[i%len(coldTables)], coldScale, opt, t)
}

func (w *tablesCold) op(i int, t *opTrace) (time.Duration, error) {
	d, data, err := w.run(i, t)
	if i == 0 {
		w.first = data
	}
	return d, err
}

// after repeats op 0, now from cached traces, and wants the same bytes.
func (w *tablesCold) after() (int, int) {
	_, data, err := w.run(0, nil)
	if err != nil || !bytes.Equal(data, w.first) {
		fmt.Fprintf(os.Stderr, "tables-cold: the repeat of op 0 differs from op 0 (err %v)\n", err)
		return 1, 1
	}
	return 1, 0
}

func (w *tablesCold) layer(map[string]float64) error { return nil }

// tablesWarm: the same call with checkpointing on and the checkpoint cache
// filled in set-up, so every cell is a restore and a finish, not a replay.
type tablesWarm struct {
	e    *env
	opt  imp.RunOptions
	want [][]byte // each table as set-up computed it
	base imp.CheckpointStats
}

var warmTables = []string{"fig2", "table3", "fig9", "fig11", "fig14"}

// warmScale is below the 0.15 the issue sketched: a restore costs the same
// at any scale, but filling the cache three times over has to fit set-up.
const warmScale = 0.05

func (w *tablesWarm) passLen() int      { return len(warmTables) }
func (w *tablesWarm) kinds() int        { return w.passLen() }
func (w *tablesWarm) clients() int      { return 1 }
func (w *tablesWarm) passesPer10s() int { return 40 }
func (w *tablesWarm) tearDown()         {}

func (w *tablesWarm) setUp(e *env, rep int) error {
	w.e = e
	w.opt = imp.RunOptions{
		Seed:        meter.SubSeed(e.seed, "tables-warm", rep),
		Checkpoints: imp.CheckpointPolicy{Enabled: true},
	}
	w.want = w.want[:0]
	for _, id := range warmTables {
		_, data, err := runTable(e, id, warmScale, w.opt, nil)
		if err != nil {
			return err
		}
		w.want = append(w.want, data)
	}
	w.base = imp.GetCheckpointStats()
	return nil
}

func (w *tablesWarm) op(i int, t *opTrace) (time.Duration, error) {
	slot := i % len(warmTables)
	d, data, err := runTable(w.e, warmTables[slot], warmScale, w.opt, t)
	if err == nil && !bytes.Equal(data, w.want[slot]) {
		err = fmt.Errorf("tables-warm: %s forked from checkpoints differs from set-up's", warmTables[slot])
	}
	return d, err
}

// after computes table3 with checkpointing off and wants the forked bytes.
func (w *tablesWarm) after() (int, int) {
	_, data, err := runTable(w.e, "table3", warmScale, imp.RunOptions{Seed: w.opt.Seed}, nil)
	if err != nil || !bytes.Equal(data, w.want[1]) {
		fmt.Fprintf(os.Stderr, "tables-warm: table3 cold differs from table3 forked (err %v)\n", err)
		return 1, 1
	}
	return 1, 0
}

func (w *tablesWarm) layer(vals map[string]float64) error {
	st := imp.GetCheckpointStats()
	vals["ckptcache.hits"] = float64(st.Hits - w.base.Hits)
	vals["ckptcache.misses"] = float64(st.Misses - w.base.Misses)
	vals["ckptcache.cycles_saved"] = float64(st.PrefixCyclesSaved - w.base.PrefixCyclesSaved)
	return nil
}

// traceStream: a trace written to a file, read back whole, and replayed
// streaming from the file — the trace codec's three paths in one op.
type traceStream struct {
	e     *env
	progs []*imp.Program
	want  [][]byte // each trace's in-memory replay, which the streamed one must equal
}

// Three kinds of op, so that the median op is one of the middle kind and not
// the mean of two kinds.
var streamKernels = []string{"graph500", "symgs", "spmv"}

const streamScale = 0.15

func (w *traceStream) passLen() int      { return len(streamKernels) }
func (w *traceStream) kinds() int        { return w.passLen() }
func (w *traceStream) clients() int      { return 1 }
func (w *traceStream) passesPer10s() int { return 22 }
func (w *traceStream) tearDown()         {}

func (w *traceStream) cfg() imp.Config {
	return imp.Config{Cores: w.e.size.cores, System: imp.SystemBaseline}
}

func (w *traceStream) setUp(e *env, rep int) error {
	w.e = e
	w.progs, w.want = w.progs[:0], w.want[:0]
	for _, k := range streamKernels {
		p, err := imp.BuildProgram(k, e.size.cores, e.size.scaleOr(streamScale), false, meter.SubSeed(e.seed, "trace-stream/"+k, rep))
		if err != nil {
			return err
		}
		res, err := imp.RunProgram(p, w.cfg())
		if err != nil {
			return err
		}
		data, err := json.Marshal(res)
		if err != nil {
			return err
		}
		w.progs, w.want = append(w.progs, p), append(w.want, data)
	}
	return nil
}

func (w *traceStream) op(i int, t *opTrace) (time.Duration, error) {
	slot := i % len(streamKernels)
	path := filepath.Join(w.e.tmp, fmt.Sprintf("stream-%d.imptrace", slot))
	t0 := time.Now()
	end := t.span("trace.encode")
	err := w.progs[slot].WriteFile(path)
	end()
	if err != nil {
		return time.Since(t0), err
	}
	end = t.span("trace.decode")
	back, err := imp.ReadProgramFile(path)
	end()
	if err != nil {
		return time.Since(t0), err
	}
	end = t.span("trace.stream_replay")
	res, err := imp.RunTraceFile(path, w.cfg())
	end()
	d := time.Since(t0)
	if err != nil {
		return d, err
	}
	data, err := json.Marshal(res)
	if err != nil {
		return d, err
	}
	if back.Accesses() != w.progs[slot].Accesses() || !bytes.Equal(data, w.want[slot]) {
		return d, fmt.Errorf("trace-stream: %s streamed from its file differs from the in-memory replay", streamKernels[slot])
	}
	t.cell(cell{
		kernel: streamKernels[slot], system: "base", cycles: res.Cycles,
		accesses: res.Metrics.TotalAccesses(), flitHops: res.NoCFlitHops, dramBytes: res.DRAMBytes,
	})
	t.result(data)
	return d, nil
}

func (w *traceStream) after() (int, int)              { return 0, 0 }
func (w *traceStream) layer(map[string]float64) error { return nil }
