package main

import (
	"fmt"
	"time"

	"github.com/impsim/imp/bench/internal/meter"
)

// env is what one run gives its workload: the input seed, the input size,
// and a scratch directory of its own that is removed when the run ends. The
// trace cache, the checkpoint cache and every results dir live under tmp,
// never in the user's caches, so a cold workload is cold on every run.
type env struct {
	seed int64
	size size
	tmp  string
}

// size is the input size. Full size is 16 cores at each workload's own
// scale; the test smoke pass overrides both with the golden-check size.
type size struct {
	cores   int
	scale   float64  // 0: the workload's own
	kernels []string // tables' kernels; nil: each table's own
}

var fullSize = size{cores: 16}

func (s size) scaleOr(own float64) float64 {
	if s.scale > 0 {
		return s.scale
	}
	return own
}

// workload is one closed-loop op list. The runner sets it up, issues whole
// passes over the list from clients() goroutines, and tears it down.
type workload interface {
	// setUp does everything that precedes the timed window. The runner
	// repeats it (tearing down in between) to report a median set-up time,
	// so repetition rep must not find work a previous one left in a
	// process-wide cache: inputs are seeded per repetition.
	setUp(e *env, rep int) error
	// passLen is the number of ops in one pass over the op list.
	passLen() int
	// kinds is the number of kinds of op in the list; op i is of kind
	// i%kinds. Ops of one kind cost about the same, ops of different kinds
	// need not.
	kinds() int
	// clients is the number of goroutines issuing ops.
	clients() int
	// passesPer10s is how many passes a ten-second window holds, sized on
	// the two-core box the bounds were taken on.
	passesPer10s() int
	// op runs op i (slot i%passLen of pass i/passLen), checks its output and
	// returns the time of the public call that is the op. t is nil with
	// tracing off.
	op(i int, t *opTrace) (time.Duration, error)
	// after runs the cross-checks that follow the window and reports how
	// many it made and how many failed.
	after() (attempted, failed int)
	// layer adds the workload's own per-layer values (counts read from the
	// program's public stats) after a traced run.
	layer(vals map[string]float64) error
	tearDown()
}

// workloadNames lists every workload, in the order the every-workload run
// takes them. BENCHMARK.json declares the ones its gate times.
var workloadNames = []string{"replay-hot", "tables-cold", "tables-warm", "trace-stream", "serve-cold", "serve-warm"}

func newWorkload(name string) (workload, error) {
	switch name {
	case "replay-hot":
		return &replayHot{}, nil
	case "tables-cold":
		return &tablesCold{}, nil
	case "tables-warm":
		return &tablesWarm{}, nil
	case "trace-stream":
		return &traceStream{}, nil
	case "serve-cold":
		return &serve{cold: true}, nil
	case "serve-warm":
		return &serve{}, nil
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}

// opTrace is the traced form's handle on one op: spans go under the op's
// span, and during the first pass the simulated outcome of each cell goes to
// the model record. All methods are no-ops on nil, so an op is written once.
type opTrace struct {
	rec  *meter.Recorder
	id   int // the op's span
	op   int
	slot int
	m    *model // nil after the first pass
}

// span opens a child of the op span and returns the call that closes it.
func (t *opTrace) span(name string) func() {
	if t == nil {
		return func() {}
	}
	id := t.rec.Start(name, t.id, t.op)
	return func() { t.rec.End(id) }
}

// phase records a child span from two timestamps taken elsewhere; a phase
// that never started (a cached job has no execution) is skipped.
func (t *opTrace) phase(name string, start, end time.Time) {
	if t == nil || start.IsZero() || end.IsZero() {
		return
	}
	t.rec.Add(name, t.id, t.op, start, end)
}

// cell hands one simulated cell of a first-pass op to the model record.
func (t *opTrace) cell(c cell) {
	if t != nil && t.m != nil {
		t.m.addCell(t.slot, c)
	}
}

// result hands a first-pass op's output bytes to the model record.
func (t *opTrace) result(data []byte) {
	if t != nil && t.m != nil {
		t.m.addResult(t.slot, data)
	}
}
