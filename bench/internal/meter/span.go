// Package meter holds what the benchmark driver (bench) and the layer probe
// (bench/probe) share: the in-memory span recorder, the order statistics the
// reported numbers use, and the result record both print.
package meter

import (
	"encoding/json"
	"io"
	"sort"
	"sync"
	"time"
)

// Span is one timed interval at a layer boundary. Start and End are
// nanoseconds since the recorder was made; Parent is the ID of the span that
// caused it (0 for an op span), and every span of one op carries that op's
// number.
type Span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Op     int    `json:"op"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// Dur is the span's length in nanoseconds.
func (s Span) Dur() int64 { return s.End - s.Start }

// Recorder keeps spans in memory until the run ends. It is safe for the
// concurrent use the two-client workloads make of it.
type Recorder struct {
	t0    time.Time
	mu    sync.Mutex
	spans []Span
}

// NewRecorder starts the recorder's clock.
func NewRecorder() *Recorder { return &Recorder{t0: time.Now()} }

// Start opens a span and returns its ID for End and for children's Parent.
func (r *Recorder) Start(name string, parent, op int) int {
	now := time.Since(r.t0).Nanoseconds()
	r.mu.Lock()
	defer r.mu.Unlock()
	r.spans = append(r.spans, Span{ID: len(r.spans) + 1, Parent: parent, Op: op, Name: name, Start: now, End: now})
	return len(r.spans)
}

// End closes the span Start returned.
func (r *Recorder) End(id int) {
	now := time.Since(r.t0).Nanoseconds()
	r.mu.Lock()
	r.spans[id-1].End = now
	r.mu.Unlock()
}

// Add records a span whose interval is known only afterwards, such as a
// cell reported by a progress event or a phase read from a job's timestamps.
func (r *Recorder) Add(name string, parent, op int, start, end time.Time) int {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.spans = append(r.spans, Span{
		ID: len(r.spans) + 1, Parent: parent, Op: op, Name: name,
		Start: start.Sub(r.t0).Nanoseconds(), End: end.Sub(r.t0).Nanoseconds(),
	})
	return len(r.spans)
}

// Spans returns a copy of everything recorded so far.
func (r *Recorder) Spans() []Span {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]Span(nil), r.spans...)
}

// SelfTimes maps each span's ID to its duration minus the part of that
// interval its child spans cover. Children that run side by side (cells of a
// two-worker sweep) or overhang the parent are counted once and clipped.
func SelfTimes(spans []Span) map[int]int64 {
	children := map[int][]Span{}
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	self := make(map[int]int64, len(spans))
	for _, s := range spans {
		self[s.ID] = s.Dur() - covered(s, children[s.ID])
	}
	return self
}

// covered is the length of the union of kids' intervals inside parent.
func covered(parent Span, kids []Span) int64 {
	sort.Slice(kids, func(i, j int) bool { return kids[i].Start < kids[j].Start })
	var total int64
	edge := parent.Start
	for _, k := range kids {
		lo, hi := max(k.Start, edge), min(k.End, parent.End)
		if hi > lo {
			total += hi - lo
			edge = hi
		}
	}
	return total
}

// WriteJSONL writes one span per line.
func WriteJSONL(w io.Writer, workload string, spans []Span) error {
	enc := json.NewEncoder(w)
	for _, s := range spans {
		line := struct {
			Workload string `json:"workload"`
			Span
		}{workload, s}
		if err := enc.Encode(line); err != nil {
			return err
		}
	}
	return nil
}
