package sim

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"

	"github.com/impsim/imp/internal/cache"
	"github.com/impsim/imp/internal/dram"
	"github.com/impsim/imp/internal/prefetch"
	"github.com/impsim/imp/internal/snap"
	"github.com/impsim/imp/internal/trace"
)

// SnapshotFormatVersion is the encoding version of everything sealed in the
// "IMPS" envelope: the machine state System.Snapshot writes and the finished
// metrics SealMetrics writes. Restore and OpenMetrics reject any other
// version; bump it whenever any component's snapshot layout changes.
const SnapshotFormatVersion = 1

var snapshotMagic = [4]byte{'I', 'M', 'P', 'S'}

// ErrSnapshotVersion is returned (wrapped) when a snapshot was written by an
// incompatible format version.
var ErrSnapshotVersion = errors.New("unsupported snapshot format version")

// ErrSnapshotKind is returned (wrapped) when an envelope holds the other kind
// of blob: a machine handed to OpenMetrics, or metrics handed to Restore.
var ErrSnapshotKind = errors.New("wrong kind of snapshot blob")

// BlobKind says what an envelope holds. It is the header's flags byte.
type BlobKind uint8

const (
	// BlobMachine is a whole machine's state: Snapshot writes it, Restore
	// reads it.
	BlobMachine BlobKind = iota
	// BlobMetrics is a finished run's Metrics: SealMetrics writes it,
	// OpenMetrics reads it.
	BlobMetrics
)

func (k BlobKind) String() string {
	switch k {
	case BlobMachine:
		return "machine snapshot"
	case BlobMetrics:
		return "finished-run metrics"
	}
	return fmt.Sprintf("unknown blob kind %d", uint8(k))
}

// snapshotHeaderLen is magic + u16 version + kind + reserved; the trailer
// is a u32 CRC, mirroring the binary trace envelope.
const snapshotHeaderLen = 8

// IsSnapshot reports whether data begins with the simulator snapshot magic,
// and if so which format version wrote it and which kind of blob it holds.
// It never reads past the header, so it is safe to call on an arbitrary file
// prefix.
func IsSnapshot(data []byte) (version uint16, kind BlobKind, ok bool) {
	if len(data) < snapshotHeaderLen || [4]byte(data[:4]) != snapshotMagic {
		return 0, 0, false
	}
	return binary.LittleEndian.Uint16(data[4:6]), BlobKind(data[6]), true
}

// seal wraps payload in the envelope: magic, u16 format version, kind,
// reserved, payload, CRC-32 trailer.
func seal(kind BlobKind, payload []byte) []byte {
	out := make([]byte, 0, snapshotHeaderLen+len(payload)+4)
	out = append(out, snapshotMagic[:]...)
	out = binary.LittleEndian.AppendUint16(out, SnapshotFormatVersion)
	out = append(out, byte(kind), 0)
	out = append(out, payload...)
	return binary.LittleEndian.AppendUint32(out, crc32.ChecksumIEEE(out))
}

// open checks data's envelope — length, magic, version, kind, CRC — and
// returns the payload, which aliases data.
func open(kind BlobKind, data []byte) ([]byte, error) {
	if len(data) < snapshotHeaderLen+4 {
		return nil, fmt.Errorf("sim: snapshot truncated (%d bytes)", len(data))
	}
	ver, got, ok := IsSnapshot(data)
	if !ok {
		return nil, fmt.Errorf("sim: bad magic %q (not an IMP snapshot)", data[:4])
	}
	if ver != SnapshotFormatVersion {
		return nil, fmt.Errorf("sim: %w: snapshot has %d, this build reads %d",
			ErrSnapshotVersion, ver, SnapshotFormatVersion)
	}
	if got != kind {
		return nil, fmt.Errorf("sim: %w: holds %v, want %v", ErrSnapshotKind, got, kind)
	}
	body := data[: len(data)-4 : len(data)-4]
	want := binary.LittleEndian.Uint32(data[len(data)-4:])
	if sum := crc32.ChecksumIEEE(body); sum != want {
		return nil, fmt.Errorf("sim: snapshot CRC mismatch (got %08x, want %08x)", sum, want)
	}
	return body[snapshotHeaderLen:], nil
}

// System is a simulator instance under explicit control: run part of the
// trace, snapshot the architectural state, restore it into a fresh instance,
// resume. Run and RunSource stay the one-shot path, and the one sweeps take:
// a sweep remembers a finished cell by its metrics (SealMetrics), not by its
// machine. System is what a mid-run fork point would be cut with, and its
// snapshot bytes are the state oracle of the storage-recycling tests.
type System struct {
	s        *system
	finished bool
}

// New builds a controllable simulator over src, applying the same
// validation as RunSource.
func New(src trace.Source, cfg Config) (*System, error) {
	if err := validateRun(src, cfg); err != nil {
		return nil, err
	}
	return &System{s: build(src, cfg, false)}, nil
}

// validateRun is the shared precondition check for RunSource, New and
// Restore.
func validateRun(src trace.Source, cfg Config) error {
	if err := cfg.Validate(); err != nil {
		return err
	}
	if src.Cores() != cfg.Cores {
		return fmt.Errorf("sim: program traced for %d cores, config has %d", src.Cores(), cfg.Cores)
	}
	return src.Validate()
}

// RunUntil advances the simulation until the globally earliest runnable core
// has consumed at least records trace records, or the run completes. Events
// are processed in exactly the order an uninterrupted run would process
// them — RunUntil executes a strict prefix of that sequence and stops before
// the first step past the limit — so RunUntil followed by Finish is
// byte-identical to a single Run, and so is a Snapshot/Restore cut here.
func (y *System) RunUntil(records int) error {
	if y.finished {
		return errors.New("sim: system already finished")
	}
	y.s.runUntil(records)
	if y.s.streamErr != nil {
		return fmt.Errorf("sim: record stream: %w", y.s.streamErr)
	}
	return nil
}

// Finish runs the simulation to completion and returns the metrics. The
// system cannot be snapshotted afterwards: metric finalization folds
// residual per-tile state (in-flight prefetches, IMP counters) into the
// totals, and the simulated machine's storage is surrendered for reuse by
// later systems. The returned Metrics is an independent copy that no later
// run can touch.
func (y *System) Finish() (*Metrics, error) {
	if y.finished {
		return nil, errors.New("sim: system already finished")
	}
	y.s.run()
	if y.s.streamErr != nil {
		return nil, fmt.Errorf("sim: record stream: %w", y.s.streamErr)
	}
	y.finished = true
	m := y.s.collect()
	y.s.release()
	return m, nil
}

// Cycles reports the simulated time reached so far: the maximum tile
// clock. Callers restoring a checkpoint read it to account for the cycles
// they did not have to re-simulate.
func (y *System) Cycles() int64 {
	var m int64
	for _, t := range y.s.tiles {
		if t.time > m {
			m = t.time
		}
	}
	return m
}

// Snapshot serializes the full architectural state — tile clocks and
// cursors, L1/L2 contents, directory, NoC and DRAM timing state, prefetcher
// tables, pipeline windows, accumulated metrics — into a self-contained
// versioned envelope (see seal; the binary trace format's discipline). The
// trace itself is not embedded; Restore reattaches to an equivalent Source.
func (y *System) Snapshot() ([]byte, error) {
	if y.finished {
		return nil, errors.New("sim: system already finished")
	}
	s := y.s
	if s.streamErr != nil {
		return nil, fmt.Errorf("sim: record stream: %w", s.streamErr)
	}
	w := snap.NewWriter(1 << 16)
	if err := s.snapshot(w); err != nil {
		return nil, err
	}
	return seal(BlobMachine, w.Data()), nil
}

// Restore builds a fresh system over (src, cfg) and overlays a state written
// by Snapshot. The source and config must be equivalent to the ones the
// snapshot was taken under; mismatches are detected where possible (core
// count, prefetcher kind, table geometries) but equivalence of the trace
// itself is the caller's contract — content-addressed checkpoint keys cover
// it at the caching layer.
func Restore(src trace.Source, cfg Config, data []byte) (*System, error) {
	if err := validateRun(src, cfg); err != nil {
		return nil, err
	}
	payload, err := open(BlobMachine, data)
	if err != nil {
		return nil, err
	}
	s := build(src, cfg, true)
	r := snap.NewReader(payload)
	if err := s.restore(r); err != nil {
		// Half-overwritten storage is fit to recycle: every build cleans or
		// overwrites what it takes.
		s.release()
		return nil, err
	}
	return &System{s: s}, nil
}

// snapshot appends the system's full state to w.
func (s *system) snapshot(w *snap.Writer) error {
	w.Int(len(s.tiles))
	w.U8(uint8(s.cfg.Prefetcher))
	snapMetrics(w, &s.met)
	w.Int(s.arrivedCount)
	w.I64(s.maxArrival)
	s.mesh.Snapshot(w)
	ds, ok := s.mem.(dram.Snapshotter)
	if !ok {
		return fmt.Errorf("sim: DRAM model %T cannot snapshot", s.mem)
	}
	ds.Snapshot(w)
	for _, c := range s.l2 {
		c.Snapshot(w)
	}
	for _, d := range s.dir {
		d.Snapshot(w)
	}
	for _, t := range s.tiles {
		w.I64(t.time)
		w.Int(t.pos)
		w.U64(t.instr)
		w.Bool(t.done)
		w.Bool(t.waiting)
		w.I64(t.arrival)
		w.Int(t.perfAhead)
		w.Int(len(t.inflight))
		for _, pf := range t.inflight {
			w.U64(pf.line)
			w.I64(pf.complete)
			w.U8(uint8(pf.mask))
			w.U8(uint8(pf.state))
		}
		t.l1.Snapshot(w)
		t.pipe.Snapshot(w)
		switch p := t.pf.(type) {
		case nil: // PrefetchNone carries no state
		case *chainedPrefetcher:
			p.a.(prefetch.Snapshotter).Snapshot(w)
			p.b.(prefetch.Snapshotter).Snapshot(w)
		case prefetch.Snapshotter:
			p.Snapshot(w)
		default:
			return fmt.Errorf("sim: prefetcher %T cannot snapshot", t.pf)
		}
	}
	// The scheduling heap's exact array layout is architectural state: pop
	// order (hence simulated contention) depends on it once entries go
	// stale — a barrier release re-pushes the last arriver, leaving a
	// duplicate whose stored position outlives its clock. Serialize it
	// verbatim as tile ids.
	w.Bool(s.started)
	w.Int(len(s.h))
	for _, t := range s.h {
		w.Int(t.id)
	}
	return nil
}

// restore overlays a state written by snapshot onto a freshly built system.
func (s *system) restore(r *snap.Reader) error {
	if n := r.Int(); n != len(s.tiles) {
		if r.Err() != nil {
			return r.Err()
		}
		return fmt.Errorf("sim: snapshot has %d cores, config has %d", n, len(s.tiles))
	}
	if k := PrefetcherKind(r.U8()); k != s.cfg.Prefetcher {
		if r.Err() != nil {
			return r.Err()
		}
		return fmt.Errorf("sim: snapshot taken with prefetcher %v, config has %v", k, s.cfg.Prefetcher)
	}
	restoreMetrics(r, &s.met)
	s.arrivedCount = r.Int()
	s.maxArrival = r.I64()
	if err := s.mesh.Restore(r); err != nil {
		return err
	}
	ds, ok := s.mem.(dram.Snapshotter)
	if !ok {
		return fmt.Errorf("sim: DRAM model %T cannot restore", s.mem)
	}
	if err := ds.Restore(r); err != nil {
		return err
	}
	for _, c := range s.l2 {
		if err := c.Restore(r); err != nil {
			return err
		}
	}
	for _, d := range s.dir {
		if err := d.Restore(r); err != nil {
			return err
		}
	}
	for _, t := range s.tiles {
		t.time = r.I64()
		t.pos = r.Int()
		t.instr = r.U64()
		t.done = r.Bool()
		t.waiting = r.Bool()
		t.arrival = r.I64()
		t.perfAhead = r.Int()
		n := r.Count(4) // line + complete + mask + state
		if r.Err() != nil {
			return r.Err()
		}
		t.inflight = t.inflight[:0]
		for i := 0; i < n; i++ {
			t.inflight = append(t.inflight, inflightPF{
				line:     r.U64(),
				complete: r.I64(),
				mask:     cache.SectorMask(r.U8()),
				state:    cache.State(r.U8()),
			})
		}
		if err := t.l1.Restore(r); err != nil {
			return err
		}
		if err := t.pipe.Restore(r); err != nil {
			return err
		}
		switch p := t.pf.(type) {
		case nil:
		case *chainedPrefetcher:
			if err := p.a.(prefetch.Snapshotter).Restore(r); err != nil {
				return err
			}
			if err := p.b.(prefetch.Snapshotter).Restore(r); err != nil {
				return err
			}
		case prefetch.Snapshotter:
			if err := p.Restore(r); err != nil {
				return err
			}
		default:
			return fmt.Errorf("sim: prefetcher %T cannot restore", t.pf)
		}
		if t.pos > 0 {
			if err := advanceStream(t.stream, t.pos); err != nil {
				return fmt.Errorf("sim: core %d: reposition stream: %w", t.id, err)
			}
		}
	}
	s.started = r.Bool()
	hn := r.Count(1) // one varint tile id per entry
	if r.Err() != nil {
		return r.Err()
	}
	s.h = s.h[:0]
	for i := 0; i < hn; i++ {
		id := r.Int()
		if id < 0 || id >= len(s.tiles) {
			if r.Err() != nil {
				return r.Err()
			}
			return fmt.Errorf("sim: snapshot heap entry %d out of range", id)
		}
		s.h = append(s.h, s.tiles[id])
	}
	if r.Err() != nil {
		return r.Err()
	}
	if r.Remaining() != 0 {
		return fmt.Errorf("sim: snapshot has %d trailing bytes", r.Remaining())
	}
	return nil
}

// advanceStream consumes n records from a freshly opened stream, honoring
// the RecordStream contract that Advance may not outrun the last Window.
func advanceStream(st trace.RecordStream, n int) error {
	for n > 0 {
		win := st.Window(n)
		if len(win) == 0 {
			if err := st.Err(); err != nil {
				return err
			}
			return fmt.Errorf("stream ends %d records before snapshot position", n)
		}
		st.Advance(len(win))
		n -= len(win)
	}
	return st.Err()
}

// SealMetrics encodes a finished run's metrics, every field of them, in the
// snapshot envelope. A checkpointed sweep stores this in place of the run:
// the metrics are all a finished cell is ever asked for.
func SealMetrics(m *Metrics) []byte {
	w := snap.NewWriter(256)
	snapFinished(w, m)
	return seal(BlobMetrics, w.Data())
}

// OpenMetrics decodes what SealMetrics wrote for a run on cores cores. Any
// blob it does not accept — truncated, altered, of another format version,
// a machine snapshot (ErrSnapshotKind), of another core count — is an error.
func OpenMetrics(data []byte, cores int) (*Metrics, error) {
	payload, err := open(BlobMetrics, data)
	if err != nil {
		return nil, err
	}
	m := new(Metrics)
	if err := restoreFinished(snap.NewReader(payload), m, cores); err != nil {
		return nil, err
	}
	return m, nil
}

// snapFinished appends what collect returned: the accumulated fields and the
// per-core finish times.
func snapFinished(w *snap.Writer, m *Metrics) {
	w.Int(len(m.PerCoreCycles))
	for _, c := range m.PerCoreCycles {
		w.I64(c)
	}
	snapMetrics(w, m)
}

func restoreFinished(r *snap.Reader, m *Metrics, cores int) error {
	n := r.Count(1) // one varint per core
	if r.Err() != nil {
		return r.Err()
	}
	if n != cores {
		return fmt.Errorf("sim: stored metrics are of a %d-core run, config has %d", n, cores)
	}
	m.PerCoreCycles = make([]int64, n)
	for i := range m.PerCoreCycles {
		m.PerCoreCycles[i] = r.I64()
	}
	restoreMetrics(r, m)
	if r.Err() != nil {
		return r.Err()
	}
	if r.Remaining() != 0 {
		return fmt.Errorf("sim: stored metrics have %d trailing bytes", r.Remaining())
	}
	return nil
}

// snapMetrics appends every field a run accumulates. PerCoreCycles is not
// one: collect produces it at the end of a run (snapFinished carries it).
func snapMetrics(w *snap.Writer, m *Metrics) {
	w.I64(m.Cycles)
	w.U64(m.Instructions)
	w.I64(m.SpinCycles)
	for i := range m.Kind {
		k := &m.Kind[i]
		w.U64(k.Accesses)
		w.U64(k.Misses)
		w.U64(k.CoveredMisses)
		w.U64(k.LateCovered)
		w.I64(k.StallCycles)
		w.I64(k.TotalLatency)
	}
	w.U64(m.PrefetchesIssued)
	w.U64(m.PrefetchesUsed)
	w.U64(m.PrefetchesDropped)
	w.U64(m.PrefetchesWasted)
	w.U64(m.NoCFlitHops)
	w.U64(m.NoCDataBytes)
	w.U64(m.DRAMAccesses)
	w.U64(m.DRAMBytes)
	w.U64(m.Invalidations)
	w.U64(m.Broadcasts)
	w.U64(m.IMPPatterns)
	w.U64(m.IMPSecondary)
	w.U64(m.IMPIndirect)
	w.I64(m.Fetch.N)
	w.I64(m.Fetch.ReqNoC)
	w.I64(m.Fetch.L2Wait)
	w.I64(m.Fetch.Dram)
	w.I64(m.Fetch.Coh)
	w.I64(m.Fetch.Resp)
}

func restoreMetrics(r *snap.Reader, m *Metrics) {
	m.Cycles = r.I64()
	m.Instructions = r.U64()
	m.SpinCycles = r.I64()
	for i := range m.Kind {
		k := &m.Kind[i]
		k.Accesses = r.U64()
		k.Misses = r.U64()
		k.CoveredMisses = r.U64()
		k.LateCovered = r.U64()
		k.StallCycles = r.I64()
		k.TotalLatency = r.I64()
	}
	m.PrefetchesIssued = r.U64()
	m.PrefetchesUsed = r.U64()
	m.PrefetchesDropped = r.U64()
	m.PrefetchesWasted = r.U64()
	m.NoCFlitHops = r.U64()
	m.NoCDataBytes = r.U64()
	m.DRAMAccesses = r.U64()
	m.DRAMBytes = r.U64()
	m.Invalidations = r.U64()
	m.Broadcasts = r.U64()
	m.IMPPatterns = r.U64()
	m.IMPSecondary = r.U64()
	m.IMPIndirect = r.U64()
	m.Fetch.N = r.I64()
	m.Fetch.ReqNoC = r.I64()
	m.Fetch.L2Wait = r.I64()
	m.Fetch.Dram = r.I64()
	m.Fetch.Coh = r.I64()
	m.Fetch.Resp = r.I64()
}
