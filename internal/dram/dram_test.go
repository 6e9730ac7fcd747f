package dram

import (
	"bytes"
	"runtime/debug"
	"testing"
	"testing/quick"

	"github.com/impsim/imp/internal/recycle"
	"github.com/impsim/imp/internal/snap"
)

func TestMCForLineInterleaves(t *testing.T) {
	counts := make([]int, 8)
	for line := uint64(0); line < 8000; line++ {
		mc := MCForLine(line, 8)
		if mc < 0 || mc >= 8 {
			t.Fatalf("MCForLine(%d, 8) = %d out of range", line, mc)
		}
		counts[mc]++
	}
	for mc, n := range counts {
		if n != 1000 {
			t.Errorf("MC %d received %d lines, want 1000", mc, n)
		}
	}
}

func TestClampTransfer(t *testing.T) {
	cases := []struct{ in, want int }{
		{0, 32}, {8, 32}, {31, 32}, {32, 32}, {33, 33}, {64, 64}, {100, 64},
	}
	for _, c := range cases {
		if got := ClampTransfer(c.in); got != c.want {
			t.Errorf("ClampTransfer(%d) = %d, want %d", c.in, got, c.want)
		}
	}
}

func TestDDR3RowHitFasterThanMiss(t *testing.T) {
	d := NewDDR3(DefaultDDR3Config(1))
	// First access opens a row (row empty: tRCD+tCAS).
	t0 := d.Access(0, 0, 0, 64)
	// Same row (consecutive line within the 8KB row): row hit, tCAS only.
	t1 := d.Access(t0, 0, 8, 64) - t0
	// Different row on the same bank: precharge + activate + CAS.
	farLine := uint64(8 * 128 * 100) // bank 0, a different row
	t2 := d.Access(t0+t1, 0, farLine, 64) - (t0 + t1)
	if !(t1 < t0 && t0 < t2) {
		t.Errorf("latency ordering: empty=%d hit=%d conflict=%d; want hit < empty < conflict", t0, t1, t2)
	}
	st := d.Stats()
	if st.RowHits != 1 || st.RowMisses != 2 {
		t.Errorf("row hits/misses = %d/%d, want 1/2", st.RowHits, st.RowMisses)
	}
}

func TestDDR3BankParallelism(t *testing.T) {
	d := NewDDR3(DefaultDDR3Config(1))
	// Two requests to different banks at the same time should overlap:
	// the second finishes well before 2x a single access.
	single := NewDDR3(DefaultDDR3Config(1)).Access(0, 0, 0, 64)
	d.Access(0, 0, 0, 64) // bank 0
	t2 := d.Access(0, 0, 1, 64)
	if t2 >= 2*single {
		t.Errorf("bank-parallel access finished at %d, want < %d", t2, 2*single)
	}
}

func TestDDR3SameBankSerializes(t *testing.T) {
	d := NewDDR3(DefaultDDR3Config(1))
	t1 := d.Access(0, 0, 0, 64)
	t2 := d.Access(0, 0, 0, 64) // same line: row hit but bank+bus busy
	if t2 <= t1 {
		t.Errorf("same-bank back-to-back: second %d not after first %d", t2, t1)
	}
}

func TestDDR3PartialTransferSavesBusTime(t *testing.T) {
	// Saturate one bank with row hits; partial transfers should sustain
	// higher request throughput because the bus frees earlier.
	full := NewDDR3(DefaultDDR3Config(1))
	part := NewDDR3(DefaultDDR3Config(1))
	var tFull, tPart int64
	for i := 0; i < 100; i++ {
		tFull = full.Access(tFull, 0, 0, 64)
		tPart = part.Access(tPart, 0, 0, 32)
	}
	if tPart >= tFull {
		t.Errorf("100 partial transfers took %d cycles, full took %d; partial should be faster", tPart, tFull)
	}
	if got := part.Stats().Bytes; got != 3200 {
		t.Errorf("partial bytes = %d, want 3200", got)
	}
	if got := full.Stats().Bytes; got != 6400 {
		t.Errorf("full bytes = %d, want 6400", got)
	}
}

func TestSimpleModelLatency(t *testing.T) {
	s := NewSimple(DefaultSimpleConfig(1))
	// One 64B access: ~6 cycles service + 100 cycles latency.
	got := s.Access(0, 0, 0, 64)
	if got < 100 || got > 110 {
		t.Errorf("single access latency = %d, want ~106", got)
	}
}

func TestSimpleModelBandwidthLimit(t *testing.T) {
	s := NewSimple(DefaultSimpleConfig(1))
	// 1000 64B lines at 10 B/cycle = at least 6400 cycles of service.
	var last int64
	for i := 0; i < 1000; i++ {
		last = s.Access(0, 0, uint64(i), 64)
	}
	if last < 6400 {
		t.Errorf("1000 lines finished at %d, want >= 6400 (bandwidth limit)", last)
	}
	// With 2 MCs the same load split across controllers halves the time.
	s2 := NewSimple(DefaultSimpleConfig(2))
	var last2 int64
	for i := 0; i < 1000; i++ {
		done := s2.Access(0, i%2, uint64(i), 64)
		if done > last2 {
			last2 = done
		}
	}
	if last2 >= last {
		t.Errorf("2-MC run (%d) not faster than 1-MC run (%d)", last2, last)
	}
}

func TestSimpleModelMinBurst(t *testing.T) {
	s := NewSimple(DefaultSimpleConfig(1))
	s.Access(0, 0, 0, 8) // clamped to 32B
	if got := s.Stats().Bytes; got != 32 {
		t.Errorf("min burst bytes = %d, want 32", got)
	}
}

func TestResetStats(t *testing.T) {
	models := []Model{NewDDR3(DefaultDDR3Config(2)), NewSimple(DefaultSimpleConfig(2))}
	for _, m := range models {
		m.Access(0, 0, 0, 64)
		m.ResetStats()
		if st := m.Stats(); st.Accesses != 0 || st.Bytes != 0 {
			t.Errorf("%T: ResetStats left %+v", m, st)
		}
	}
}

func TestAccessCompletionMonotonic(t *testing.T) {
	for _, m := range []Model{NewDDR3(DefaultDDR3Config(4)), NewSimple(DefaultSimpleConfig(4))} {
		m := m
		f := func(start uint16, line uint32, sz uint8) bool {
			now := int64(start)
			done := m.Access(now, MCForLine(uint64(line), m.NumMCs()), uint64(line), int(sz)%65)
			return done > now
		}
		if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
			t.Errorf("%T: %v", m, err)
		}
	}
}

func TestPaperMCScaling(t *testing.T) {
	// §5.1: total DRAM bandwidth ∝ √N. We model this by MC count = √N.
	for _, tc := range []struct{ cores, mcs int }{{16, 4}, {64, 8}, {256, 16}} {
		if got := MCCountForCores(tc.cores); got != tc.mcs {
			t.Errorf("MCCountForCores(%d) = %d, want %d", tc.cores, got, tc.mcs)
		}
	}
}

func snapshotOf(s *Simple) []byte {
	w := snap.NewWriter(1 << 12)
	s.Snapshot(w)
	return append([]byte(nil), w.Data()...)
}

// load saturates every controller's bandwidth ring for a while.
func load(s *Simple) {
	for i := 0; i < 4000; i++ {
		s.Access(int64(i), i%s.NumMCs(), uint64(i), 64)
	}
}

// TestRecycledSimpleEqualsFreshSimple: bandwidth rings released full of
// another run's reservations come back from NewSimple idle, and from
// NewSimpleForRestore + Restore holding exactly the restored state.
func TestRecycledSimpleEqualsFreshSimple(t *testing.T) {
	defer debug.SetGCPercent(debug.SetGCPercent(-1)) // a collection may empty the list
	ringList = recycle.List[[]mcRing]{}
	cfg := DefaultSimpleConfig(4)
	fresh := NewSimple(cfg)
	idle := snapshotOf(fresh)
	load(fresh)
	want := snapshotOf(fresh)
	rings := &fresh.mcs[0]
	fresh.Release()
	fresh.Release() // twice is harmless

	s := NewSimple(cfg)
	if !recycle.Lossy && &s.mcs[0] != rings {
		t.Fatal("NewSimple did not take the released rings")
	}
	if got := snapshotOf(s); !bytes.Equal(got, idle) {
		t.Error("model built on recycled rings is not idle")
	}
	if other := NewSimple(cfg); &other.mcs[0] == &s.mcs[0] {
		t.Fatal("two models share one set of rings")
	}
	load(s)
	if got := snapshotOf(s); !bytes.Equal(got, want) {
		t.Error("model on recycled rings queued differently from a fresh one")
	}
	s.Release()

	r := NewSimpleForRestore(cfg) // takes s's loaded rings as they are
	if err := r.Restore(snap.NewReader(idle)); err != nil {
		t.Fatal(err)
	}
	if got := snapshotOf(r); !bytes.Equal(got, idle) {
		t.Error("Restore into recycled rings left stale reservations behind")
	}
}
