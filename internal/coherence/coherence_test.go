package coherence

import (
	"bytes"
	"runtime/debug"
	"sync"
	"testing"
	"testing/quick"

	"github.com/impsim/imp/internal/recycle"
	"github.com/impsim/imp/internal/snap"
)

func TestFirstReadNoAction(t *testing.T) {
	d := New(DefaultK, 16)
	act := d.Read(1, 0)
	if act.DowngradeOwner != -1 || len(act.Invalidate) != 0 || act.Broadcast {
		t.Errorf("first read triggered action: %+v", act)
	}
	e := d.Entry(1)
	if e == nil || e.State != SharedBy || e.Sharers() != 1 {
		t.Fatalf("entry after first read: %+v", e)
	}
}

func TestReadersAccumulate(t *testing.T) {
	d := New(DefaultK, 16)
	for c := 0; c < 4; c++ {
		d.Read(1, c)
	}
	e := d.Entry(1)
	if e.Sharers() != 4 || e.Overflowed() {
		t.Errorf("4 readers: sharers=%d overflow=%v", e.Sharers(), e.Overflowed())
	}
	// Re-reading from the same core must not double count.
	d.Read(1, 0)
	if e.Sharers() != 4 {
		t.Errorf("re-read changed sharer count to %d", e.Sharers())
	}
}

func TestACKwiseOverflow(t *testing.T) {
	d := New(DefaultK, 16)
	for c := 0; c < 6; c++ {
		d.Read(1, c)
	}
	e := d.Entry(1)
	if e.Sharers() != 6 || !e.Overflowed() {
		t.Errorf("6 readers with k=4: sharers=%d overflow=%v", e.Sharers(), e.Overflowed())
	}
	// A write must now broadcast and collect 5 acks (6 sharers minus the
	// writer, which is itself a sharer).
	act := d.Write(1, 0)
	if !act.Broadcast {
		t.Error("write to overflowed line did not broadcast")
	}
	if act.Acks != 5 {
		t.Errorf("acks = %d, want 5", act.Acks)
	}
}

func TestWriteInvalidatesPreciseSharers(t *testing.T) {
	d := New(DefaultK, 16)
	d.Read(1, 2)
	d.Read(1, 3)
	d.Read(1, 5)
	act := d.Write(1, 2)
	if act.Broadcast {
		t.Error("precise sharer set must not broadcast")
	}
	if len(act.Invalidate) != 2 || act.Acks != 2 {
		t.Errorf("invalidations = %v (acks %d), want cores {3,5}", act.Invalidate, act.Acks)
	}
	for _, c := range act.Invalidate {
		if c == 2 {
			t.Error("writer invalidated itself")
		}
	}
	e := d.Entry(1)
	if e.State != OwnedBy || e.Sharers() != 1 {
		t.Errorf("after write: %+v", e)
	}
}

func TestWriteAfterWriteTransfersOwnership(t *testing.T) {
	d := New(DefaultK, 16)
	d.Write(1, 0)
	act := d.Write(1, 1)
	if act.DowngradeOwner != 0 || !act.WritebackDirty {
		t.Errorf("second writer action: %+v, want downgrade of core 0 with writeback", act)
	}
	if len(act.Invalidate) != 1 || act.Invalidate[0] != 0 {
		t.Errorf("invalidate = %v, want [0]", act.Invalidate)
	}
}

func TestReadAfterWriteDowngrades(t *testing.T) {
	d := New(DefaultK, 16)
	d.Write(1, 0)
	act := d.Read(1, 1)
	if act.DowngradeOwner != 0 || !act.WritebackDirty {
		t.Errorf("read-after-write action: %+v", act)
	}
	e := d.Entry(1)
	if e.State != SharedBy || e.Sharers() != 2 {
		t.Errorf("after downgrade: state=%v sharers=%d, want Shared/2", e.State, e.Sharers())
	}
}

func TestOwnerRewriteNoAction(t *testing.T) {
	d := New(DefaultK, 16)
	d.Write(1, 0)
	act := d.Write(1, 0)
	if act.DowngradeOwner != -1 || len(act.Invalidate) != 0 || act.Acks != 0 {
		t.Errorf("owner re-write triggered action: %+v", act)
	}
}

func TestEvictL1(t *testing.T) {
	d := New(DefaultK, 16)
	d.Read(1, 0)
	d.Read(1, 1)
	d.EvictL1(1, 0)
	if got := d.Entry(1).Sharers(); got != 1 {
		t.Errorf("sharers after evict = %d, want 1", got)
	}
	d.EvictL1(1, 1)
	if e := d.Entry(1); e.State != Uncached {
		t.Errorf("state after all evicted = %v, want Uncached", e.State)
	}
	// Evicting an owned line uncaches it.
	d.Write(2, 3)
	d.EvictL1(2, 3)
	if e := d.Entry(2); e.State != Uncached {
		t.Errorf("owned line after owner evict = %v, want Uncached", e.State)
	}
	// Evicting an untracked line is a no-op.
	d.EvictL1(99, 0)
}

func TestEvictL2RecallsSharers(t *testing.T) {
	d := New(DefaultK, 16)
	d.Read(1, 0)
	d.Read(1, 1)
	act := d.EvictL2(1)
	if len(act.Invalidate) != 2 || act.Acks != 2 {
		t.Errorf("L2 evict action = %+v, want 2 invalidations", act)
	}
	if d.Entry(1) != nil {
		t.Error("entry survived L2 eviction")
	}
}

func TestEvictL2RecallsOwner(t *testing.T) {
	d := New(DefaultK, 16)
	d.Write(1, 7)
	act := d.EvictL2(1)
	if len(act.Invalidate) != 1 || act.Invalidate[0] != 7 || !act.WritebackDirty {
		t.Errorf("L2 evict of owned line = %+v", act)
	}
}

func TestEvictL2Overflowed(t *testing.T) {
	d := New(DefaultK, 16)
	for c := 0; c < 8; c++ {
		d.Read(1, c)
	}
	act := d.EvictL2(1)
	if !act.Broadcast || act.Acks != 8 {
		t.Errorf("L2 evict of overflowed line = %+v, want broadcast with 8 acks", act)
	}
}

func TestEvictL2Unknown(t *testing.T) {
	d := New(DefaultK, 16)
	act := d.EvictL2(42)
	if len(act.Invalidate) != 0 && !act.Broadcast {
		t.Errorf("evicting unknown line returned work: %+v", act)
	}
}

func TestStatsCounting(t *testing.T) {
	d := New(DefaultK, 16)
	d.Read(1, 0)
	d.Read(1, 1)
	d.Write(1, 2) // 2 invalidations
	d.Read(1, 3)  // downgrade
	st := d.Stats()
	if st.Reads != 3 || st.Writes != 1 {
		t.Errorf("reads/writes = %d/%d, want 3/1", st.Reads, st.Writes)
	}
	if st.InvalidationsSent != 2 || st.Downgrades != 1 {
		t.Errorf("invals/downgrades = %d/%d, want 2/1", st.InvalidationsSent, st.Downgrades)
	}
}

// TestSharerCountNeverNegative drives random traffic and checks counters
// stay consistent.
func TestSharerCountNeverNegative(t *testing.T) {
	d := New(DefaultK, 8)
	f := func(ops []uint16) bool {
		for _, op := range ops {
			line := uint64(op % 4)
			core := int(op/4) % 8
			switch op % 3 {
			case 0:
				d.Read(line, core)
			case 1:
				d.Write(line, core)
			default:
				d.EvictL1(line, core)
			}
			if e := d.Entry(line); e != nil {
				if e.Sharers() < 0 {
					return false
				}
				if e.State == OwnedBy && e.Sharers() != 1 {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func snapshotOf(d *Directory) []byte {
	w := snap.NewWriter(1 << 12)
	d.Snapshot(w)
	return append([]byte(nil), w.Data()...)
}

// fill tracks n lines with a mix of sharers, owners and L2 evictions.
func fill(d *Directory, n int) {
	for i := 0; i < n; i++ {
		line := uint64(i)*3 + 1
		d.Read(line, i%d.numCores)
		switch i % 5 {
		case 1:
			d.Write(line, (i+1)%d.numCores)
		case 2:
			d.EvictL2(line)
		}
	}
}

// TestRecycledDirectoryKeepsGrownTable: a directory built on a released
// table starts empty, behaves as a made one, and starts at the size the
// table was grown to, so tracking the same lines again allocates no table
// (rehash makes three arrays every time it runs).
func TestRecycledDirectoryKeepsGrownTable(t *testing.T) {
	defer debug.SetGCPercent(debug.SetGCPercent(-1)) // a collection may empty the list
	tables = sync.Pool{}
	const lines = 3000
	fresh := New(DefaultK, 16)
	fill(fresh, lines)
	want := snapshotOf(fresh)
	grown := len(fresh.state)
	if grown <= initialSlots {
		t.Fatalf("%d lines did not grow the table past %d slots", lines, initialSlots)
	}
	fresh.Release()
	fresh.Release() // twice is harmless

	d := New(DefaultK, 4)
	if d.Lines() != 0 || d.Entry(1) != nil {
		t.Fatal("directory built on a recycled table is not empty")
	}
	if !recycle.Lossy && len(d.state) != grown {
		t.Fatalf("recycled directory has %d slots, want the grown %d", len(d.state), grown)
	}
	if other := New(DefaultK, 4); !recycle.Lossy && len(other.state) != initialSlots {
		t.Fatal("one released table satisfied two directories")
	}
	d.Release()

	d = New(DefaultK, 16)
	fill(d, lines)
	if got := snapshotOf(d); !bytes.Equal(got, want) {
		t.Error("directory on a recycled table diverged from a fresh one")
	}
	d.Release()
	if recycle.Lossy {
		return // the Puts above may have been dropped: nothing to count
	}
	allocs := testing.AllocsPerRun(5, func() {
		d := New(DefaultK, 16)
		for i := 0; i < lines; i++ {
			d.Read(uint64(i)*3+1, i%16)
		}
		d.Release()
	})
	if allocs != 1 { // the Directory
		t.Errorf("steady-state directory: %v allocations a run, want 1 (it rehashed)", allocs)
	}
}

// TestRecycledDirectoryRestoreReusesTable: Restore empties and refills a
// table that is large enough in place of making three new arrays, and still
// grows one that is too small.
func TestRecycledDirectoryRestoreReusesTable(t *testing.T) {
	src := New(DefaultK, 16)
	fill(src, 3000)
	blob := snapshotOf(src)

	big := New(DefaultK, 16)
	fill(big, 9000) // stale entries Restore must not keep
	keys := &big.keys[0]
	if err := big.Restore(snap.NewReader(blob)); err != nil {
		t.Fatal(err)
	}
	if &big.keys[0] != keys {
		t.Error("Restore replaced a table that was large enough")
	}
	if got := snapshotOf(big); !bytes.Equal(got, blob) {
		t.Error("Restore into a used table left stale entries behind")
	}

	small := &Directory{k: DefaultK, numCores: 16}
	small.initTable(initialSlots)
	if err := small.Restore(snap.NewReader(blob)); err != nil {
		t.Fatal(err)
	}
	if got := snapshotOf(small); !bytes.Equal(got, blob) {
		t.Error("Restore into a small table lost entries")
	}
}
