package trace

import (
	"runtime"
	"runtime/debug"
	"slices"
	"sync"
	"testing"
	"testing/quick"
	"unsafe"

	"github.com/impsim/imp/internal/mem"
	"github.com/impsim/imp/internal/recycle"
)

func TestBuilderBasicSequence(t *testing.T) {
	b := NewBuilder()
	b.Compute(3)
	b.Load(1, 0x1000, 4, KindStream)
	b.LoadDep(2, 0x2000, 8, KindIndirect)
	b.Compute(5)
	b.Store(3, 0x3000, 8, KindOther)
	tr := b.Trace()

	if len(tr.Records) != 3 {
		t.Fatalf("got %d records, want 3", len(tr.Records))
	}
	r0, r1, r2 := tr.Records[0], tr.Records[1], tr.Records[2]
	if r0.Gap != 3 || r0.PC != 1 || r0.Kind() != KindStream || r0.IsStore() {
		t.Errorf("bad first record: %v", r0)
	}
	if !r1.DependsOnPrev() || r1.Kind() != KindIndirect {
		t.Errorf("bad dependent record: %v", r1)
	}
	if !r2.IsStore() || r2.Gap != 5 {
		t.Errorf("bad store record: %v", r2)
	}
}

func TestInstructionsCounting(t *testing.T) {
	b := NewBuilder()
	b.Compute(10)
	b.Load(1, 0x1000, 4, KindOther) // 10 + 1
	b.Barrier()                     // 0
	b.Compute(2)
	b.Store(2, 0x1040, 8, KindOther) // 2 + 1
	tr := b.Trace()
	if got := tr.Instructions(); got != 14 {
		t.Errorf("Instructions = %d, want 14", got)
	}
	if got := tr.MemoryAccesses(); got != 2 {
		t.Errorf("MemoryAccesses = %d, want 2", got)
	}
}

func TestSWPrefetchChargesOverhead(t *testing.T) {
	b := NewBuilder()
	b.SWPrefetch(9, 0x4000, 3)
	tr := b.Trace()
	if len(tr.Records) != 1 {
		t.Fatalf("got %d records, want 1", len(tr.Records))
	}
	r := tr.Records[0]
	if !r.IsSWPrefetch() {
		t.Error("record not marked as software prefetch")
	}
	// 3 overhead instructions + the prefetch instruction itself.
	if got := tr.Instructions(); got != 4 {
		t.Errorf("Instructions = %d, want 4", got)
	}
	if got := tr.MemoryAccesses(); got != 0 {
		t.Errorf("software prefetch must not count as demand access, got %d", got)
	}
}

func TestGapOverflowSplits(t *testing.T) {
	b := NewBuilder()
	b.Compute(200_000) // > 3 * 65535
	b.Load(1, 0x1000, 4, KindOther)
	tr := b.Trace()
	if got := tr.Instructions(); got != 200_001 {
		t.Errorf("Instructions = %d, want 200001", got)
	}
	gapOnly := 0
	for _, r := range tr.Records {
		if r.IsGapOnly() {
			gapOnly++
			if r.Gap == 0 {
				t.Error("gap-only record with zero gap")
			}
		}
	}
	if gapOnly != 3 {
		t.Errorf("gap-only records = %d, want 3", gapOnly)
	}
}

func TestTrailingGapPreserved(t *testing.T) {
	b := NewBuilder()
	b.Load(1, 0x1000, 4, KindOther)
	b.Compute(42)
	tr := b.Trace()
	if got := tr.Instructions(); got != 43 {
		t.Errorf("Instructions = %d, want 43", got)
	}
}

func TestKindCounts(t *testing.T) {
	b := NewBuilder()
	b.Load(1, 0x1000, 4, KindStream)
	b.Load(1, 0x1004, 4, KindStream)
	b.LoadDep(2, 0x2000, 8, KindIndirect)
	b.Store(3, 0x3000, 8, KindOther)
	b.SWPrefetch(4, 0x5000, 2)
	b.Barrier()
	m := b.Trace().KindCounts()
	if m[KindStream] != 2 || m[KindIndirect] != 1 || m[KindOther] != 1 {
		t.Errorf("KindCounts = %v, want stream:2 indirect:1 other:1", m)
	}
}

func TestInstructionsPropertyNonNegativeAndAdditive(t *testing.T) {
	f := func(gaps []uint16) bool {
		b := NewBuilder()
		var want uint64
		for _, g := range gaps {
			b.Compute(int(g))
			b.Load(1, 0x1000, 4, KindOther)
			want += uint64(g) + 1
		}
		return b.Trace().Instructions() == want
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func buildValidProgram(t *testing.T) *Program {
	t.Helper()
	s := mem.NewSpace()
	r := s.AllocInt32("data", 1024)
	var traces []*Trace
	for c := 0; c < 4; c++ {
		b := NewBuilder()
		b.Load(1, r.Addr(c), 4, KindStream)
		b.Barrier()
		b.Store(2, r.Addr(c+16), 4, KindOther)
		traces = append(traces, b.Trace())
	}
	return &Program{Space: s, Traces: traces}
}

func TestValidateAcceptsWellFormed(t *testing.T) {
	p := buildValidProgram(t)
	if err := p.Validate(); err != nil {
		t.Errorf("Validate() = %v, want nil", err)
	}
	if p.Cores() != 4 {
		t.Errorf("Cores = %d, want 4", p.Cores())
	}
}

func TestValidateRejectsBarrierMismatch(t *testing.T) {
	p := buildValidProgram(t)
	b := NewBuilder()
	b.Load(1, p.Space.Regions()[0].Addr(0), 4, KindOther)
	// No barrier on this core.
	p.Traces[0] = b.Trace()
	if err := p.Validate(); err == nil {
		t.Error("Validate accepted mismatched barrier counts")
	}
}

func TestValidateRejectsUnmappedAddress(t *testing.T) {
	p := buildValidProgram(t)
	b := NewBuilder()
	b.Load(1, 0xDEAD_0000_0000, 8, KindOther)
	b.Barrier()
	p.Traces[2] = b.Trace()
	if err := p.Validate(); err == nil {
		t.Error("Validate accepted unmapped address")
	}
}

func TestValidateRejectsEmptyProgram(t *testing.T) {
	p := &Program{}
	if err := p.Validate(); err == nil {
		t.Error("Validate accepted empty program")
	}
}

func TestProgramTotals(t *testing.T) {
	p := buildValidProgram(t)
	if got := p.TotalAccesses(); got != 8 {
		t.Errorf("TotalAccesses = %d, want 8", got)
	}
	if got := p.TotalInstructions(); got != 8 {
		t.Errorf("TotalInstructions = %d, want 8", got)
	}
}

func TestRecordIs16Bytes(t *testing.T) {
	if got := unsafe.Sizeof(Record{}); got != 16 {
		t.Errorf("Record is %d bytes, want 16", got)
	}
}

func TestKindSharesFlagsWithoutDisturbingThem(t *testing.T) {
	for _, k := range []Kind{KindOther, KindStream, KindIndirect} {
		r := Record{Flags: FlagStore | FlagDepPrev | kindFlags(k)}
		if r.Kind() != k || !r.IsStore() || !r.DependsOnPrev() || r.IsBarrier() || r.IsSWPrefetch() || r.IsGapOnly() {
			t.Errorf("kind %v: flags %#02x read back as %v", k, r.Flags, r)
		}
	}
}

// sampleRecords is the reference trace the chunk tests hold the Builder to:
// n records made with a plain append, cycling through every record flavor,
// with three gap-only fillers (a gap wider than three 16-bit fields) starting
// at index spillAt when spillAt >= 0. base offsets every address, so that
// traces built from different bases differ in every access.
func sampleRecords(n, spillAt int, base mem.Addr) []Record {
	const maxGap = 1<<16 - 1
	var recs []Record
	for i := 0; len(recs) < n; i++ {
		if len(recs) == spillAt {
			for j := 0; j < 3; j++ {
				recs = append(recs, Record{Gap: maxGap, Flags: flagGapOnly})
			}
		}
		r := Record{Addr: base + mem.Addr(8*i), PC: PC(i % 13), Gap: uint16(i % 7), Size: 8}
		switch i % 5 {
		case 0:
			r.Flags = kindFlags(KindStream)
			r.Size = 4
		case 1:
			r.Flags = FlagDepPrev | kindFlags(KindIndirect)
		case 2:
			r.Flags = FlagStore | kindFlags(KindOther)
		case 3:
			r.Flags = FlagSWPrefetch
		case 4:
			r = Record{Gap: r.Gap, Flags: FlagBarrier}
		}
		recs = append(recs, r)
	}
	return recs[:n]
}

// feed issues the Builder calls that reproduce recs: a gap-only filler is
// compute folded into the next record's gap, which the Builder spills again.
func feed(b *Builder, recs []Record) {
	var spill int
	for _, r := range recs {
		if r.IsGapOnly() {
			spill += int(r.Gap)
			continue
		}
		b.Compute(spill + int(r.Gap))
		spill = 0
		switch {
		case r.IsBarrier():
			b.Barrier()
		case r.IsSWPrefetch():
			b.SWPrefetch(r.PC, r.Addr, 0)
		case r.IsStore():
			b.Store(r.PC, r.Addr, int(r.Size), r.Kind())
		case r.DependsOnPrev():
			b.LoadDep(r.PC, r.Addr, int(r.Size), r.Kind())
		default:
			b.Load(r.PC, r.Addr, int(r.Size), r.Kind())
		}
	}
	b.Compute(spill)
}

// TestRecycledBuilderMatchesAppend: a trace built in chunks equals the same
// records appended to one slice, at lengths either side of a chunk boundary
// and with filler records spilling across one. Each case is built twice by
// one Builder, the second time into chunks the first handed back.
func TestRecycledBuilderMatchesAppend(t *testing.T) {
	cases := []struct {
		name       string
		n, spillAt int
	}{
		{"empty", 0, -1},
		{"chunk-1", chunkRecords - 1, -1},
		{"chunk", chunkRecords, -1},
		{"chunk+1", chunkRecords + 1, -1},
		{"3chunk", 3 * chunkRecords, -1},
		{"spill-across-boundary", 2 * chunkRecords, chunkRecords - 1},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			want := sampleRecords(tc.n, tc.spillAt, 0x1000)
			b := NewBuilder()
			for round := 1; round <= 2; round++ {
				feed(b, want)
				got := b.Trace().Records
				if !slices.Equal(got, want) {
					t.Fatalf("round %d: built trace differs from the appended reference (%d vs %d records)", round, len(got), len(want))
				}
				if cap(got) != len(got) {
					t.Errorf("round %d: trace slice has cap %d for %d records", round, cap(got), len(got))
				}
			}
		})
	}
}

// TestRecycledChunksExclusiveAcrossBuilders: builders on several goroutines
// draw on one chunk list at once; a chunk handed to two of them would mix
// their records (and trip the race detector).
func TestRecycledChunksExclusiveAcrossBuilders(t *testing.T) {
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			want := sampleRecords(3*chunkRecords+5, chunkRecords/2, mem.Addr(g)<<32)
			b := NewBuilder()
			for round := 0; round < 3; round++ {
				feed(b, want)
				if !slices.Equal(b.Trace().Records, want) {
					t.Errorf("goroutine %d round %d: trace differs from its reference", g, round)
					return
				}
			}
		}(g)
	}
	wg.Wait()
}

// TestBuilderRecyclesChunks pins what the chunks buy: once a Builder has
// handed its chunks back, building a trace of N records allocates little
// beyond the exact N-record result.
func TestBuilderRecyclesChunks(t *testing.T) {
	if recycle.Lossy {
		t.Skip("sync.Pool drops Puts at random under the race detector")
	}
	defer debug.SetGCPercent(debug.SetGCPercent(-1)) // a collection may empty the list
	const n = 64 * chunkRecords
	want := sampleRecords(n, -1, 0x1000)
	b := NewBuilder()
	feed(b, want)
	b.Trace()

	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	feed(b, want)
	got := b.Trace().Records
	runtime.ReadMemStats(&after)
	if len(got) != n {
		t.Fatalf("built %d records, want %d", len(got), n)
	}
	limit := n * uint64(unsafe.Sizeof(Record{})) * 105 / 100 // the result plus 5 %
	if alloc := after.TotalAlloc - before.TotalAlloc; alloc > limit {
		t.Errorf("second build of %d records allocated %d bytes, want <= %d", n, alloc, limit)
	}
}
