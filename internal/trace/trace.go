// Package trace defines the memory access trace format shared between the
// instrumented workloads and the timing simulator.
//
// A trace is a per-core sequence of records. Each record is one memory
// access annotated with the PC of the instruction (synthetic, one per static
// load/store site), the number of non-memory instructions executed since the
// previous record, and a ground-truth access kind used for reporting
// (Fig 1/2 of the paper) and for the idealized configurations — the IMP
// hardware model never consults the kind.
package trace

import (
	"fmt"
	"sync"

	"github.com/impsim/imp/internal/mem"
	"github.com/impsim/imp/internal/recycle"
)

// Kind is the ground-truth classification of an access, mirroring the
// categories in Fig 1 of the paper.
type Kind uint8

const (
	// KindOther is any access that is neither a streaming index read nor an
	// indirect data read: scalars, stack-like traffic, result writes.
	KindOther Kind = iota
	// KindStream is a sequential scan of an index (or value) array, i.e. the
	// B[i] side of A[B[i]].
	KindStream
	// KindIndirect is a data access whose address came from an index value,
	// i.e. the A[B[i]] side.
	KindIndirect
)

func (k Kind) String() string {
	switch k {
	case KindStream:
		return "stream"
	case KindIndirect:
		return "indirect"
	default:
		return "other"
	}
}

// Flags carried by a record. The flags byte is laid out as
//
//	bit 0    FlagStore
//	bit 1    FlagDepPrev
//	bit 2    FlagSWPrefetch
//	bit 3    FlagBarrier
//	bits 4-5 the access Kind (see Record.Kind)
//	bit 6    unused, always 0
//	bit 7    gap-only filler (internal, see IsGapOnly)
const (
	// FlagStore marks the access as a write.
	FlagStore uint8 = 1 << iota
	// FlagDepPrev marks the access as data-dependent on the immediately
	// preceding load (used by the OoO core model: an indirect access cannot
	// issue before its index load returns).
	FlagDepPrev
	// FlagSWPrefetch marks a software prefetch instruction (Mowry-style).
	// It occupies the pipeline and injects a non-binding line fetch but
	// never stalls.
	FlagSWPrefetch
	// FlagBarrier marks a synchronization point: the core waits until all
	// cores have reached the same barrier index. Addr/PC are unused.
	FlagBarrier
)

// The access Kind lives in bits 4-5 of Flags, which keeps Record at 16
// bytes. The binary format stores the kind in its own byte instead, so the
// encoder strips these bits from the flags it writes.
const (
	kindShift       = 4
	kindMask  uint8 = 3 << kindShift
)

// kindFlags returns k placed in the kind bits of a flags byte.
func kindFlags(k Kind) uint8 { return uint8(k) << kindShift & kindMask }

// PC identifies a static instruction site. Workloads allocate small dense
// ids so prefetcher tables can key on them exactly as hardware keys on
// instruction addresses.
type PC uint32

// Record is one entry of a core's trace. The layout is kept compact
// (16 bytes, no padding) because traces hold millions of records.
type Record struct {
	Addr  mem.Addr // virtual byte address of the access
	PC    PC       // static instruction site
	Gap   uint16   // non-memory instructions executed before this access
	Flags uint8    // Flag* bits and the access kind; see the layout above
	Size  uint8    // access size in bytes (1..8)
}

// Kind returns the record's ground-truth access kind.
func (r Record) Kind() Kind { return Kind((r.Flags & kindMask) >> kindShift) }

// IsStore reports whether the record is a write.
func (r Record) IsStore() bool { return r.Flags&FlagStore != 0 }

// IsBarrier reports whether the record is a barrier synchronization point.
func (r Record) IsBarrier() bool { return r.Flags&FlagBarrier != 0 }

// IsSWPrefetch reports whether the record is a software prefetch.
func (r Record) IsSWPrefetch() bool { return r.Flags&FlagSWPrefetch != 0 }

// DependsOnPrev reports whether the record depends on the preceding load.
func (r Record) DependsOnPrev() bool { return r.Flags&FlagDepPrev != 0 }

func (r Record) String() string {
	op := "LD"
	if r.IsStore() {
		op = "ST"
	}
	if r.IsBarrier() {
		return "BARRIER"
	}
	if r.IsSWPrefetch() {
		op = "PF"
	}
	return fmt.Sprintf("%s pc=%d addr=%v size=%d kind=%s gap=%d", op, r.PC, r.Addr, r.Size, r.Kind(), r.Gap)
}

// Instructions returns the number of dynamic instructions the record
// represents: its leading compute gap plus the access itself (barriers are
// synchronization only and gap-only fillers carry no access).
func (r Record) Instructions() uint64 {
	n := uint64(r.Gap)
	if !r.IsBarrier() && !r.IsGapOnly() {
		n++
	}
	return n
}

// Trace is the access sequence of one core.
type Trace struct {
	Records []Record
}

// Instructions returns the total dynamic instruction count of the trace.
func (t *Trace) Instructions() uint64 {
	var n uint64
	for _, r := range t.Records {
		n += r.Instructions()
	}
	return n
}

// MemoryAccesses returns the number of demand loads and stores (software
// prefetches and barriers excluded).
func (t *Trace) MemoryAccesses() uint64 {
	var n uint64
	for _, r := range t.Records {
		if !r.IsBarrier() && !r.IsSWPrefetch() {
			n++
		}
	}
	return n
}

// KindCounts returns the number of demand accesses per kind.
func (t *Trace) KindCounts() map[Kind]uint64 {
	m := make(map[Kind]uint64, 3)
	for _, r := range t.Records {
		if r.IsBarrier() || r.IsSWPrefetch() {
			continue
		}
		m[r.Kind()]++
	}
	return m
}

// chunkRecords is the length of the fixed-size chunks a Builder fills.
// Appending to one growing slice would allocate several times the trace's
// final size on the way (a large slice grows by about a quarter at a time);
// chunks are filled in place and copied once, into an exact-size slice.
const chunkRecords = 8192

// chunks recycles Builder chunks across traces: a chunk goes back here when
// its trace is finished, so building a program allocates little beyond the
// final record slices.
var chunks recycle.List[[]Record]

// Builder accumulates one core's trace. It implements the instrumentation
// interface the workloads program against.
type Builder struct {
	chunks     []*[]Record // every chunk taken, oldest first; cur fills the last
	cur        []Record    // the last chunk's records so far
	pendingGap uint64
}

// NewBuilder returns an empty trace builder.
func NewBuilder() *Builder { return &Builder{} }

// add appends r to the current chunk, starting a new chunk when it is full.
func (b *Builder) add(r Record) {
	if len(b.cur) == cap(b.cur) {
		b.nextChunk()
	}
	b.cur = append(b.cur, r)
}

// nextChunk closes the current chunk, if any, and takes a fresh one.
func (b *Builder) nextChunk() {
	if n := len(b.chunks); n > 0 {
		*b.chunks[n-1] = b.cur
	}
	c := chunks.Get(chunkRecords)
	if c == nil {
		s := make([]Record, 0, chunkRecords)
		c = &s
	}
	b.chunks = append(b.chunks, c)
	b.cur = (*c)[:0]
}

// flushGap folds the accumulated compute gap into the next record's Gap
// field. Gaps wider than the 16-bit field spill into gap-only filler
// records so no compute time is lost.
func (b *Builder) flushGap() uint16 {
	const maxGap = 1<<16 - 1
	for b.pendingGap > maxGap {
		b.add(Record{Gap: maxGap, Flags: flagGapOnly})
		b.pendingGap -= maxGap
	}
	g := uint16(b.pendingGap)
	b.pendingGap = 0
	return g
}

// flagGapOnly marks an internal record that carries only compute cycles.
// It is not exported: the simulator treats it as Gap instructions and no
// memory access.
const flagGapOnly uint8 = 1 << 7

// IsGapOnly reports whether the record only carries compute instructions.
func (r Record) IsGapOnly() bool { return r.Flags&flagGapOnly != 0 }

// Load appends a load of size bytes at addr.
func (b *Builder) Load(pc PC, addr mem.Addr, size int, kind Kind) {
	b.add(Record{
		Addr: addr, PC: pc, Gap: b.flushGap(), Size: uint8(size),
		Flags: kindFlags(kind),
	})
}

// LoadDep appends a load that depends on the immediately preceding load
// (an indirect access consuming the just-read index).
func (b *Builder) LoadDep(pc PC, addr mem.Addr, size int, kind Kind) {
	b.add(Record{
		Addr: addr, PC: pc, Gap: b.flushGap(), Size: uint8(size),
		Flags: FlagDepPrev | kindFlags(kind),
	})
}

// Store appends a store of size bytes at addr.
func (b *Builder) Store(pc PC, addr mem.Addr, size int, kind Kind) {
	b.add(Record{
		Addr: addr, PC: pc, Gap: b.flushGap(), Size: uint8(size),
		Flags: FlagStore | kindFlags(kind),
	})
}

// SWPrefetch appends a software prefetch of the line containing addr and
// charges overhead extra instructions for computing the prefetch address
// (the paper's §6.1.2 instruction overhead).
func (b *Builder) SWPrefetch(pc PC, addr mem.Addr, overhead int) {
	b.Compute(overhead)
	b.add(Record{
		Addr: addr, PC: pc, Gap: b.flushGap(), Size: 8,
		Flags: FlagSWPrefetch | kindFlags(KindOther),
	})
}

// Compute charges n non-memory instructions.
func (b *Builder) Compute(n int) {
	if n > 0 {
		b.pendingGap += uint64(n)
	}
}

// Barrier appends a global synchronization point.
func (b *Builder) Barrier() {
	b.add(Record{Gap: b.flushGap(), Flags: FlagBarrier})
}

// Trace finalizes and returns the built trace. Any trailing compute gap is
// attached to a final gap-only record. The records are copied into one
// exact-size slice and the chunks handed back for reuse; the Builder is
// empty afterwards and may start a new trace.
func (b *Builder) Trace() *Trace {
	if b.pendingGap > 0 {
		g := b.flushGap()
		if g > 0 {
			b.add(Record{Gap: g, Flags: flagGapOnly})
		}
	}
	n := len(b.chunks)
	if n == 0 {
		return &Trace{}
	}
	*b.chunks[n-1] = b.cur
	recs := make([]Record, (n-1)*chunkRecords+len(b.cur))
	off := 0
	for i, c := range b.chunks {
		off += copy(recs[off:], *c)
		chunks.Put(chunkRecords, c)
		b.chunks[i] = nil
	}
	b.chunks, b.cur = b.chunks[:0], nil
	return &Trace{Records: recs}
}

// Program is a set of per-core traces plus the address space they reference.
// Programs are built once and then shared read-only across concurrent
// simulations; do not mutate Traces after the first Validate call.
type Program struct {
	Space  *mem.Space
	Traces []*Trace // one per core
	// SpinBarriers marks that cores busy-wait (consuming instructions) at
	// barriers instead of sleeping; used by SymGS.
	SpinBarriers bool

	// Validate scans every record, which is too expensive to repeat for
	// each of the many simulations sharing one program; the verdict is
	// cached after the first call.
	validateOnce sync.Once
	validateErr  error
}

// Cores returns the number of cores the program was traced for.
func (p *Program) Cores() int { return len(p.Traces) }

// TotalInstructions sums instruction counts across cores.
func (p *Program) TotalInstructions() uint64 {
	var n uint64
	for _, t := range p.Traces {
		n += t.Instructions()
	}
	return n
}

// TotalAccesses sums demand memory accesses across cores.
func (p *Program) TotalAccesses() uint64 {
	var n uint64
	for _, t := range p.Traces {
		n += t.MemoryAccesses()
	}
	return n
}

// Validate checks structural invariants: barrier counts match across cores
// and every access lands in the mapped address space. It returns the first
// violation found. The full scan runs once per program; subsequent calls
// return the cached verdict.
func (p *Program) Validate() error {
	p.validateOnce.Do(func() { p.validateErr = p.validate() })
	return p.validateErr
}

func (p *Program) validate() error {
	if len(p.Traces) == 0 {
		return fmt.Errorf("trace: program has no cores")
	}
	barriers := -1
	for cid, t := range p.Traces {
		n := 0
		for i, r := range t.Records {
			if r.IsBarrier() {
				n++
				continue
			}
			if r.IsGapOnly() {
				continue
			}
			if r.Size == 0 || r.Size > 64 {
				return fmt.Errorf("trace: core %d record %d has bad size %d", cid, i, r.Size)
			}
			if p.Space != nil && !p.Space.Mapped(r.Addr) {
				return fmt.Errorf("trace: core %d record %d (%v) touches unmapped address", cid, i, r)
			}
		}
		if barriers == -1 {
			barriers = n
		} else if n != barriers {
			return fmt.Errorf("trace: core %d has %d barriers, core 0 has %d", cid, n, barriers)
		}
	}
	return nil
}
