package core

import (
	"fmt"

	"github.com/impsim/imp/internal/mem"
	"github.com/impsim/imp/internal/prefetch"
	"github.com/impsim/imp/internal/trace"
)

// WordReader resolves a word load by virtual address, standing in for the
// hardware reading index values out of fetched cachelines. *mem.Space
// implements it.
type WordReader interface {
	ReadWord(mem.Addr) uint64
}

// indType distinguishes primary patterns from secondary indirections
// (Fig 6).
type indType uint8

const (
	primary indType = iota
	secondWay
	secondLevel
)

func (t indType) String() string {
	switch t {
	case secondWay:
		return "second-way"
	case secondLevel:
		return "second-level"
	default:
		return "primary"
	}
}

const none = int8(-1)

// ptEntry is one Prefetch Table entry: the stream-table portion (pc, addr,
// hit cnt of Fig 5) plus the indirect table portion (enable, shift, base
// addr, index, hit cnt) and the secondary-indirection links of Fig 6.
type ptEntry struct {
	valid bool
	lru   uint64

	// Stream table portion (primary entries only).
	pc          trace.PC
	lastAddr    mem.Addr // address of the most recent index element
	elemSize    uint8    // index element size in bytes, learned from accesses
	dir         int8     // +1 ascending scan, -1 descending (backward sweeps)
	streamHits  int
	aheadLine   uint64 // furthest index line already stream-prefetched
	streamCount uint64 // index accesses seen (back-off clock)

	// Indirect table portion.
	enabled    bool
	shift      int8
	baseAddr   uint64 // BaseAddr of Eq. 2 (may exceed any region; raw arithmetic)
	index      uint64 // most recent index value
	indexValid bool   // index written and not yet matched
	hitCnt     int    // saturating confidence counter
	prefDist   int    // current prefetch distance (ramps to max)
	aheadAddr  mem.Addr
	storeSeen  int // read/write predictor: matched stores
	loadSeen   int // matched loads

	// Detection back-off (§3.2.2).
	failCount   int
	backoffTill uint64 // streamCount before which no new detection starts

	// Secondary indirection links (Fig 6).
	indType   indType
	nextWay   int8
	nextLevel int8
	prev      int8
}

// expected returns the predicted indirect target for the current index.
func (e *ptEntry) expected() mem.Addr {
	return mem.Addr(e.baseAddr + shiftApply(e.index, e.shift))
}

// target computes Eq. 2 for an arbitrary index value.
func (e *ptEntry) target(idx uint64) mem.Addr {
	return mem.Addr(e.baseAddr + shiftApply(idx, e.shift))
}

// Stats counts IMP activity for the evaluation harness.
type Stats struct {
	IndexAccesses      uint64
	StreamPrefetches   uint64
	IndirectPrefetches uint64
	PatternsDetected   uint64
	SecondaryDetected  uint64
	DetectionFailures  uint64
	ConfidenceDrops    uint64
}

// IMP is one per-L1 prefetcher instance.
type IMP struct {
	//imp:nosnap configuration, fixed at construction (restore cross-checks geometry)
	p Params
	//imp:nosnap value tap, reattached over the equivalent address space at build
	memory WordReader
	pt     []ptEntry
	ipd    []ipdEntry
	gp     *GranularityPredictor
	clock  uint64
	stats  Stats
	//imp:nosnap scratch, dead outside one Observe call
	reqs []prefetch.Request // the in-flight Observe output (caller's slice)
}

// New builds an IMP instance reading index values through memory.
func New(p Params, memory WordReader) *IMP {
	if err := p.Validate(); err != nil {
		panic(err)
	}
	m := &IMP{p: p, memory: memory, pt: make([]ptEntry, p.PTEntries), ipd: make([]ipdEntry, p.IPDEntries)}
	if p.Partial {
		m.gp = newGP(p)
	}
	return m
}

// Name implements prefetch.Prefetcher.
func (m *IMP) Name() string {
	if m.p.Partial {
		return "imp+partial"
	}
	return "imp"
}

// Stats returns a copy of the counters.
func (m *IMP) Stats() Stats { return m.stats }

// GP returns the granularity predictor, or nil when partial accessing is
// disabled.
func (m *IMP) GP() *GranularityPredictor { return m.gp }

// Observe implements prefetch.Prefetcher: it is called once per L1 demand
// access with the hit/miss outcome and, for loads, the loaded value. New
// requests are appended to reqs (Parent indexes the full returned slice).
func (m *IMP) Observe(a prefetch.Access, reqs []prefetch.Request) []prefetch.Request {
	m.clock++
	m.reqs = reqs

	// 1. Match the access against enabled patterns: confidence bump and
	//    second-level index capture (§3.2.3, §3.3.2).
	m.matchPatterns(a)

	// 2. Stream table processing: is this an index access?
	m.observeStream(a)

	// 3. Feed misses to active IPD entries (§3.2.2).
	if a.Miss {
		m.ipdObserveMiss(a.Addr)
	}

	out := m.reqs
	m.reqs = nil
	return out
}

// matchPatterns checks the access address against every enabled pattern's
// predicted target.
func (m *IMP) matchPatterns(a prefetch.Access) {
	for i := range m.pt {
		e := &m.pt[i]
		if !e.valid || !e.enabled || !e.indexValid {
			continue
		}
		if a.Addr != e.expected() {
			continue
		}
		e.indexValid = false
		if e.hitCnt < m.p.ConfidenceMax {
			e.hitCnt++
		}
		if a.Store {
			e.storeSeen++
		} else {
			e.loadSeen++
		}
		// The value loaded at a primary target is a candidate second-level
		// index (§3.3.2).
		if !a.Store && m.levelOf(i) < m.p.MaxIndirectLevels {
			m.ipdFeedLevel(i, a.Value)
		}
	}
}

// levelOf returns the indirection depth of PT entry i (primary = 1).
func (m *IMP) levelOf(i int) int {
	depth := 1
	for m.pt[i].indType == secondLevel && m.pt[i].prev != none {
		depth++
		i = int(m.pt[i].prev)
	}
	return depth
}

// observeStream runs the word-granularity stream table (§3.2, Fig 5).
func (m *IMP) observeStream(a prefetch.Access) {
	if a.Store {
		return
	}
	e, idx := m.lookupStream(a.PC)
	if e == nil {
		e, idx = m.allocPT(a.PC)
		if e == nil {
			return
		}
		e.lastAddr = a.Addr
		e.elemSize = uint8(a.Size)
		return
	}
	e.lru = m.clock
	step := mem.Addr(e.elemSize)
	sizeOK := uint8(a.Size) == e.elemSize
	switch {
	case a.Addr == e.lastAddr:
		// Re-read of the same element: no stream progress.
		return
	case sizeOK && a.Addr == e.lastAddr+step:
		// Ascending index access.
		if e.dir != 1 {
			e.dir, e.streamHits, e.aheadLine, e.aheadAddr = 1, 0, 0, 0
		}
		m.onIndexAccess(e, idx, a)
	case sizeOK && a.Addr == e.lastAddr-step:
		// Descending index access (backward sweeps, §5.3 SymGS).
		if e.dir != -1 {
			e.dir, e.streamHits, e.aheadLine, e.aheadAddr = -1, 0, 0, 0
		}
		m.onIndexAccess(e, idx, a)
	default:
		// Stream broken: a nested loop restarted the scan elsewhere. Keep
		// the pattern and just move the stream position (§3.3.1).
		e.lastAddr = a.Addr
		e.elemSize = uint8(a.Size)
		e.aheadLine = 0
		e.aheadAddr = 0
		if e.indexValid {
			e.indexValid = false
			if e.hitCnt > 0 {
				e.hitCnt--
			}
		}
	}
}

// onIndexAccess handles one confirmed sequential index read.
func (m *IMP) onIndexAccess(e *ptEntry, idx int, a prefetch.Access) {
	m.stats.IndexAccesses++
	e.streamCount++
	e.streamHits++
	e.lastAddr = a.Addr

	// Overwriting an unmatched index decrements confidence (§3.2.3). A
	// pattern whose confidence drains completely is dead (e.g. the data
	// array moved between iterations): disable it so the IPD can re-learn.
	if e.enabled && e.indexValid {
		if e.hitCnt > 0 {
			e.hitCnt--
			m.stats.ConfidenceDrops++
		}
		if e.hitCnt == 0 {
			m.disablePattern(idx)
		}
	}
	e.index = a.Value
	e.indexValid = true

	// Keep feeding the IPD the index stream: idx2 capture and entry
	// release both happen on index accesses.
	m.ipdAdvance(idx, a.Value)

	if e.streamHits < m.p.StreamHitThreshold {
		return
	}

	// Stream prefetching of the index array itself (line granularity).
	m.streamPrefetch(e, a.Addr)

	switch {
	case e.enabled && e.hitCnt >= m.p.ConfidenceThreshold:
		m.indirectPrefetch(e, idx, a.Addr)
	case !e.enabled && m.clock >= e.backoffTill:
		// Try to detect an indirect pattern for this stream.
		m.ipdEnsure(idx, primary, a.Value)
	}
	// An enabled primary with room for more ways keeps a detection going
	// to find second-way patterns (§3.3.2).
	if e.enabled && e.indType == primary && m.waysOf(idx) < m.p.MaxIndirectWays &&
		m.clock >= e.backoffTill {
		m.ipdEnsure(idx, secondWay, a.Value)
	}
}

// disablePattern retires a dead pattern on entry idx: the indirect state is
// cleared (the stream side keeps training) and secondary children are
// released, so a fresh IPD detection can rebuild the tree.
func (m *IMP) disablePattern(idx int) {
	e := &m.pt[idx]
	e.enabled = false
	e.indexValid = false
	e.prefDist = 0
	e.aheadAddr = 0
	e.storeSeen, e.loadSeen = 0, 0
	if e.nextWay != none {
		m.invalidateTree(int(e.nextWay))
		e.nextWay = none
	}
	if e.nextLevel != none {
		m.invalidateTree(int(e.nextLevel))
		e.nextLevel = none
	}
	if m.gp != nil {
		m.gp.release(idx)
	}
	for i := range m.ipd {
		if m.ipd[i].valid && m.ipd[i].ptIndex == idx && m.ipd[i].kind != primary {
			m.ipd[i].release()
		}
	}
}

// waysOf counts the patterns hanging off entry idx's index stream.
func (m *IMP) waysOf(idx int) int {
	n := 1
	for w := m.pt[idx].nextWay; w != none; w = m.pt[w].nextWay {
		n++
	}
	return n
}

// streamPrefetch keeps the index array StreamPrefetchDistance lines ahead
// of the scan, in the stream's direction.
func (m *IMP) streamPrefetch(e *ptEntry, addr mem.Addr) {
	line := addr.LineID()
	dist := m.p.StreamPrefetchDistance
	// When indirect prefetching runs ahead, the index lines it reads from
	// must be resident too; extend the stream window to cover it.
	if e.enabled {
		need := (e.prefDist*int(e.elemSize))/mem.LineSize + 1
		if need > dist {
			dist = need
		}
	}
	for d := 1; d <= dist; d++ {
		l := line + uint64(int64(d)*int64(e.dir))
		if e.aheadLine != 0 && coveredBy(e.dir, e.aheadLine, l) {
			continue
		}
		m.reqs = append(m.reqs, prefetch.Request{Addr: mem.Addr(l << mem.LineShift), Parent: -1})
		m.stats.StreamPrefetches++
		e.aheadLine = l
	}
}

// coveredBy reports whether the prefetch high-water mark already covers
// line l in direction dir.
func coveredBy(dir int8, mark, l uint64) bool {
	if dir >= 0 {
		return mark >= l
	}
	return mark <= l
}

// indirectPrefetch issues the indirect prefetches triggered by one index
// access at idxAddr (§3.2.3), walking the secondary-indirection tree
// (§3.3.2). The prefetch distance ramps linearly up to the maximum.
func (m *IMP) indirectPrefetch(e *ptEntry, idx int, idxAddr mem.Addr) {
	if e.prefDist < m.p.MaxPrefetchDistance {
		e.prefDist++
	}
	step := int64(e.elemSize) * int64(e.dir)
	issued := 0
	for d := 1; d <= e.prefDist && issued < m.p.MaxBurst; d++ {
		at := mem.Addr(int64(idxAddr) + int64(d)*step)
		if e.aheadAddr != 0 && coveredBy(e.dir, uint64(e.aheadAddr), uint64(at)) {
			continue
		}
		w := m.memory.ReadWord(at)
		m.emitPattern(e, idx, w, -1)
		issued++
		e.aheadAddr = at
	}
}

// emitPattern emits the prefetch for pattern entry idx with index value w,
// then recurses into its second-way and second-level children. parent is
// the request this one depends on (-1 for the root).
func (m *IMP) emitPattern(e *ptEntry, idx int, w uint64, parent int) {
	target := e.target(w)
	req := prefetch.Request{
		Addr:      target,
		Bytes:     m.prefetchBytes(idx, target),
		Parent:    parent,
		Exclusive: e.storeSeen > e.loadSeen,
	}
	m.reqs = append(m.reqs, req)
	m.stats.IndirectPrefetches++
	self := len(m.reqs) - 1

	// Second-way children share the index value and issue immediately.
	for w8 := e.nextWay; w8 != none; w8 = m.pt[w8].nextWay {
		c := &m.pt[w8]
		t2 := c.target(w)
		m.reqs = append(m.reqs, prefetch.Request{
			Addr: t2, Bytes: m.prefetchBytes(int(w8), t2), Parent: parent,
			Exclusive: c.storeSeen > c.loadSeen,
		})
		m.stats.IndirectPrefetches++
	}
	// Second-level children need the parent's data: chain on the parent
	// request and read the value through the memory image.
	if e.nextLevel != none {
		c := &m.pt[e.nextLevel]
		v2 := m.memory.ReadWord(target)
		m.emitPattern(c, int(e.nextLevel), v2, self)
	}
}

// prefetchBytes asks the granularity predictor how much of the line to
// fetch for pattern idx (full line when partial accessing is off).
func (m *IMP) prefetchBytes(idx int, target mem.Addr) int {
	if m.gp == nil {
		return 0 // full line
	}
	return m.gp.prefetchBytes(idx, target)
}

// lookupStream finds the primary PT entry tracking pc.
func (m *IMP) lookupStream(pc trace.PC) (*ptEntry, int) {
	for i := range m.pt {
		if m.pt[i].valid && m.pt[i].indType == primary && m.pt[i].pc == pc {
			return &m.pt[i], i
		}
	}
	return nil, -1
}

// allocPT claims a PT entry for a new stream (or secondary pattern),
// evicting the LRU entry. Entries that anchor an enabled pattern are
// preferred as survivors over plain stream entries.
func (m *IMP) allocPT(pc trace.PC) (*ptEntry, int) {
	victim := -1
	for i := range m.pt {
		if !m.pt[i].valid {
			victim = i
			break
		}
	}
	if victim == -1 {
		var bestScore uint64
		for i := range m.pt {
			score := m.pt[i].lru
			if m.pt[i].enabled {
				// Bias: keep detected patterns resident longer.
				score += 1 << 20
			}
			if victim == -1 || score < bestScore {
				victim, bestScore = i, score
			}
		}
		m.unlink(victim)
	}
	m.pt[victim] = ptEntry{
		valid: true, pc: pc, lru: m.clock,
		nextWay: none, nextLevel: none, prev: none,
	}
	return &m.pt[victim], victim
}

// unlink removes entry v from any secondary-indirection tree: a way-chain
// member is spliced out (the rest of the chain survives); a root takes its
// whole tree down with it, since orphaned children could never trigger.
func (m *IMP) unlink(v int) {
	e := &m.pt[v]
	spliced := false
	if e.prev != none && m.pt[e.prev].valid {
		p := &m.pt[e.prev]
		if p.nextWay == int8(v) {
			p.nextWay = e.nextWay
			if e.nextWay != none {
				m.pt[e.nextWay].prev = e.prev
			}
			spliced = true
		}
		if p.nextLevel == int8(v) {
			p.nextLevel = none
		}
	}
	if e.nextLevel != none {
		m.invalidateTree(int(e.nextLevel))
	}
	if e.nextWay != none && !spliced {
		m.invalidateTree(int(e.nextWay))
	}
	// Drop IPD entries pointing at v.
	for i := range m.ipd {
		if m.ipd[i].valid && (m.ipd[i].ptIndex == v || m.ipd[i].parentPT == v) {
			m.ipd[i].release()
		}
	}
	if m.gp != nil {
		m.gp.release(v)
	}
}

func (m *IMP) invalidateTree(i int) {
	if i < 0 || i >= len(m.pt) || !m.pt[i].valid {
		return
	}
	nw, nl := m.pt[i].nextWay, m.pt[i].nextLevel
	m.pt[i] = ptEntry{}
	if m.gp != nil {
		m.gp.release(i)
	}
	if nw != none {
		m.invalidateTree(int(nw))
	}
	if nl != none {
		m.invalidateTree(int(nl))
	}
}

// NoteEviction informs the granularity predictor that the L1 evicted
// lineID with the given 8-byte-word touch vector.
func (m *IMP) NoteEviction(lineID uint64, touch uint8) {
	if m.gp != nil {
		m.gp.noteEviction(lineID, touch)
	}
}

// String summarizes the table state for debugging.
func (m *IMP) String() string {
	active := 0
	enabled := 0
	for i := range m.pt {
		if m.pt[i].valid {
			active++
			if m.pt[i].enabled {
				enabled++
			}
		}
	}
	return fmt.Sprintf("IMP{pt: %d/%d valid, %d enabled, detected=%d}",
		active, len(m.pt), enabled, m.stats.PatternsDetected)
}
