package core

import "github.com/impsim/imp/internal/mem"

// ipdEntry is one Indirect Pattern Detector entry (Fig 4). Each entry tries
// to solve Eq. 2 for one candidate pattern: it pairs the first
// BaseAddrArrayLen misses after an index read with idx1 (computing a
// candidate BaseAddr per shift), then compares the BaseAddrs implied by
// misses after the next index read (idx2). A match on the same shift means
// two equations agree on (shift, BaseAddr): a detected pattern.
type ipdEntry struct {
	valid bool
	// ptIndex is the PT entry that owns the index stream being analyzed:
	// the stream entry for primary and second-way detection, the parent
	// pattern entry for second-level detection.
	ptIndex int
	kind    indType
	idx1    uint64
	idx2    uint64
	hasIdx2 bool
	miss1   int // misses recorded against idx1
	miss2   int // misses compared against idx2
	// baseaddrs holds the candidate BaseAddr per (shift, slot):
	// baseaddrs[si*BaseAddrArrayLen+k] pairs Shifts[si] with the k-th miss.
	baseaddrs []uint64
	// parentPT is kept for unlink bookkeeping (same as ptIndex today).
	parentPT int
}

// ipdFind returns the live detector for (owner, kind), or nil.
func (m *IMP) ipdFind(owner int, kind indType) *ipdEntry {
	for i := range m.ipd {
		if m.ipd[i].valid && m.ipd[i].ptIndex == owner && m.ipd[i].kind == kind {
			return &m.ipd[i]
		}
	}
	return nil
}

// ipdAdvance feeds the next index value of owner's raw index stream to any
// detector keyed on it (primary and second-way detection run off the same
// stream). A detector that already had both indices gets released: the
// third index arrived without a match, so no pattern exists (§3.2.2).
func (m *IMP) ipdAdvance(owner int, value uint64) {
	for i := range m.ipd {
		e := &m.ipd[i]
		if !e.valid || e.ptIndex != owner || e.kind == secondLevel {
			continue
		}
		m.ipdStep(e, value)
	}
}

// ipdStep advances one detector with the next index value.
func (m *IMP) ipdStep(e *ipdEntry, value uint64) {
	if !e.hasIdx2 {
		if value == e.idx1 {
			// Equal indices cannot disambiguate BaseAddr; wait for a
			// distinct one. Misses keep accumulating against idx1, which
			// remains correct since B[i] == B[i+1].
			return
		}
		e.idx2 = value
		e.hasIdx2 = true
		return
	}
	// Third distinct index without a match: give up and back off.
	owner := e.ptIndex
	e.release()
	m.registerFailure(owner)
}

// release frees the slot. It keeps the slot's baseaddrs storage for the
// next detector armed in it (ipdEnsure clears it); a snapshot writes nothing
// of a free slot, so the kept storage is invisible to it.
func (e *ipdEntry) release() { *e = ipdEntry{baseaddrs: e.baseaddrs} }

// ipdEnsure allocates a detector for (owner, kind) with first index value
// if none is live and a free IPD slot exists. The caller is responsible
// for back-off checks.
func (m *IMP) ipdEnsure(owner int, kind indType, value uint64) {
	if m.ipdFind(owner, kind) != nil {
		return
	}
	for i := range m.ipd {
		if m.ipd[i].valid {
			continue
		}
		b := m.ipd[i].baseaddrs
		if b == nil {
			b = make([]uint64, len(m.p.Shifts)*m.p.BaseAddrArrayLen)
		} else {
			clear(b)
		}
		m.ipd[i] = ipdEntry{
			valid: true, ptIndex: owner, parentPT: owner, kind: kind, idx1: value,
			baseaddrs: b,
		}
		return
	}
	// IPD full: the stream retries on a later index access.
}

// ipdFeedLevel feeds a value loaded at pattern owner's predicted target:
// the candidate index stream of a second-level indirection (§3.3.2).
func (m *IMP) ipdFeedLevel(owner int, value uint64) {
	if m.pt[owner].nextLevel != none {
		return // level child already detected
	}
	if e := m.ipdFind(owner, secondLevel); e != nil {
		m.ipdStep(e, value)
		return
	}
	if m.clock >= m.pt[owner].backoffTill {
		m.ipdEnsure(owner, secondLevel, value)
	}
}

// ipdObserveMiss pairs an L1 miss with every live detector (§3.2.2).
func (m *IMP) ipdObserveMiss(addr mem.Addr) {
	for i := range m.ipd {
		e := &m.ipd[i]
		if !e.valid {
			continue
		}
		// Secondary detection must not re-discover the pattern whose
		// predictions already explain this miss.
		if e.kind != primary && m.predictedByAnyPattern(addr) {
			continue
		}
		if !e.hasIdx2 {
			if e.miss1 < m.p.BaseAddrArrayLen {
				for si, s := range m.p.Shifts {
					e.baseaddrs[si*m.p.BaseAddrArrayLen+e.miss1] = uint64(addr) - shiftApply(e.idx1, s)
				}
				e.miss1++
			}
			continue
		}
		if e.miss2 >= m.p.BaseAddrArrayLen {
			continue
		}
		e.miss2++
		if si, base, ok := m.ipdMatch(e, addr); ok {
			m.detect(i, m.p.Shifts[si], base)
		}
	}
}

// ipdMatch compares the BaseAddrs implied by (idx2, addr) for each shift
// against those recorded for idx1, returning the matching shift index and
// BaseAddr.
func (m *IMP) ipdMatch(e *ipdEntry, addr mem.Addr) (int, uint64, bool) {
	for si, s := range m.p.Shifts {
		cand := uint64(addr) - shiftApply(e.idx2, s)
		for k := 0; k < e.miss1; k++ {
			if e.baseaddrs[si*m.p.BaseAddrArrayLen+k] == cand {
				return si, cand, true
			}
		}
	}
	return 0, 0, false
}

// predictedByAnyPattern reports whether addr equals the current predicted
// target of any enabled pattern.
func (m *IMP) predictedByAnyPattern(addr mem.Addr) bool {
	for i := range m.pt {
		e := &m.pt[i]
		if e.valid && e.enabled && e.indexValid && e.expected() == addr {
			return true
		}
	}
	return false
}

// detect turns a successful IPD match into a live PT pattern and releases
// the detector entry.
func (m *IMP) detect(ipdIdx int, shift int8, base uint64) {
	e := m.ipd[ipdIdx]
	m.ipd[ipdIdx].release()
	owner := e.ptIndex
	if owner < 0 || owner >= len(m.pt) || !m.pt[owner].valid {
		return
	}

	// Reject duplicates of patterns already hanging off this stream.
	if m.duplicatePattern(owner, shift, base) {
		return
	}

	switch e.kind {
	case primary:
		o := &m.pt[owner]
		o.enabled = true
		o.shift = shift
		o.baseAddr = base
		o.hitCnt = 0
		o.prefDist = 1
		o.aheadAddr = 0
		o.failCount = 0
		o.indexValid = false
		m.stats.PatternsDetected++
		if m.gp != nil {
			m.gp.allocate(owner)
		}
	case secondWay:
		child, ci := m.allocSecondary(owner)
		if child == nil {
			return
		}
		child.indType = secondWay
		child.enabled = true
		child.shift = shift
		child.baseAddr = base
		// Append to the owner's way chain; prev points at the chain
		// predecessor so splicing on eviction works.
		at := owner
		for m.pt[at].nextWay != none {
			at = int(m.pt[at].nextWay)
		}
		m.pt[at].nextWay = int8(ci)
		child.prev = int8(at)
		m.stats.SecondaryDetected++
		if m.gp != nil {
			m.gp.allocate(ci)
		}
	case secondLevel:
		if m.pt[owner].nextLevel != none {
			return
		}
		child, ci := m.allocSecondary(owner)
		if child == nil {
			return
		}
		child.indType = secondLevel
		child.enabled = true
		child.shift = shift
		child.baseAddr = base
		child.prev = int8(owner)
		m.pt[owner].nextLevel = int8(ci)
		m.stats.SecondaryDetected++
		if m.gp != nil {
			m.gp.allocate(ci)
		}
	}
}

// duplicatePattern reports whether (shift, base) already exists in owner's
// pattern tree (including owner itself).
func (m *IMP) duplicatePattern(owner int, shift int8, base uint64) bool {
	root := owner
	for m.pt[root].prev != none {
		root = int(m.pt[root].prev)
	}
	var walk func(i int) bool
	walk = func(i int) bool {
		if i < 0 || !m.pt[i].valid {
			return false
		}
		e := &m.pt[i]
		if e.enabled && e.shift == shift && e.baseAddr == base {
			return true
		}
		if e.nextLevel != none && walk(int(e.nextLevel)) {
			return true
		}
		if e.nextWay != none && walk(int(e.nextWay)) {
			return true
		}
		return false
	}
	return walk(root)
}

// allocSecondary claims a PT entry for a secondary pattern without evicting
// anything in owner's own tree.
func (m *IMP) allocSecondary(owner int) (*ptEntry, int) {
	protected := make(map[int]bool)
	root := owner
	for m.pt[root].prev != none {
		root = int(m.pt[root].prev)
	}
	var mark func(i int)
	mark = func(i int) {
		if i < 0 || protected[i] {
			return
		}
		protected[i] = true
		if m.pt[i].nextWay != none {
			mark(int(m.pt[i].nextWay))
		}
		if m.pt[i].nextLevel != none {
			mark(int(m.pt[i].nextLevel))
		}
	}
	mark(root)

	victim := -1
	var bestScore uint64
	for i := range m.pt {
		if protected[i] {
			continue
		}
		if !m.pt[i].valid {
			victim = i
			break
		}
		score := m.pt[i].lru
		if m.pt[i].enabled {
			score += 1 << 20
		}
		if victim == -1 || score < bestScore {
			victim, bestScore = i, score
		}
	}
	if victim == -1 {
		return nil, -1
	}
	if m.pt[victim].valid {
		m.unlink(victim)
	}
	m.pt[victim] = ptEntry{
		valid: true, lru: m.clock,
		nextWay: none, nextLevel: none, prev: none,
	}
	return &m.pt[victim], victim
}

// registerFailure applies the exponential detection back-off (§3.2.2).
func (m *IMP) registerFailure(owner int) {
	if owner < 0 || owner >= len(m.pt) || !m.pt[owner].valid {
		return
	}
	e := &m.pt[owner]
	e.failCount++
	m.stats.DetectionFailures++
	exp := e.failCount
	if exp > m.p.MaxBackoffLog2 {
		exp = m.p.MaxBackoffLog2
	}
	e.backoffTill = m.clock + (1 << uint(exp))
}
