// Package coherence implements the directory protocol of Table 1: an
// ACKwise_k limited directory (Kurian et al. [19]) co-located with each L2
// home slice. Up to k sharers are tracked precisely; beyond that the
// directory keeps only a count and broadcasts invalidations, collecting
// exactly as many acks as there are actual sharers.
//
// The directory computes *what must happen* (which cores to invalidate or
// downgrade); the simulator turns that into NoC messages and latency.
//
// Directory state lives in an open-addressed hash table of inline entries
// rather than a Go map: the directory is consulted on every shared-resource
// event, and map hashing plus per-entry pointer allocations dominated the
// simulator's allocation profile.
package coherence

import (
	"fmt"
	"sync"
)

// DefaultK is the ACKwise sharer-tracking limit used in the paper.
const DefaultK = 4

// maxK bounds the precise sharer list so it can live inline in the entry
// (no per-entry slice allocation). ACKwise_k with k beyond 8 defeats the
// point of a limited directory; New rejects it.
const maxK = 8

// DirState is the directory-side state of a line.
type DirState uint8

// Directory states.
const (
	Uncached DirState = iota
	SharedBy          // one or more L1s hold the line in S
	OwnedBy           // exactly one L1 holds the line in M
)

func (s DirState) String() string {
	switch s {
	case SharedBy:
		return "Shared"
	case OwnedBy:
		return "Owned"
	default:
		return "Uncached"
	}
}

// Entry is one directory line's bookkeeping. It contains no pointers so the
// backing table stays invisible to the garbage collector.
type Entry struct {
	State    DirState
	ns       uint8 // live prefix of sharers
	overflow bool  // sharer set exceeded k: invalidations broadcast
	owner    int16 // valid when State == OwnedBy
	count    int32 // true sharer count (>= ns when overflowed)
	sharers  [maxK]int16
}

// Sharers returns the number of sharers the directory believes exist.
func (e *Entry) Sharers() int { return int(e.count) }

// Overflowed reports whether the precise sharer list overflowed.
func (e *Entry) Overflowed() bool { return e.overflow }

// Action describes the coherence work a request triggers. The simulator
// sends one invalidation message per entry of Invalidate (or a broadcast to
// all other cores when Broadcast is set), waits for Acks acknowledgements,
// and downgrades/flushes DowngradeOwner if it is >= 0. Invalidate is storage
// the Directory owns and reuses: it is valid until the next call on the
// Directory that returned the Action.
type Action struct {
	Invalidate     []int // precise cores to invalidate
	Broadcast      bool  // ACKwise overflow: invalidate all cores except requester
	Acks           int   // acknowledgements to collect
	DowngradeOwner int   // core holding the line in M that must downgrade (-1 none)
	WritebackDirty bool  // the owner's copy was dirty and must reach L2
}

// Stats counts protocol activity.
type Stats struct {
	Reads             uint64
	Writes            uint64
	InvalidationsSent uint64
	Broadcasts        uint64
	Downgrades        uint64
}

// Slot states of the open-addressed table.
const (
	slotEmpty uint8 = iota
	slotFull
	slotTomb
)

// Directory tracks every line resident in one (or all) L2 slice(s). Entries
// are created on first use and dropped on L2 eviction.
type Directory struct {
	//imp:nosnap configuration, fixed at construction
	k int
	//imp:nosnap configuration, fixed at construction
	numCores int
	stats    Stats

	// Open-addressed table: linear probing with tombstone deletion. The
	// snapshot encodes live entries (sorted, via the Entry accessors); the
	// table layout itself is rebuilt tombstone-free on restore.
	//imp:nosnap table layout, rebuilt on restore
	keys []uint64
	//imp:nosnap table layout, rebuilt on restore
	vals []Entry
	//imp:nosnap table layout, rebuilt on restore
	state []uint8
	//imp:nosnap table layout, rebuilt on restore
	live int // slotFull count
	//imp:nosnap table layout, rebuilt on restore
	dead int // slotTomb count
	//imp:nosnap the free-list entry the table came in, if any, reused to hand it back on Release
	listed *table
	//imp:nosnap scratch behind Action.Invalidate, dead once the caller has applied the Action
	inv [maxK]int
}

const initialSlots = 256

// table is the storage of one released directory, kept for the next New.
type table struct {
	keys  []uint64
	vals  []Entry
	state []uint8
}

// tables holds released directory tables of any size. A directory grows
// its table by doubling as lines arrive, so one taken from here starts at
// the size an earlier run of the sweep grew it to and does not rehash its
// way up again; table size is invisible to the protocol (lookups are by key
// and nothing iterates the table in slot order). sync.Pool lets the garbage
// collector bound what an idle process retains.
var tables sync.Pool // of *table

// New returns an empty directory with ACKwise_k tracking for numCores
// cores. k must be in [1, 8] so the precise sharer list stays inline.
func New(k, numCores int) *Directory {
	if k <= 0 || numCores <= 0 {
		panic(fmt.Sprintf("coherence: invalid directory (k=%d cores=%d)", k, numCores))
	}
	if k > maxK {
		panic(fmt.Sprintf("coherence: k=%d exceeds the inline sharer limit %d", k, maxK))
	}
	d := &Directory{k: k, numCores: numCores}
	if t, _ := tables.Get().(*table); t != nil {
		d.keys, d.vals, d.state, d.listed = t.keys, t.vals, t.state, t
		d.clearTable()
	} else {
		d.initTable(initialSlots)
	}
	return d
}

// Release surrenders the directory's table, at whatever size it has grown
// to, for a later New to take. The directory must not be used afterwards;
// releasing twice is harmless.
func (d *Directory) Release() {
	if d.state == nil {
		return
	}
	t := d.listed
	if t == nil {
		t = new(table)
	}
	*t = table{keys: d.keys, vals: d.vals, state: d.state}
	tables.Put(t)
	d.keys, d.vals, d.state, d.listed = nil, nil, nil, nil
}

func (d *Directory) initTable(n int) {
	d.keys = make([]uint64, n)
	d.vals = make([]Entry, n)
	d.state = make([]uint8, n)
	d.live, d.dead = 0, 0
}

// clearTable empties the table in place. Only the slot states need
// clearing: a key or entry is read only behind a slotFull state, and entry
// writes both when it fills a slot.
func (d *Directory) clearTable() {
	clear(d.state)
	d.live, d.dead = 0, 0
}

// hashLine is a 64-bit finalizer (splitmix64): line ids are near-sequential
// per slice, so identity hashing would pile everything into a probe run.
func hashLine(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// Stats returns a copy of the counters.
func (d *Directory) Stats() Stats { return d.stats }

// Entry returns the directory entry for lineID, or nil. The pointer is
// valid until the next directory mutation (the table may rehash).
func (d *Directory) Entry(lineID uint64) *Entry {
	if i := d.find(lineID); i >= 0 {
		return &d.vals[i]
	}
	return nil
}

// find returns the slot holding lineID, or -1.
func (d *Directory) find(lineID uint64) int {
	mask := uint64(len(d.keys) - 1)
	for i := hashLine(lineID) & mask; ; i = (i + 1) & mask {
		switch d.state[i] {
		case slotEmpty:
			return -1
		case slotFull:
			if d.keys[i] == lineID {
				return int(i)
			}
		}
	}
}

// entry returns the entry for lineID, creating it if absent.
func (d *Directory) entry(lineID uint64) *Entry {
	// Grow (or rehash away tombstones) before the load factor passes 3/4 so
	// the returned pointer stays valid until the next mutation.
	if 4*(d.live+d.dead+1) > 3*len(d.keys) {
		d.rehash()
	}
	mask := uint64(len(d.keys) - 1)
	firstTomb := -1
	for i := hashLine(lineID) & mask; ; i = (i + 1) & mask {
		switch d.state[i] {
		case slotEmpty:
			j := int(i)
			if firstTomb >= 0 {
				j = firstTomb
				d.dead--
			}
			d.keys[j] = lineID
			d.state[j] = slotFull
			d.vals[j] = Entry{owner: -1}
			d.live++
			return &d.vals[j]
		case slotFull:
			if d.keys[i] == lineID {
				return &d.vals[i]
			}
		case slotTomb:
			if firstTomb < 0 {
				firstTomb = int(i)
			}
		}
	}
}

// rehash rebuilds the table, doubling when genuinely full (not just
// tombstone-laden).
func (d *Directory) rehash() {
	n := len(d.keys)
	if 2*d.live >= n {
		n *= 2
	}
	oldKeys, oldVals, oldState := d.keys, d.vals, d.state
	d.initTable(n)
	mask := uint64(n - 1)
	for i, st := range oldState {
		if st != slotFull {
			continue
		}
		j := hashLine(oldKeys[i]) & mask
		for d.state[j] == slotFull {
			j = (j + 1) & mask
		}
		d.keys[j] = oldKeys[i]
		d.vals[j] = oldVals[i]
		d.state[j] = slotFull
		d.live++
	}
}

func (e *Entry) hasSharer(core int) bool {
	for _, s := range e.sharers[:e.ns] {
		if int(s) == core {
			return true
		}
	}
	return false
}

func (e *Entry) addSharer(core, k int) {
	if e.hasSharer(core) {
		return
	}
	e.count++
	if int(e.ns) < k {
		e.sharers[e.ns] = int16(core)
		e.ns++
		return
	}
	e.overflow = true
}

func (e *Entry) removeSharer(core int) {
	for i, s := range e.sharers[:e.ns] {
		if int(s) == core {
			copy(e.sharers[i:e.ns-1], e.sharers[i+1:e.ns])
			e.ns--
			if e.count > 0 {
				e.count--
			}
			return
		}
	}
	// Not tracked precisely: decrement the count if overflowed.
	if e.overflow && int(e.count) > int(e.ns) {
		e.count--
	}
}

func (e *Entry) clearSharers() {
	e.ns = 0
	e.count = 0
	e.overflow = false
}

// Read records core fetching the line in Shared state and returns the
// action required first (downgrading a remote owner, if any).
func (d *Directory) Read(lineID uint64, core int) Action {
	d.stats.Reads++
	e := d.entry(lineID)
	act := Action{DowngradeOwner: -1}
	if e.State == OwnedBy && int(e.owner) == core {
		// The owner reads its own modified line: an L1 hit; no state change.
		return act
	}
	if e.State == OwnedBy {
		act.DowngradeOwner = int(e.owner)
		act.WritebackDirty = true
		d.stats.Downgrades++
		// Owner becomes a sharer; the owned line counted its owner, so
		// reset before rebuilding the sharer set.
		prev := int(e.owner)
		e.State = SharedBy
		e.owner = -1
		e.clearSharers()
		e.addSharer(prev, d.k)
	}
	if e.State == Uncached {
		e.State = SharedBy
	}
	e.addSharer(core, d.k)
	return act
}

// Write records core fetching the line for writing (Modified) and returns
// the invalidations required.
func (d *Directory) Write(lineID uint64, core int) Action {
	d.stats.Writes++
	e := d.entry(lineID)
	act := Action{DowngradeOwner: -1}
	switch e.State {
	case OwnedBy:
		if int(e.owner) != core {
			act.DowngradeOwner = int(e.owner)
			act.WritebackDirty = true
			act.Invalidate = append(d.inv[:0], int(e.owner))
			act.Acks = 1
			d.stats.InvalidationsSent++
		}
	case SharedBy:
		if e.overflow {
			act.Broadcast = true
			act.Acks = int(e.count)
			if e.hasSharer(core) {
				// The requester does not ack itself. When the requester is a
				// sharer the directory stopped tracking (overflow), the extra
				// ack is a small over-count the protocol tolerates.
				act.Acks--
			}
			d.stats.Broadcasts++
			d.stats.InvalidationsSent += uint64(d.numCores - 1)
		} else {
			act.Invalidate = d.inv[:0]
			for _, s := range e.sharers[:e.ns] {
				if int(s) != core {
					act.Invalidate = append(act.Invalidate, int(s))
				}
			}
			act.Acks = len(act.Invalidate)
			d.stats.InvalidationsSent += uint64(len(act.Invalidate))
		}
	}
	e.State = OwnedBy
	e.owner = int16(core)
	e.clearSharers()
	e.count = 1
	return act
}

// EvictL1 records that core silently dropped its copy (L1 eviction notice),
// keeping the sharer list precise where possible.
func (d *Directory) EvictL1(lineID uint64, core int) {
	i := d.find(lineID)
	if i < 0 {
		return
	}
	e := &d.vals[i]
	if e.State == OwnedBy && int(e.owner) == core {
		e.State = Uncached
		e.owner = -1
		e.count = 0
		return
	}
	e.removeSharer(core)
	if e.count == 0 {
		e.State = Uncached
		e.overflow = false
	}
}

// EvictL2 removes the directory entry (the home L2 slice evicted the line)
// and returns the action needed to recall all cached copies.
func (d *Directory) EvictL2(lineID uint64) Action {
	act := Action{DowngradeOwner: -1}
	i := d.find(lineID)
	if i < 0 {
		return act
	}
	e := &d.vals[i]
	switch e.State {
	case OwnedBy:
		act.Invalidate = append(d.inv[:0], int(e.owner))
		act.Acks = 1
		act.WritebackDirty = true
		d.stats.InvalidationsSent++
	case SharedBy:
		if e.overflow {
			act.Broadcast = true
			act.Acks = int(e.count)
			d.stats.Broadcasts++
			d.stats.InvalidationsSent += uint64(d.numCores)
		} else {
			act.Invalidate = d.inv[:0]
			for _, s := range e.sharers[:e.ns] {
				act.Invalidate = append(act.Invalidate, int(s))
			}
			act.Acks = len(act.Invalidate)
			d.stats.InvalidationsSent += uint64(len(act.Invalidate))
		}
	}
	d.state[i] = slotTomb
	d.vals[i] = Entry{}
	d.live--
	d.dead++
	return act
}

// Lines returns the number of tracked lines (for tests).
func (d *Directory) Lines() int { return d.live }
