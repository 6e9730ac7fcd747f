// Package cache implements the set-associative sector caches used for both
// L1 and the distributed L2 slices.
//
// Lines carry per-sector valid bits (§4.1 of the paper): a full-line cache
// is simply a sector cache with one 64-byte sector. Lines also carry a fill
// timestamp so the simulator can model late prefetches (a demand access to a
// line whose fill is still in flight stalls only for the residual latency),
// plus prefetched/used bits for accuracy accounting and an 8-byte-granular
// touch vector feeding IMP's Granularity Predictor.
package cache

import (
	"fmt"
	"math/bits"

	"github.com/impsim/imp/internal/mem"
	"github.com/impsim/imp/internal/recycle"
)

// State is the coherence state of a line. The directory protocol is MSI;
// Exclusive is folded into Modified as is conventional for simple models.
type State uint8

// Line states.
const (
	Invalid State = iota
	Shared
	Modified
)

func (s State) String() string {
	switch s {
	case Shared:
		return "S"
	case Modified:
		return "M"
	default:
		return "I"
	}
}

// SectorMask is a bitmask over the sectors of one line, bit i covering
// bytes [i*sectorBytes, (i+1)*sectorBytes).
type SectorMask uint8

// FullMask returns the mask covering all sectors of a line with the given
// sector size.
func FullMask(sectorBytes int) SectorMask {
	n := mem.LineSize / sectorBytes
	return SectorMask(1<<n - 1)
}

// MaskForRange returns the sector mask covering bytes
// [offset, offset+size) of a line. Computed arithmetically — this runs once
// per simulated access, where the per-sector loop showed up in profiles.
func MaskForRange(offset, size uint64, sectorBytes int) SectorMask {
	if size == 0 {
		size = 1
	}
	n := uint64(mem.LineSize / sectorBytes)
	lo := offset / uint64(sectorBytes)
	if lo >= n {
		return 0
	}
	hi := (offset + size - 1) / uint64(sectorBytes)
	if hi >= n {
		hi = n - 1
	}
	// Bits [lo, hi] set; hi < 8 so the shifts stay in range.
	return SectorMask((uint(1)<<(hi+1) - 1) &^ (uint(1)<<lo - 1))
}

// Count returns the number of sectors in the mask.
func (m SectorMask) Count() int { return bits.OnesCount8(uint8(m)) }

// Line is one cache frame. Fields are exported so the simulator and the
// Granularity Predictor can inspect evicted lines. Callers may flip State
// between Shared and Modified in place, but removing a line must go through
// Invalidate so the cache's tag index stays in sync.
type Line struct {
	Tag        uint64 // line id (address >> 6); meaningful only when State != Invalid
	State      State
	Valid      SectorMask
	FillTime   int64 // cycle at which the most recent fill completes
	Prefetched bool  // brought in by a prefetch and not yet demand-touched
	Used       bool  // demand-touched since fill
	Touch      uint8 // 8-byte words touched by demand accesses since fill
	lru        uint64
}

// Config sizes a cache.
type Config struct {
	SizeBytes   int // total capacity
	Ways        int
	SectorBytes int // 64 for a conventional cache; 8 (L1) or 32 (L2) sectored
}

// Validate checks that the configuration is internally consistent.
func (c Config) Validate() error {
	if c.SizeBytes <= 0 || c.Ways <= 0 {
		return fmt.Errorf("cache: non-positive size or ways: %+v", c)
	}
	if c.SizeBytes%(c.Ways*mem.LineSize) != 0 {
		return fmt.Errorf("cache: size %d not divisible by ways*linesize", c.SizeBytes)
	}
	switch c.SectorBytes {
	case 8, 16, 32, 64:
	default:
		return fmt.Errorf("cache: unsupported sector size %d", c.SectorBytes)
	}
	sets := c.SizeBytes / (c.Ways * mem.LineSize)
	if sets&(sets-1) != 0 {
		return fmt.Errorf("cache: set count %d not a power of two", sets)
	}
	return nil
}

// LookupResult describes the outcome of a cache access.
type LookupResult int

// Lookup outcomes.
const (
	// Miss: the line is not present at all.
	Miss LookupResult = iota
	// SectorMiss: the line is present but one or more requested sectors are
	// invalid (partial-line caches only).
	SectorMiss
	// Hit: line present with all requested sectors valid.
	Hit
)

func (r LookupResult) String() string {
	switch r {
	case Hit:
		return "hit"
	case SectorMiss:
		return "sector-miss"
	default:
		return "miss"
	}
}

// tagFree marks an empty frame in the tag array. Line ids are addresses
// shifted right by 6 within a 48-bit space, so no real line ever matches.
const tagFree = ^uint64(0)

// Cache is a single set-associative sector cache. It is not safe for
// concurrent use; the simulator serializes accesses.
//
// Tags live in a dense parallel array rather than in the Line frames: the
// way scan in find is the hottest loop of the whole simulator, and scanning
// packed uint64 tags touches one cacheline per set instead of one per way.
type Cache struct {
	//imp:nosnap geometry, reconstructed from Config at build
	cfg Config
	//imp:nosnap geometry, reconstructed from Config at build
	ways  int
	tags  []uint64 // numSets*ways; tagFree when the frame is Invalid
	lines []Line   // parallel to tags
	//imp:nosnap the free-list entry tags and lines came from, kept to hand back on Release
	listed *frames
	//imp:nosnap geometry, reconstructed from Config at build
	setMask uint64
	//imp:nosnap geometry, reconstructed from Config at build
	fullMask SectorMask
	clock    uint64
}

// frames is the storage of one cache: the parallel tag and line arrays.
type frames struct {
	tags  []uint64
	lines []Line
}

// frameList holds the frames of released caches, filed by frame count.
// Frames are 84% of the bytes a simulated system is built from, so they are
// recycled across systems rather than made and zeroed per cell.
var frameList recycle.List[frames]

// New builds an empty cache from cfg; it panics on invalid configuration,
// which is a programming error in experiment setup. The frames come from the
// free list when a released cache of the same frame count left them there.
func New(cfg Config) *Cache {
	c, recycled := newUncleared(cfg)
	if recycled {
		clear(c.lines)
	}
	for i := range c.tags {
		c.tags[i] = tagFree
	}
	return c
}

// NewForRestore builds a cache whose frames hold unspecified contents: the
// caller must Restore into it before any other use. Restore overwrites every
// frame, so clearing recycled frames first would be wasted work.
func NewForRestore(cfg Config) *Cache {
	c, _ := newUncleared(cfg)
	return c
}

func newUncleared(cfg Config) (c *Cache, recycled bool) {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	numSets := cfg.SizeBytes / (cfg.Ways * mem.LineSize)
	n := numSets * cfg.Ways
	f := frameList.Get(n)
	recycled = f != nil
	if f == nil {
		f = &frames{tags: make([]uint64, n), lines: make([]Line, n)}
	}
	return &Cache{
		cfg:      cfg,
		ways:     cfg.Ways,
		tags:     f.tags,
		lines:    f.lines,
		listed:   f,
		setMask:  uint64(numSets - 1),
		fullMask: FullMask(cfg.SectorBytes),
	}, recycled
}

// Release surrenders the cache's frames to the free list. The cache must
// not be used afterwards (any access panics rather than touching frames
// another cache may already own); releasing twice is harmless.
func (c *Cache) Release() {
	frameList.Put(len(c.lines), c.listed)
	c.listed, c.tags, c.lines = nil, nil, nil
}

// Config returns the cache's configuration.
func (c *Cache) Config() Config { return c.cfg }

// NumSets returns the number of sets.
func (c *Cache) NumSets() int { return len(c.tags) / c.ways }

// SectorsPerLine returns the number of sectors in each line.
func (c *Cache) SectorsPerLine() int { return mem.LineSize / c.cfg.SectorBytes }

// FullMask returns the all-sectors mask for this cache.
func (c *Cache) FullMask() SectorMask { return c.fullMask }

// MaskFor returns the sector mask an access of size bytes at addr needs.
func (c *Cache) MaskFor(addr mem.Addr, size int) SectorMask {
	return MaskForRange(addr.Offset(), uint64(size), c.cfg.SectorBytes)
}

// setBase returns the first frame index of lineID's set.
func (c *Cache) setBase(lineID uint64) int { return int(lineID&c.setMask) * c.ways }

// find returns the frame holding lineID, or nil.
func (c *Cache) find(lineID uint64) *Line {
	base := c.setBase(lineID)
	tags := c.tags[base : base+c.ways]
	for i, tg := range tags {
		if tg == lineID {
			return &c.lines[base+i]
		}
	}
	return nil
}

// Probe returns the frame holding lineID without updating replacement
// state, or nil if absent.
func (c *Cache) Probe(lineID uint64) *Line { return c.find(lineID) }

// Lookup accesses the sectors in need of lineID, updating LRU on presence.
// It reports the outcome and the frame (nil on Miss). For a write
// (needStore), a Shared line reports SectorMiss semantics via the
// upgradeNeeded result instead; callers check State themselves, so Lookup
// only concerns data presence.
func (c *Cache) Lookup(lineID uint64, need SectorMask) (LookupResult, *Line) {
	ln := c.find(lineID)
	if ln == nil {
		return Miss, nil
	}
	c.clock++
	ln.lru = c.clock
	if ln.Valid&need != need {
		return SectorMiss, ln
	}
	return Hit, ln
}

// MarkDemandUse records a demand access of the 8-byte words covering
// [offset, offset+size) on a line: sets Used, clears the
// not-yet-demand-touched prefetch marker, and accumulates the touch vector.
// It returns true if this was the first demand touch of a prefetched line
// (the event accuracy accounting counts as a "useful prefetch").
func MarkDemandUse(ln *Line, offset, size uint64) (firstUseOfPrefetch bool) {
	if size == 0 {
		size = 1
	}
	lo := offset / 8
	hi := (offset + size - 1) / 8
	for i := lo; i <= hi && i < 8; i++ {
		ln.Touch |= 1 << i
	}
	firstUseOfPrefetch = ln.Prefetched && !ln.Used
	ln.Used = true
	return firstUseOfPrefetch
}

// Eviction describes a line displaced by Insert.
type Eviction struct {
	LineID     uint64
	State      State
	Valid      SectorMask
	Prefetched bool // was prefetched and never demand-used
	Used       bool
	Touch      uint8
}

// Insert places lineID with the given sectors, state and fill time,
// evicting the LRU frame if the set is full. If the line is already
// present, the sectors and state are merged instead (a sector fill) and the
// fill time advances to the later of the two.
// The returned eviction has State != Invalid only when a valid line was
// displaced.
func (c *Cache) Insert(lineID uint64, sectors SectorMask, st State, fillTime int64, prefetched bool) Eviction {
	if ln := c.find(lineID); ln != nil {
		ln.Valid |= sectors
		if st > ln.State {
			ln.State = st
		}
		if fillTime > ln.FillTime {
			ln.FillTime = fillTime
		}
		c.clock++
		ln.lru = c.clock
		return Eviction{}
	}
	base := c.setBase(lineID)
	set := c.lines[base : base+c.ways]
	// Prefer a free way (cheap tag scan); otherwise evict the LRU frame.
	vi := -1
	for i, tg := range c.tags[base : base+c.ways] {
		if tg == tagFree {
			vi = i
			break
		}
	}
	if vi < 0 {
		vi = 0
		for i := 1; i < len(set); i++ {
			if set[i].lru < set[vi].lru {
				vi = i
			}
		}
	}
	victim := &set[vi]
	ev := Eviction{}
	if victim.State != Invalid {
		ev = Eviction{
			LineID:     victim.Tag,
			State:      victim.State,
			Valid:      victim.Valid,
			Prefetched: victim.Prefetched && !victim.Used,
			Used:       victim.Used,
			Touch:      victim.Touch,
		}
	}
	c.clock++
	*victim = Line{
		Tag: lineID, State: st, Valid: sectors, FillTime: fillTime,
		Prefetched: prefetched, lru: c.clock,
	}
	c.tags[base+vi] = lineID
	return ev
}

// Invalidate removes lineID (coherence invalidation). It returns the line's
// prior state (Invalid if it was not present) and whether the line was a
// never-used prefetch.
func (c *Cache) Invalidate(lineID uint64) (State, bool) {
	base := c.setBase(lineID)
	tags := c.tags[base : base+c.ways]
	for i, tg := range tags {
		if tg != lineID {
			continue
		}
		ln := &c.lines[base+i]
		st := ln.State
		wasted := ln.Prefetched && !ln.Used
		*ln = Line{}
		tags[i] = tagFree
		return st, wasted
	}
	return Invalid, false
}

// Downgrade moves lineID from Modified to Shared (directory recall),
// reporting whether the line was present and modified.
func (c *Cache) Downgrade(lineID uint64) bool {
	ln := c.find(lineID)
	if ln == nil || ln.State != Modified {
		return false
	}
	ln.State = Shared
	return true
}

// ForEachValid calls fn for every valid line. Used by tests and end-of-run
// accuracy accounting (prefetched lines still resident count as unused).
func (c *Cache) ForEachValid(fn func(*Line)) {
	for i := range c.lines {
		if c.lines[i].State != Invalid {
			fn(&c.lines[i])
		}
	}
}
