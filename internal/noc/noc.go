// Package noc models the on-chip interconnect of Table 1: a 2-D mesh with
// XY routing, 2-cycle hops (1 router + 1 link) and 64-bit flits.
//
// Bandwidth contention is modeled with per-directed-link occupancy: each
// link carries one flit per cycle, so a packet of F flits holds a link for
// F cycles, and later packets queue behind it. This is the same
// latency+contention abstraction Graphite uses — not flit-accurate wormhole
// switching, but it reproduces the bandwidth walls the paper's §2.2/§6.2
// discussion depends on.
package noc

import (
	"fmt"
	"math"
	"math/bits"
	"sort"

	"github.com/impsim/imp/internal/recycle"
)

// Config sizes the mesh.
type Config struct {
	Dim        int   // the mesh is Dim×Dim tiles
	HopLatency int64 // cycles per hop: 1 router + 1 link (Table 1: 2)
	FlitBytes  int   // flit width in bytes (Table 1: 64 bits = 8)
}

// DefaultConfig returns the paper's NoC parameters for an n-tile mesh.
// n must be a perfect square.
func DefaultConfig(n int) Config {
	d := intSqrt(n)
	if d*d != n {
		panic(fmt.Sprintf("noc: %d tiles is not a square mesh", n))
	}
	return Config{Dim: d, HopLatency: 2, FlitBytes: 8}
}

func intSqrt(n int) int {
	if n <= 0 {
		return 0
	}
	r := 1 << ((bits.Len(uint(n)) + 1) / 2)
	for r*r > n {
		r = (r + n/r) / 2
	}
	for (r+1)*(r+1) <= n {
		r++
	}
	return r
}

// Directions of the four output links of a router.
const (
	dirEast = iota
	dirWest
	dirNorth
	dirSouth
	numDirs
)

// Link bandwidth is modeled with per-link epoch rings: time is divided into
// epochs of epochCycles, each with a flit budget equal to its length
// (1 flit/cycle). A packet charges its flits to the earliest epoch at or
// after its arrival with room left, which yields bandwidth-accurate
// queueing while keeping the link available in idle gaps — reservations
// made at future times (chained prefetches, DRAM returns) cannot block
// earlier traffic the way a single busy-until watermark would.
const (
	epochCycles = 64
	epochRing   = 512 // per-link history horizon: 32k cycles
)

type link struct {
	epoch [epochRing]int64 // which epoch each slot currently tracks
	used  [epochRing]int32
	// hint is the earliest epoch that might still have room; epochs before
	// it were observed full. It makes saturated reservation scans O(1)
	// amortized at the cost of slightly conservative placement for small
	// packets.
	hint int64
}

// reserve charges flits to the link at time t and returns the departure
// time of the packet head. Slots are claimed lazily: a slot holding a
// different (stale) epoch is reset, so sparse far-apart reservations
// coexist without a global watermark.
func (l *link) reserve(t int64, flits int) int64 {
	e := t / epochCycles
	if l.hint > e {
		e = l.hint
	}
	for {
		// epochRing is a power of two; masking avoids a hot-path divide.
		slot := e & (epochRing - 1)
		if l.epoch[slot] != e {
			l.epoch[slot] = e
			l.used[slot] = 0
		}
		if int(l.used[slot])+flits <= epochCycles {
			l.used[slot] += int32(flits)
			if int(l.used[slot]) >= epochCycles-8 && e > l.hint {
				l.hint = e
			}
			depart := e * epochCycles
			if t > depart {
				depart = t
			}
			return depart
		}
		e++
	}
}

// Mesh is the interconnect state. Not safe for concurrent use.
type Mesh struct {
	//imp:nosnap configuration, fixed at construction
	cfg   Config
	links []link // per (tile, direction)
	//imp:nosnap the free-list entry links came from, kept to hand back on Release
	listed *[]link

	// Traffic accounting (paper Fig 12 reports NoC traffic).
	FlitHops  uint64 // flits × links traversed
	Packets   uint64
	DataBytes uint64 // payload bytes carried
}

// linkList holds the link rings of released meshes, filed by link count
// (~6 KB a link).
var linkList recycle.List[[]link]

// New builds an idle mesh from cfg. The link rings come from the free list
// when a released mesh of the same size left them there.
func New(cfg Config) *Mesh {
	m, recycled := newUncleared(cfg)
	if recycled {
		clear(m.links)
	}
	return m
}

// NewForRestore builds a mesh whose link rings hold unspecified contents:
// the caller must Restore into it before any other use. Restore overwrites
// every ring, so clearing recycled rings first would be wasted work.
func NewForRestore(cfg Config) *Mesh {
	m, _ := newUncleared(cfg)
	return m
}

func newUncleared(cfg Config) (m *Mesh, recycled bool) {
	if cfg.Dim <= 0 || cfg.HopLatency <= 0 || cfg.FlitBytes <= 0 {
		panic(fmt.Sprintf("noc: invalid config %+v", cfg))
	}
	n := cfg.Dim * cfg.Dim * numDirs
	e := linkList.Get(n)
	recycled = e != nil
	if e == nil {
		links := make([]link, n)
		e = &links
	}
	return &Mesh{cfg: cfg, links: *e, listed: e}, recycled
}

// Release surrenders the link rings to the free list. The mesh must not be
// used afterwards; releasing twice is harmless.
func (m *Mesh) Release() {
	linkList.Put(len(m.links), m.listed)
	m.listed, m.links = nil, nil
}

// Config returns the mesh configuration.
func (m *Mesh) Config() Config { return m.cfg }

// Tiles returns the number of tiles.
func (m *Mesh) Tiles() int { return m.cfg.Dim * m.cfg.Dim }

// XY returns the coordinates of tile id.
func (m *Mesh) XY(tile int) (x, y int) { return tile % m.cfg.Dim, tile / m.cfg.Dim }

// TileAt returns the tile id at (x, y).
func (m *Mesh) TileAt(x, y int) int { return y*m.cfg.Dim + x }

// Hops returns the XY-routing hop count between two tiles.
func (m *Mesh) Hops(src, dst int) int {
	sx, sy := m.XY(src)
	dx, dy := m.XY(dst)
	return abs(sx-dx) + abs(sy-dy)
}

func abs(v int) int {
	if v < 0 {
		return -v
	}
	return v
}

// Flits returns the number of flits in a packet carrying payloadBytes:
// one header flit plus the payload rounded up to whole flits.
func (m *Mesh) Flits(payloadBytes int) int {
	return 1 + (payloadBytes+m.cfg.FlitBytes-1)/m.cfg.FlitBytes
}

// Send models a packet with payloadBytes of data injected at tile src at
// time now, destined for dst. It returns the arrival time of the packet
// tail at dst, reserving link bandwidth along the XY route.
func (m *Mesh) Send(now int64, src, dst, payloadBytes int) int64 {
	flits := m.Flits(payloadBytes)
	m.Packets++
	m.DataBytes += uint64(payloadBytes)
	if src == dst {
		// Local delivery: no links traversed; one router traversal.
		return now + m.cfg.HopLatency
	}
	x, y := m.XY(src)
	dx, dy := m.XY(dst)
	t := now
	// XY routing: resolve X first, then Y.
	for x != dx {
		dir := dirEast
		nx := x + 1
		if dx < x {
			dir, nx = dirWest, x-1
		}
		t = m.traverse(t, m.TileAt(x, y), dir, flits)
		x = nx
	}
	for y != dy {
		dir := dirSouth
		ny := y + 1
		if dy < y {
			dir, ny = dirNorth, y-1
		}
		t = m.traverse(t, m.TileAt(x, y), dir, flits)
		y = ny
	}
	// Tail flit trails the head by flits-1 cycles of serialization.
	return t + int64(flits-1)
}

// traverse sends the packet head across one link, queuing when the link's
// epoch budget is exhausted, and returns the head's arrival time at the
// next router.
func (m *Mesh) traverse(t int64, tile, dir, flits int) int64 {
	depart := m.links[tile*numDirs+dir].reserve(t, flits)
	m.FlitHops += uint64(flits)
	return depart + m.cfg.HopLatency
}

// LatencyNoContention returns the uncontended latency of a packet from src
// to dst, for idealized configurations and tests.
func (m *Mesh) LatencyNoContention(src, dst, payloadBytes int) int64 {
	if src == dst {
		return m.cfg.HopLatency
	}
	hops := int64(m.Hops(src, dst))
	return hops*m.cfg.HopLatency + int64(m.Flits(payloadBytes)-1)
}

// ResetStats clears the traffic counters (not link state).
func (m *Mesh) ResetStats() {
	m.FlitHops, m.Packets, m.DataBytes = 0, 0, 0
}

// DiamondMCTiles returns the tiles hosting numMC memory controllers, placed
// in a diamond around the mesh center (Abts et al. [3]: diamond placement
// spreads traffic uniformly under XY routing). MCs are spaced evenly along
// Manhattan-distance rings of radius ~Dim/2.
func DiamondMCTiles(dim, numMC int) []int {
	if numMC <= 0 {
		return nil
	}
	if numMC > dim*dim {
		numMC = dim * dim
	}
	cx := float64(dim-1) / 2
	cy := float64(dim-1) / 2
	radius := float64(dim) / 2
	type cand struct {
		tile  int
		score float64 // distance from the ideal diamond ring
		angle float64
	}
	cands := make([]cand, 0, dim*dim)
	for y := 0; y < dim; y++ {
		for x := 0; x < dim; x++ {
			d := math.Abs(float64(x)-cx) + math.Abs(float64(y)-cy)
			cands = append(cands, cand{
				tile:  y*dim + x,
				score: math.Abs(d - radius),
				angle: math.Atan2(float64(y)-cy, float64(x)-cx),
			})
		}
	}
	// Keep the tiles closest to the ring, then spread picks across angles.
	sort.Slice(cands, func(i, j int) bool {
		if cands[i].score != cands[j].score {
			return cands[i].score < cands[j].score
		}
		return cands[i].angle < cands[j].angle
	})
	ring := cands
	if len(ring) > 4*numMC {
		ring = ring[:4*numMC]
	}
	sort.Slice(ring, func(i, j int) bool { return ring[i].angle < ring[j].angle })
	picked := make([]int, 0, numMC)
	seen := make(map[int]bool)
	for i := 0; i < numMC; i++ {
		j := i * len(ring) / numMC
		for seen[ring[j].tile] {
			j = (j + 1) % len(ring)
		}
		picked = append(picked, ring[j].tile)
		seen[ring[j].tile] = true
	}
	sort.Ints(picked)
	return picked
}
