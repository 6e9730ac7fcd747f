package noc

import (
	"bytes"
	"runtime/debug"
	"testing"
	"testing/quick"

	"github.com/impsim/imp/internal/recycle"
	"github.com/impsim/imp/internal/snap"
)

func TestDefaultConfig(t *testing.T) {
	for _, n := range []int{16, 64, 256} {
		cfg := DefaultConfig(n)
		if cfg.Dim*cfg.Dim != n {
			t.Errorf("DefaultConfig(%d).Dim = %d", n, cfg.Dim)
		}
		if cfg.HopLatency != 2 || cfg.FlitBytes != 8 {
			t.Errorf("DefaultConfig(%d) = %+v, want 2-cycle hops, 8B flits", n, cfg)
		}
	}
}

func TestDefaultConfigRejectsNonSquare(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("DefaultConfig(12) did not panic")
		}
	}()
	DefaultConfig(12)
}

func TestIntSqrt(t *testing.T) {
	for n := 0; n < 1000; n++ {
		r := intSqrt(n)
		if r*r > n || (r+1)*(r+1) <= n {
			t.Fatalf("intSqrt(%d) = %d", n, r)
		}
	}
}

func TestXYRoundTrip(t *testing.T) {
	m := New(DefaultConfig(64))
	for id := 0; id < 64; id++ {
		x, y := m.XY(id)
		if m.TileAt(x, y) != id {
			t.Errorf("TileAt(XY(%d)) = %d", id, m.TileAt(x, y))
		}
		if x < 0 || x >= 8 || y < 0 || y >= 8 {
			t.Errorf("XY(%d) = (%d,%d) out of range", id, x, y)
		}
	}
}

func TestHopsManhattan(t *testing.T) {
	m := New(DefaultConfig(64)) // 8x8
	cases := []struct {
		src, dst, want int
	}{
		{0, 0, 0},
		{0, 7, 7},   // along the top row
		{0, 56, 7},  // down the left column
		{0, 63, 14}, // corner to corner
		{m.TileAt(3, 4), m.TileAt(5, 1), 2 + 3},
	}
	for _, c := range cases {
		if got := m.Hops(c.src, c.dst); got != c.want {
			t.Errorf("Hops(%d,%d) = %d, want %d", c.src, c.dst, got, c.want)
		}
		if got := m.Hops(c.dst, c.src); got != c.want {
			t.Errorf("Hops(%d,%d) = %d, want %d (symmetry)", c.dst, c.src, got, c.want)
		}
	}
}

func TestFlitsCount(t *testing.T) {
	m := New(DefaultConfig(16))
	cases := []struct{ payload, want int }{
		{0, 1},  // header only
		{1, 2},  // header + 1 data flit
		{8, 2},  //
		{9, 3},  //
		{64, 9}, // full cacheline: 1 + 8
		{32, 5}, // half line: 1 + 4
		{16, 3}, //
	}
	for _, c := range cases {
		if got := m.Flits(c.payload); got != c.want {
			t.Errorf("Flits(%d) = %d, want %d", c.payload, got, c.want)
		}
	}
}

func TestUncontendedLatency(t *testing.T) {
	m := New(DefaultConfig(64))
	// Control packet (0B payload) across 14 hops: 14*2 + 0 tail cycles.
	if got := m.Send(0, 0, 63, 0); got != 28 {
		t.Errorf("corner-to-corner control packet = %d, want 28", got)
	}
	m2 := New(DefaultConfig(64))
	// Full line (9 flits) over 1 hop: 2 + 8 serialization.
	if got := m2.Send(0, 0, 1, 64); got != 10 {
		t.Errorf("one-hop data packet = %d, want 10", got)
	}
	if got := m2.LatencyNoContention(0, 1, 64); got != 10 {
		t.Errorf("LatencyNoContention = %d, want 10", got)
	}
}

func TestLocalDelivery(t *testing.T) {
	m := New(DefaultConfig(16))
	if got := m.Send(100, 5, 5, 64); got != 102 {
		t.Errorf("local delivery = %d, want 102 (router latency only)", got)
	}
	if m.FlitHops != 0 {
		t.Errorf("local delivery consumed %d flit-hops, want 0", m.FlitHops)
	}
}

func TestContentionQueues(t *testing.T) {
	m := New(DefaultConfig(16))
	// The link budget is one flit per cycle, accounted in epochs: pushing
	// far more than an epoch's worth of full-line packets (9 flits each)
	// through one link must spill later packets into later epochs.
	var last int64
	for i := 0; i < 32; i++ {
		last = m.Send(0, 0, 1, 64) // 32*9 = 288 flits >> 64/epoch
	}
	uncontended := New(DefaultConfig(16)).Send(0, 0, 1, 64)
	if last < uncontended+3*64 {
		t.Errorf("saturated link: last packet at %d, want >= %d (queued epochs)",
			last, uncontended+3*64)
	}
	// A packet on a different link is unaffected.
	m2 := New(DefaultConfig(16))
	m2.Send(0, 0, 1, 64)
	far := m2.Send(0, 15, 14, 64)
	if far != 10 {
		t.Errorf("uncontended far packet = %d, want 10", far)
	}
}

func TestLinkIdleGapsUsable(t *testing.T) {
	m := New(DefaultConfig(16))
	// A reservation far in the future must not delay earlier traffic.
	m.Send(1_000_000, 0, 1, 64)
	early := m.Send(100, 0, 1, 64)
	if early != 110 {
		t.Errorf("early packet after future reservation = %d, want 110", early)
	}
}

func TestTrafficAccounting(t *testing.T) {
	m := New(DefaultConfig(16))
	m.Send(0, 0, 3, 64) // 3 hops × 9 flits
	if m.FlitHops != 27 {
		t.Errorf("FlitHops = %d, want 27", m.FlitHops)
	}
	if m.DataBytes != 64 || m.Packets != 1 {
		t.Errorf("DataBytes=%d Packets=%d, want 64/1", m.DataBytes, m.Packets)
	}
	m.ResetStats()
	if m.FlitHops != 0 || m.DataBytes != 0 || m.Packets != 0 {
		t.Error("ResetStats did not clear counters")
	}
}

func TestPartialLineUsesFewerFlits(t *testing.T) {
	full := New(DefaultConfig(16))
	part := New(DefaultConfig(16))
	full.Send(0, 0, 3, 64)
	part.Send(0, 0, 3, 8) // one 8B sector
	if part.FlitHops >= full.FlitHops {
		t.Errorf("partial transfer flit-hops %d not below full %d", part.FlitHops, full.FlitHops)
	}
}

func TestSendMonotonicInTime(t *testing.T) {
	f := func(start uint16, srcRaw, dstRaw uint8, payload uint8) bool {
		m := New(DefaultConfig(64))
		src := int(srcRaw) % 64
		dst := int(dstRaw) % 64
		now := int64(start)
		arr := m.Send(now, src, dst, int(payload)%65)
		return arr >= now+m.Config().HopLatency
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestDiamondMCPlacement(t *testing.T) {
	for _, tc := range []struct{ dim, mc int }{{4, 4}, {8, 8}, {16, 16}} {
		tiles := DiamondMCTiles(tc.dim, tc.mc)
		if len(tiles) != tc.mc {
			t.Fatalf("dim=%d: got %d MC tiles, want %d", tc.dim, len(tiles), tc.mc)
		}
		seen := make(map[int]bool)
		for _, tile := range tiles {
			if tile < 0 || tile >= tc.dim*tc.dim {
				t.Errorf("dim=%d: tile %d out of range", tc.dim, tile)
			}
			if seen[tile] {
				t.Errorf("dim=%d: duplicate MC tile %d", tc.dim, tile)
			}
			seen[tile] = true
		}
		// Diamond placement must not cluster all MCs in one row.
		rows := make(map[int]bool)
		for _, tile := range tiles {
			rows[tile/tc.dim] = true
		}
		if len(rows) < 2 {
			t.Errorf("dim=%d: all MCs in one row: %v", tc.dim, tiles)
		}
	}
}

func TestDiamondMCEdgeCases(t *testing.T) {
	if got := DiamondMCTiles(4, 0); got != nil {
		t.Errorf("0 MCs = %v, want nil", got)
	}
	if got := DiamondMCTiles(2, 100); len(got) != 4 {
		t.Errorf("over-asking returns %d tiles, want all 4", len(got))
	}
}

func snapshotOf(m *Mesh) []byte {
	w := snap.NewWriter(1 << 12)
	m.Snapshot(w)
	return append([]byte(nil), w.Data()...)
}

// traffic loads the mesh with enough packets to queue on links.
func traffic(m *Mesh) {
	n := m.Tiles()
	for i := 0; i < 4000; i++ {
		m.Send(int64(i*3), i%n, (i*7+3)%n, (i%3)*32)
	}
}

// TestRecycledMeshEqualsFreshMesh: link rings released full of another
// run's reservations come back from New idle, and from NewForRestore +
// Restore holding exactly the restored state.
func TestRecycledMeshEqualsFreshMesh(t *testing.T) {
	defer debug.SetGCPercent(debug.SetGCPercent(-1)) // a collection may empty the list
	linkList = recycle.List[[]link]{}
	cfg := DefaultConfig(16)
	fresh := New(cfg)
	idle := snapshotOf(fresh)
	traffic(fresh)
	want := snapshotOf(fresh)
	rings := &fresh.links[0]
	fresh.Release()
	fresh.Release() // twice is harmless

	m := New(cfg)
	if !recycle.Lossy && &m.links[0] != rings {
		t.Fatal("New did not take the released rings")
	}
	if got := snapshotOf(m); !bytes.Equal(got, idle) {
		t.Error("mesh built on recycled rings is not idle")
	}
	if other := New(cfg); &other.links[0] == &m.links[0] {
		t.Fatal("two meshes share one set of rings")
	}
	traffic(m)
	if got := snapshotOf(m); !bytes.Equal(got, want) {
		t.Error("mesh on recycled rings queued differently from a fresh one")
	}
	m.Release()

	r := NewForRestore(cfg) // takes m's loaded rings as they are
	if err := r.Restore(snap.NewReader(idle)); err != nil {
		t.Fatal(err)
	}
	if got := snapshotOf(r); !bytes.Equal(got, idle) {
		t.Error("Restore into recycled rings left stale reservations behind")
	}
}
