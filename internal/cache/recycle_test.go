package cache

import (
	"bytes"
	"runtime/debug"
	"sync"
	"testing"

	"github.com/impsim/imp/internal/recycle"
	"github.com/impsim/imp/internal/snap"
)

var recycleCfg = Config{SizeBytes: 32 << 10, Ways: 4, SectorBytes: 64}

// emptyFrameLists swaps the package's free list for an empty one, so the next
// New makes its frames.
func emptyFrameLists() { frameList = recycle.List[frames]{} }

// dirty fills every frame of c with valid, prefetched, partly touched lines.
func dirty(c *Cache) {
	for i := 0; i < 2*len(c.lines); i++ {
		c.Insert(uint64(i)*7+1, c.FullMask()&0x55, Modified, int64(i)+100, i%2 == 0)
		if ln := c.Probe(uint64(i)*7 + 1); ln != nil {
			MarkDemandUse(ln, 8, 16)
		}
	}
}

func snapshotOf(c *Cache) []byte {
	w := snap.NewWriter(1 << 12)
	c.Snapshot(w)
	return append([]byte(nil), w.Data()...)
}

// TestRecycledCacheEqualsFreshCache: frames released full of another
// geometry's lines come back from New indistinguishable from made ones, and
// from NewForRestore + Restore indistinguishable from the restored state.
func TestRecycledCacheEqualsFreshCache(t *testing.T) {
	defer debug.SetGCPercent(debug.SetGCPercent(-1)) // a collection may empty the lists
	emptyFrameLists()
	sectored := recycleCfg
	sectored.SectorBytes = 8

	fresh := New(recycleCfg)
	wantEmpty := snapshotOf(fresh)
	dirty(fresh)
	wantFull := snapshotOf(fresh) // fresh is never released: its frames stay its own

	old := New(sectored)
	dirty(old)
	frames := &old.lines[0]
	old.Release()
	old.Release() // twice is harmless: one set of frames, listed once

	c := New(recycleCfg)
	if !recycle.Lossy && &c.lines[0] != frames {
		t.Fatal("New did not take the released frames")
	}
	if got := snapshotOf(c); !bytes.Equal(got, wantEmpty) {
		t.Error("cache built on recycled frames is not empty")
	}
	if other := New(recycleCfg); &other.lines[0] == &c.lines[0] {
		t.Fatal("two caches share one set of frames")
	}
	dirty(c)
	if got := snapshotOf(c); !bytes.Equal(got, wantFull) {
		t.Error("cache built on recycled frames behaves differently from a fresh one")
	}
	c.Release()

	r := NewForRestore(sectored) // takes c's full-line frames as they are
	if err := r.Restore(snap.NewReader(wantEmpty)); err != nil {
		t.Fatal(err)
	}
	if got := snapshotOf(r); !bytes.Equal(got, wantEmpty) {
		t.Error("Restore into recycled frames left stale lines behind")
	}
	if res, _ := r.Lookup(1, r.FullMask()); res != Miss {
		t.Errorf("stale tag answers a lookup after Restore: %v", res)
	}
}

// TestRecycledCacheUseAfterReleasePanics: a released cache fails loudly
// rather than touching frames that may already belong to another cache.
func TestRecycledCacheUseAfterReleasePanics(t *testing.T) {
	c := New(recycleCfg)
	c.Release()
	defer func() {
		if recover() == nil {
			t.Error("Insert on a released cache did not panic")
		}
	}()
	c.Insert(1, c.FullMask(), Shared, 0, false)
}

// TestRecycledCachesExclusiveUnderConcurrency: caches built, filled and
// released from many goroutines at once each start empty and never share
// frames (the race detector sees any shared frame as a data race).
func TestRecycledCachesExclusiveUnderConcurrency(t *testing.T) {
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			cfg := recycleCfg
			if g%2 == 1 {
				cfg.SectorBytes = 8
			}
			for i := 0; i < 50; i++ {
				c := New(cfg)
				n := 0
				c.ForEachValid(func(*Line) { n++ })
				if n != 0 {
					t.Errorf("goroutine %d: new cache holds %d valid lines", g, n)
					return
				}
				dirty(c)
				c.Release()
			}
		}(g)
	}
	wg.Wait()
}

// TestRecycledNewAllocatesNoFrames: New after a Release of the same frame
// count allocates the Cache header and nothing else; a cold New also makes
// the two frame arrays and their list entry.
func TestRecycledNewAllocatesNoFrames(t *testing.T) {
	if recycle.Lossy {
		t.Skip("sync.Pool drops Puts at random under the race detector")
	}
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	New(recycleCfg).Release()
	if n := testing.AllocsPerRun(20, func() { New(recycleCfg).Release() }); n != 1 {
		t.Errorf("recycled New+Release: %v allocations, want 1", n)
	}
	if n := testing.AllocsPerRun(20, func() { emptyFrameLists(); New(recycleCfg).Release() }); n < 4 {
		t.Errorf("cold New+Release: %v allocations, want at least 4 (the comparison above proves nothing)", n)
	}
}

var sinkCache *Cache

// The L2 slice of a 16-core system: 8192 frames, 384 KB.
var benchCfg = Config{SizeBytes: 512 << 10, Ways: 8, SectorBytes: 64}

// BenchmarkNewCold builds a cache whose frames must be made: nothing is ever
// released, so the lists stay empty.
func BenchmarkNewCold(b *testing.B) {
	emptyFrameLists()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		sinkCache = New(benchCfg)
	}
}

// BenchmarkNewRecycled builds a cache on the frames the previous iteration
// released full of lines: take, clear, release.
func BenchmarkNewRecycled(b *testing.B) {
	c := New(benchCfg)
	dirty(c)
	c.Release()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sinkCache = New(benchCfg)
		sinkCache.Release()
	}
}
