package ckptcache

// Tests of the shim: directory resolution and the caps it configures. The
// store itself is tested in internal/castore.

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"github.com/impsim/imp/internal/castore"
)

func TestMemAndDiskRoundTrip(t *testing.T) {
	Flush()
	defer Flush()
	dir := t.TempDir()

	if _, ok := Get("k1", dir); ok {
		t.Fatal("hit on empty cache")
	}
	blob := []byte("checkpoint-bytes")
	Put("k1", dir, blob)

	got, ok := Get("k1", dir)
	if !ok || !bytes.Equal(got, blob) {
		t.Fatalf("mem get = (%q, %v)", got, ok)
	}
	// A fresh process (simulated by flushing memory) must hit via disk.
	Flush()
	got, ok = Get("k1", dir)
	if !ok || !bytes.Equal(got, blob) {
		t.Fatalf("disk get = (%q, %v)", got, ok)
	}
	s := GetStats()
	if s.DiskHits != 1 {
		t.Errorf("DiskHits = %d, want 1", s.DiskHits)
	}
	// The disk hit was promoted: the next read is a memory hit.
	if _, ok := Get("k1", dir); !ok {
		t.Fatal("promoted entry missing")
	}
	if s := GetStats(); s.MemHits != 1 {
		t.Errorf("MemHits = %d, want 1", s.MemHits)
	}
}

func TestDiskDisabled(t *testing.T) {
	Flush()
	defer Flush()
	Put("k", "off", []byte("x"))
	Flush()
	if _, ok := Get("k", "off"); ok {
		t.Fatal("entry survived a flush with the disk layer off")
	}
	if s := GetStats(); s.DiskSkips == 0 {
		t.Error("disk-off operations not counted in DiskSkips")
	}
}

func TestEnvOverride(t *testing.T) {
	Flush()
	defer Flush()
	dir := t.TempDir()
	t.Setenv(EnvDir, dir)
	Put("k", "", []byte("x"))
	if _, err := os.Stat(filepath.Join(dir, "k"+castore.Ext)); err != nil {
		t.Fatalf("checkpoint not under IMP_CKPT_CACHE dir: %v", err)
	}
	t.Setenv(EnvDir, "off")
	if _, ok := Dir(""); ok {
		t.Error("Dir reported the disk layer enabled under IMP_CKPT_CACHE=off")
	}
	if d, ok := Dir(dir); !ok || d != dir {
		t.Errorf("explicit override lost: Dir = (%q, %v)", d, ok)
	}
}

func TestEvictDropsBothLayers(t *testing.T) {
	Flush()
	defer Flush()
	dir := t.TempDir()
	Put("bad", dir, []byte("poisoned"))
	Evict("bad", dir)
	if _, ok := Get("bad", dir); ok {
		t.Fatal("evicted entry still served")
	}
	if _, err := os.Stat(filepath.Join(dir, "bad"+castore.Ext)); !os.IsNotExist(err) {
		t.Errorf("evicted file still on disk: %v", err)
	}
	if s := GetStats(); s.Corrupt != 1 {
		t.Errorf("Corrupt = %d, want 1", s.Corrupt)
	}
}

func TestMemLRUEviction(t *testing.T) {
	mb := make([]byte, 1<<20) // one blob put under many keys: the cap counts it each time
	for name, c := range map[string]struct {
		puts int
		blob []byte
	}{
		"entry cap": {maxMemEntries + 8, []byte{1}},
		"byte cap":  {maxMemBytes>>20 + 8, mb},
	} {
		Flush()
		// Disk off: eviction must actually lose the oldest entries.
		for i := 0; i < c.puts; i++ {
			Put(fmt.Sprintf("k%06d", i), "off", c.blob)
		}
		if _, ok := Get("k000000", "off"); ok {
			t.Errorf("%s: oldest entry survived past it", name)
		}
		if _, ok := Get(fmt.Sprintf("k%06d", c.puts-1), "off"); !ok {
			t.Errorf("%s: newest entry was evicted", name)
		}
	}
	Flush()
}

// TestMemHoldsAWholeEvaluation: the memory tier is sized for what sweeps
// store in it — a cell's sealed metrics, ~150 bytes. Every cell of a full
// evaluation (13 tables x 7 kernels x up to 5 systems) stays in memory, so a
// repeated sweep is answered without touching the disk.
func TestMemHoldsAWholeEvaluation(t *testing.T) {
	Flush()
	defer Flush()
	const cells = 13 * 7 * 5
	for i := 0; i < cells; i++ {
		Put(fmt.Sprintf("cell%04d", i), "off", make([]byte, 150))
	}
	for i := 0; i < cells; i++ {
		if _, ok := Get(fmt.Sprintf("cell%04d", i), "off"); !ok {
			t.Fatalf("cell %d of %d fell out of the memory tier", i, cells)
		}
	}
}

// TestMemHitResolvesNoDir: a memory hit, twice per cell of a warm table,
// neither reads the environment nor builds the default directory's path.
func TestMemHitResolvesNoDir(t *testing.T) {
	Flush()
	defer Flush()
	t.Setenv(EnvDir, "") // the default directory is the one whose path allocates
	Put("k", "off", []byte("x"))
	if n := testing.AllocsPerRun(100, func() { Get("k", "") }); n != 0 {
		t.Errorf("a memory hit allocates %v times", n)
	}
}
