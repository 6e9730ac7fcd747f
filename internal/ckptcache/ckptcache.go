// Package ckptcache stores simulator checkpoints through a two-level cache
// mirroring the trace cache (internal/progcache): an in-process LRU of blobs
// (a sweep's leaves read what their group just simulated) and an on-disk
// store (repeated sweeps across jobs — and, via result replication,
// eventually the fleet — reuse answers across processes). What the imp
// package checkpoints is a finished cell's metrics, some 150 bytes sealed by
// internal/sim; the cache takes any blob.
//
// The disk location is chosen as follows:
//
//   - an explicit dir argument stores checkpoints under it;
//   - IMP_CKPT_CACHE=<dir> stores them under <dir>;
//   - IMP_CKPT_CACHE=off (or "0") disables the disk layer;
//   - unset: <user cache dir>/impsim/checkpoints, falling back to
//     <temp dir>/impsim-checkpoints when no user cache dir exists.
//
// Keys are content addresses derived by the caller (the imp package covers
// the trace identity, the effective simulated system, the model version and
// the trace, generator and snapshot format versions), so a stale entry can
// only be a corrupted one — and blobs carry their own CRC'd envelope,
// verified when the simulator opens them. The cache itself stays
// byte-agnostic: a blob that fails to open is Evicted by the caller (counted
// in Stats.Corrupt) and the point cold-starts, so corruption never produces a
// wrong result. Files are written via temp-file-and-rename, so concurrent
// processes never observe partial checkpoints.
package ckptcache

import (
	"os"
	"path/filepath"
	"sync"
)

// EnvDir is the environment variable overriding the disk cache directory.
const EnvDir = "IMP_CKPT_CACHE"

// Memory-layer bounds. A cell's sealed metrics are ~150 bytes, so every cell
// of every table (13 tables x 7 kernels x a handful of systems) fits many
// times over and repeated sweeps are answered from memory; neither cap binds
// unless a process sees tens of thousands of distinct cells, or is handed
// machine snapshots (hundreds of KB each), which the byte cap bounds.
const (
	maxMemEntries = 1 << 16
	maxMemBytes   = 64 << 20
)

// Stats counts cache outcomes since process start (or the last Flush).
type Stats struct {
	MemHits  uint64
	DiskHits uint64
	Misses   uint64
	Puts     uint64
	// DiskSkips counts operations that ran with the disk layer disabled
	// or unusable.
	DiskSkips uint64
	// Corrupt counts entries evicted through Evict — blobs the simulator
	// refused to open (CRC mismatch, truncation, version or kind drift). The
	// caller falls back to a cold start, never a wrong result.
	Corrupt uint64
}

type entry struct {
	data    []byte
	lastUse uint64
}

var (
	mu       sync.Mutex
	entries  = map[string]*entry{}
	memBytes int
	useTick  uint64
	stats    Stats
)

// Get returns the checkpoint stored under key, if any: memory first, then
// the disk layer (a disk hit is promoted into memory). dir overrides the
// disk location ("" defers to IMP_CKPT_CACHE / the default). The returned
// blob is shared — callers must treat it as read-only.
func Get(key, dir string) ([]byte, bool) {
	mu.Lock()
	if e, ok := entries[key]; ok {
		stats.MemHits++
		useTick++
		e.lastUse = useTick
		mu.Unlock()
		return e.data, true
	}
	mu.Unlock()

	path, enabled := diskPath(key, dir)
	if !enabled {
		count(func(s *Stats) { s.DiskSkips++; s.Misses++ })
		return nil, false
	}
	data, err := os.ReadFile(path)
	if err != nil {
		count(func(s *Stats) { s.Misses++ })
		return nil, false
	}
	count(func(s *Stats) { s.DiskHits++ })
	storeMem(key, data)
	return data, true
}

// Put publishes a checkpoint under key: into memory, and best-effort onto
// disk (temp-file-and-rename; a full disk must not fail the sweep).
// Checkpoints are content-addressed, so concurrent Puts of one key write
// identical bytes and overwrites are idempotent. The cache takes ownership
// of data.
func Put(key, dir string, data []byte) {
	count(func(s *Stats) { s.Puts++ })
	storeMem(key, data)
	path, enabled := diskPath(key, dir)
	if !enabled {
		count(func(s *Stats) { s.DiskSkips++ })
		return
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		count(func(s *Stats) { s.DiskSkips++ })
		return
	}
	tmp, err := os.CreateTemp(filepath.Dir(path), "."+filepath.Base(path)+".tmp*")
	if err != nil {
		count(func(s *Stats) { s.DiskSkips++ })
		return
	}
	_, werr := tmp.Write(data)
	cerr := tmp.Close()
	if werr != nil || cerr != nil || os.Rename(tmp.Name(), path) != nil {
		_ = os.Remove(tmp.Name())
		count(func(s *Stats) { s.DiskSkips++ })
	}
}

// Evict drops key from memory and disk. Callers use it when a blob fails
// to open, so the next request rebuilds instead of re-tripping on the
// same poisoned bytes; each call is counted in Stats.Corrupt.
func Evict(key, dir string) {
	mu.Lock()
	if e, ok := entries[key]; ok {
		memBytes -= len(e.data)
		delete(entries, key)
	}
	stats.Corrupt++
	mu.Unlock()
	if path, enabled := diskPath(key, dir); enabled {
		_ = os.Remove(path)
	}
}

// storeMem inserts data under key and evicts least-recently-used entries
// beyond the caps.
func storeMem(key string, data []byte) {
	mu.Lock()
	defer mu.Unlock()
	if old, ok := entries[key]; ok {
		memBytes -= len(old.data)
	}
	useTick++
	entries[key] = &entry{data: data, lastUse: useTick}
	memBytes += len(data)
	for len(entries) > maxMemEntries || memBytes > maxMemBytes {
		victimKey := ""
		var victimUse uint64
		for k, e := range entries {
			if victimKey == "" || e.lastUse < victimUse {
				victimKey, victimUse = k, e.lastUse
			}
		}
		if victimKey == "" || victimKey == key && len(entries) == 1 {
			return // never evict the entry just inserted when it is alone
		}
		memBytes -= len(entries[victimKey].data)
		delete(entries, victimKey)
	}
}

func count(f func(*Stats)) {
	mu.Lock()
	f(&stats)
	mu.Unlock()
}

// diskPath resolves key's on-disk location; enabled is false when the disk
// layer is turned off (explicitly or by an unresolvable location).
func diskPath(key, dir string) (string, bool) {
	d, enabled := resolveDir(dir)
	if !enabled {
		return "", false
	}
	return filepath.Join(d, key+".impsnap"), true
}

// resolveDir resolves the disk cache directory from the explicit override,
// the environment, or the platform default ("off"/"0"-style values disable
// the layer, mirroring IMP_TRACE_CACHE).
func resolveDir(dir string) (string, bool) {
	if dir == "" {
		dir = os.Getenv(EnvDir)
	}
	switch dir {
	case "":
		if base, err := os.UserCacheDir(); err == nil {
			return filepath.Join(base, "impsim", "checkpoints"), true
		}
		return filepath.Join(os.TempDir(), "impsim-checkpoints"), true
	case "off", "OFF", "0", "false", "no":
		return "", false
	default:
		return dir, true
	}
}

// Dir reports the disk directory an override resolves to; ok is false when
// the disk layer is disabled.
func Dir(override string) (dir string, ok bool) { return resolveDir(override) }

// GetStats returns a snapshot of the cache counters.
func GetStats() Stats {
	mu.Lock()
	defer mu.Unlock()
	return stats
}

// Flush empties the in-process cache and resets counters (the disk layer
// is untouched). Intended for tests and benchmarks.
func Flush() {
	mu.Lock()
	defer mu.Unlock()
	entries = map[string]*entry{}
	memBytes = 0
	useTick = 0
	stats = Stats{}
}
