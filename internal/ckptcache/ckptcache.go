// Package ckptcache holds simulator checkpoints (a finished cell's sealed
// metrics, some 150 bytes) in one process-wide internal/castore store. Its
// disk directory is the dir argument, else $IMP_CKPT_CACHE, else <user cache
// dir>/impsim/checkpoints (<temp dir>/impsim-checkpoints without one); "off"
// or "0" disables it. castore drops a damaged file on read, and the caller
// Evicts a blob that will not open; both count in Stats.Corrupt, and the
// cell cold-starts.
package ckptcache

import (
	"cmp"
	"os"
	"path/filepath"

	"github.com/impsim/imp/internal/castore"
)

// EnvDir is the environment variable overriding the disk cache directory.
const EnvDir = "IMP_CKPT_CACHE"

// Memory bounds: every cell of every table fits many times over; the byte
// cap binds only on blobs far larger than a cell's metrics.
const (
	maxMemEntries = 1 << 16
	maxMemBytes   = 64 << 20
)

// Stats counts cache outcomes since process start (or the last Flush).
type Stats = castore.Stats

var store = castore.New(maxMemEntries, maxMemBytes)

// Get returns the checkpoint under key, from memory or else from disk (dir
// "" defers to IMP_CKPT_CACHE / the default). The blob is shared: read-only.
// A memory hit, twice per cell of a warm table, resolves no directory.
func Get(key, dir string) ([]byte, bool) {
	if data, ok := store.Cached(key); ok {
		return data, true
	}
	return store.Get(key, diskDir(dir))
}

// Put publishes a checkpoint under key, into memory and best-effort onto
// disk, and takes ownership of data.
func Put(key, dir string, data []byte) { store.Put(key, diskDir(dir), data) }

// Evict drops a checkpoint that would not open from memory and disk, so the
// next request rebuilds it; each call counts in Stats.Corrupt.
func Evict(key, dir string) { store.Evict(key, diskDir(dir)) }

// GetStats returns a snapshot of the cache counters.
func GetStats() Stats { return store.Stats() }

// Flush empties the memory tier and zeroes the counters; disk is untouched.
func Flush() { store.Flush() }

// Dir reports the disk directory an override resolves to; ok is false when
// the disk layer is disabled.
func Dir(override string) (dir string, ok bool) {
	dir = diskDir(override)
	return dir, dir != ""
}

// diskDir resolves a dir argument to castore's: "" when the disk layer is off.
func diskDir(dir string) string {
	switch dir = cmp.Or(dir, os.Getenv(EnvDir)); dir {
	case "":
		if base, err := os.UserCacheDir(); err == nil {
			return filepath.Join(base, "impsim", "checkpoints")
		}
		return filepath.Join(os.TempDir(), "impsim-checkpoints")
	case "off", "OFF", "0", "false", "no":
		return ""
	}
	return dir
}
