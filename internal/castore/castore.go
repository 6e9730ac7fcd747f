// Package castore is the one content-addressed blob store, behind the
// checkpoint cache and the service's result store: an in-process LRU of byte
// blobs over a disk directory passed per call ("" for none). On disk a blob
// is one file, <key>.impresult, written through a temp file and a rename:
//
//	"impres01" | uint64 payload length | payload | CRC-32 (IEEE) of the payload
//
// (big endian). A file that fails that check on read is removed and counted
// in Stats.Corrupt; any other read error keeps the file. Either way the read
// is a miss. A disk that cannot be written leaves the store in memory.
package castore

import (
	"container/list"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"sync"
)

// The on-disk layout. Bump Magic's digits when the envelope changes, so old
// files read as corrupt rather than as payloads.
const (
	Ext       = ".impresult"   // file name suffix
	Magic     = "impres01"     // opens every file
	HeaderLen = len(Magic) + 8 // envelope bytes before the payload
	footerLen = 4
	keyChars  = "0123456789abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ_-"
)

var errCorrupt = errors.New("castore: corrupt entry")

// Stats counts store outcomes since New or the last Flush.
type Stats struct {
	MemHits   uint64 // gets served from memory
	DiskHits  uint64 // gets served from disk (and promoted into memory)
	Misses    uint64 // gets served from neither
	Puts      uint64
	DiskPuts  uint64 // puts persisted to disk
	DiskSkips uint64 // gets and puts that had no usable disk layer
	Corrupt   uint64 // files that failed their check on read, and Evicts
	Entries   int    // blobs in memory
	Bytes     int    // payload bytes in memory
}

// Store is safe for concurrent use. Blobs handed to Put and returned by Get
// are shared, and must be treated as read-only.
type Store struct {
	maxEntries, maxBytes int

	mu      sync.Mutex
	ll      list.List // of *entry, most recently used first
	entries map[string]*list.Element
	stats   Stats // Bytes kept current; Entries filled in by Stats()
}

type entry struct {
	key  string
	data []byte
}

// New returns a store of at most maxEntries blobs (at least one) and, when
// maxBytes > 0, maxBytes payload bytes; one blob over maxBytes is kept alone.
func New(maxEntries, maxBytes int) *Store {
	return &Store{maxEntries: max(maxEntries, 1), maxBytes: maxBytes, entries: make(map[string]*list.Element)}
}

// Cached returns the blob stored under key in memory; a miss is not counted.
func (s *Store) Cached(key string) ([]byte, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	el, ok := s.entries[key]
	if !ok {
		return nil, false
	}
	s.ll.MoveToFront(el)
	s.stats.MemHits++
	return el.Value.(*entry).data, true
}

// Get returns the blob stored under key: from memory, else from dir.
func (s *Store) Get(key, dir string) ([]byte, bool) {
	if data, ok := s.Cached(key); ok {
		return data, true
	}
	path, ok := entryPath(dir, key)
	var b []byte
	err := os.ErrNotExist
	if ok {
		if b, err = os.ReadFile(path); err == nil {
			if b, err = Open(b); err != nil {
				_ = os.Remove(path) // so it cannot greet the next read, or process
			}
		}
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	switch {
	case err == nil:
		s.stats.DiskHits++
		s.insertLocked(key, b)
		return b, true
	case !ok:
		s.stats.DiskSkips++
	case errors.Is(err, errCorrupt):
		s.stats.Corrupt++
	} // else absent, or transient trouble with an intact file
	s.stats.Misses++
	return nil, false
}

// Put publishes data under key, into memory and best-effort into dir, and
// takes ownership of data. An overwrite carries equal bytes.
func (s *Store) Put(key, dir string, data []byte) {
	path, ok := entryPath(dir, key)
	ok = ok && WriteFile(path, data) == nil
	s.mu.Lock()
	defer s.mu.Unlock()
	s.stats.Puts++
	if ok {
		s.stats.DiskPuts++
	} else {
		s.stats.DiskSkips++
	}
	s.insertLocked(key, data)
}

// Evict drops key from memory and dir, counted in Stats.Corrupt: the caller
// read the blob but could not use it, and the next request must rebuild it.
func (s *Store) Evict(key, dir string) {
	s.mu.Lock()
	if el, ok := s.entries[key]; ok {
		s.removeLocked(el)
	}
	s.stats.Corrupt++
	s.mu.Unlock()
	if path, ok := entryPath(dir, key); ok {
		_ = os.Remove(path)
	}
}

// Keys lists, sorted, the keys in memory and those of the well-named entry
// files in dir, skipping any other file; a file is only checked when read.
func (s *Store) Keys(dir string) []string {
	s.mu.Lock()
	out := make([]string, 0, len(s.entries))
	for key := range s.entries {
		out = append(out, key)
	}
	s.mu.Unlock()
	files, _ := os.ReadDir(dir) // none for dir ""
	for _, f := range files {
		if key, ok := strings.CutSuffix(f.Name(), Ext); ok && !f.IsDir() && validKey(key) {
			out = append(out, key)
		}
	}
	slices.Sort(out)
	return slices.Compact(out)
}

// Stats returns a snapshot of the counters.
func (s *Store) Stats() Stats {
	s.mu.Lock()
	defer s.mu.Unlock()
	st := s.stats
	st.Entries = len(s.entries)
	return st
}

// Flush empties memory and zeroes the counters; disk is untouched.
func (s *Store) Flush() {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.ll.Init()
	clear(s.entries)
	s.stats = Stats{}
}

// insertLocked makes key the most recently used entry, then evicts from the
// back beyond the caps, never the entry just inserted.
func (s *Store) insertLocked(key string, data []byte) {
	if el, ok := s.entries[key]; ok {
		e := el.Value.(*entry)
		s.stats.Bytes += len(data) - len(e.data)
		e.data = data
		s.ll.MoveToFront(el)
	} else {
		s.entries[key] = s.ll.PushFront(&entry{key, data})
		s.stats.Bytes += len(data)
	}
	for s.ll.Len() > 1 && (len(s.entries) > s.maxEntries || s.maxBytes > 0 && s.stats.Bytes > s.maxBytes) {
		s.removeLocked(s.ll.Back())
	}
}

func (s *Store) removeLocked(el *list.Element) {
	e := s.ll.Remove(el).(*entry)
	delete(s.entries, e.key)
	s.stats.Bytes -= len(e.data)
}

// validKey reports whether key is fit to name a file: 1 to 128 of keyChars.
func validKey(key string) bool {
	return len(key) > 0 && len(key) <= 128 && strings.Trim(key, keyChars) == ""
}

// entryPath returns key's file under dir; ok is false when there is none.
func entryPath(dir, key string) (path string, ok bool) {
	if dir == "" || !validKey(key) {
		return "", false
	}
	return filepath.Join(dir, key+Ext), true
}

// WriteFile writes data to path in the envelope, through a temp file in the
// same directory (created if missing) renamed into place.
func WriteFile(path string, data []byte) error {
	dir := filepath.Dir(path)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	f, err := os.CreateTemp(dir, "."+filepath.Base(path)+".tmp*")
	if err != nil {
		return err
	}
	var header [HeaderLen]byte
	binary.BigEndian.PutUint64(header[copy(header[:], Magic):], uint64(len(data)))
	for _, b := range [][]byte{header[:], data, binary.BigEndian.AppendUint32(nil, crc32.ChecksumIEEE(data))} {
		if err == nil {
			_, err = f.Write(b)
		}
	}
	if err = errors.Join(err, f.Close()); err == nil {
		err = os.Rename(f.Name(), path)
	}
	if err != nil {
		_ = os.Remove(f.Name())
	}
	return err
}

// Open checks an envelope and returns its payload, a subslice of b.
func Open(b []byte) ([]byte, error) {
	n := len(b) - HeaderLen - footerLen
	if n < 0 || string(b[:len(Magic)]) != Magic || binary.BigEndian.Uint64(b[len(Magic):]) != uint64(n) ||
		crc32.ChecksumIEEE(b[HeaderLen:HeaderLen+n]) != binary.BigEndian.Uint32(b[HeaderLen+n:]) {
		return nil, errCorrupt
	}
	return b[HeaderLen : HeaderLen+n], nil
}
