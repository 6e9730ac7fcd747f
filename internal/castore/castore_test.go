package castore

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"slices"
	"sync"
	"testing"
)

// key fabricates a well-formed key from i.
func key(i int) string { return fmt.Sprintf("%024x", i) }

// seal builds the envelope WriteFile writes, in memory.
func seal(p []byte) []byte {
	b := append([]byte(Magic), binary.BigEndian.AppendUint64(nil, uint64(len(p)))...)
	b = append(b, p...)
	return binary.BigEndian.AppendUint32(b, crc32.ChecksumIEEE(p))
}

func mustGet(t *testing.T, s *Store, k, dir string, want []byte) {
	t.Helper()
	got, ok := s.Get(k, dir)
	if !ok || !bytes.Equal(got, want) {
		t.Fatalf("Get(%s) = (%q, %v), want %q", k, got, ok, want)
	}
}

func wantStats(t *testing.T, s *Store, want Stats) {
	t.Helper()
	if got := s.Stats(); got != want {
		t.Fatalf("stats\n  got  %+v\n  want %+v", got, want)
	}
}

// TestLRUOrder: eviction removes the least recently *used* entry, with gets
// counting as use — not merely the oldest put.
func TestLRUOrder(t *testing.T) {
	s := New(3, 0)
	for i := 0; i < 3; i++ {
		s.Put(key(i), "", []byte{byte(i)})
	}
	mustGet(t, s, key(0), "", []byte{0}) // key 1 becomes the victim
	s.Put(key(3), "", []byte{3})
	if _, ok := s.Get(key(1), ""); ok {
		t.Error("key 1 (least recently used) survived eviction")
	}
	for _, i := range []int{0, 2, 3} {
		mustGet(t, s, key(i), "", []byte{byte(i)})
	}
	if st := s.Stats(); st.Entries != 3 || st.Bytes != 3 {
		t.Errorf("entries %d, bytes %d; want 3 and 3", st.Entries, st.Bytes)
	}
}

// TestOverwrite: re-putting a key replaces its bytes in place — no
// duplicate entry, no spurious eviction, bytes re-counted.
func TestOverwrite(t *testing.T) {
	s := New(2, 0)
	s.Put(key(0), "", []byte("v1"))
	s.Put(key(1), "", []byte("other"))
	s.Put(key(0), "", []byte("v2-longer"))
	if st := s.Stats(); st.Entries != 2 || st.Puts != 3 || st.Bytes != len("other")+len("v2-longer") {
		t.Fatalf("after overwrite: %+v", st)
	}
	mustGet(t, s, key(0), "", []byte("v2-longer"))
	mustGet(t, s, key(1), "", []byte("other"))
}

// TestCaps: both caps evict from the cold end; an entry alone over the byte
// cap is kept rather than leaving the store unable to hold it.
func TestCaps(t *testing.T) {
	s := New(3, 0)
	for i := 0; i < 5; i++ {
		s.Put(key(i), "", []byte{1})
	}
	if got := s.Keys(""); len(got) != 3 || slices.Contains(got, key(1)) {
		t.Errorf("entry cap 3 kept %v", got)
	}

	s = New(100, 8)
	for i := 0; i < 3; i++ {
		s.Put(key(i), "", make([]byte, 4))
	}
	if _, ok := s.Get(key(0), ""); ok {
		t.Error("byte cap 8 kept three 4-byte entries")
	}
	if st := s.Stats(); st.Entries != 2 || st.Bytes != 8 {
		t.Errorf("byte cap: %+v", st)
	}
	big := make([]byte, 100)
	s.Put(key(9), "", big)
	mustGet(t, s, key(9), "", big)
	if st := s.Stats(); st.Entries != 1 || st.Bytes != 100 {
		t.Errorf("an entry over the byte cap: %+v, want it kept alone", st)
	}
}

// TestRoundTrip: memory, then disk after the memory tier is dropped, then
// memory again once the disk hit is promoted.
func TestRoundTrip(t *testing.T) {
	dir := t.TempDir()
	s := New(4, 0)
	if _, ok := s.Get(key(7), dir); ok {
		t.Fatal("hit on an empty store")
	}
	s.Put(key(7), dir, []byte("payload"))
	mustGet(t, s, key(7), dir, []byte("payload"))
	wantStats(t, s, Stats{MemHits: 1, Misses: 1, Puts: 1, DiskPuts: 1, Entries: 1, Bytes: 7})

	s.Flush()
	mustGet(t, s, key(7), dir, []byte("payload"))
	mustGet(t, s, key(7), dir, []byte("payload"))
	wantStats(t, s, Stats{MemHits: 1, DiskHits: 1, Entries: 1, Bytes: 7})

	path, _ := entryPath(dir, key(7))
	b, err := os.ReadFile(path)
	if err != nil || !bytes.Equal(b, seal([]byte("payload"))) {
		t.Errorf("file %s holds %q (err %v), want the sealed payload", path, b, err)
	}
}

// TestEvict drops memory and disk and counts the entry as corrupt.
func TestEvict(t *testing.T) {
	dir := t.TempDir()
	s := New(4, 0)
	s.Put(key(1), dir, []byte("poisoned"))
	s.Evict(key(1), dir)
	if _, ok := s.Get(key(1), dir); ok {
		t.Fatal("evicted entry still served")
	}
	path, _ := entryPath(dir, key(1))
	if _, err := os.Stat(path); !os.IsNotExist(err) {
		t.Errorf("evicted file still on disk: %v", err)
	}
	if st := s.Stats(); st.Corrupt != 1 || st.Entries != 0 || st.Bytes != 0 {
		t.Errorf("after Evict: %+v", st)
	}
}

// TestCorruptFileRemovedOnce: a damaged file reads as a miss, is counted
// once and removed, so the next read is a plain miss.
func TestCorruptFileRemovedOnce(t *testing.T) {
	for name, damage := range map[string]func([]byte) []byte{
		"truncated":    func(b []byte) []byte { return b[:len(b)-3] },
		"flipped byte": func(b []byte) []byte { b[HeaderLen+2] ^= 0x01; return b },
	} {
		t.Run(name, func(t *testing.T) {
			dir := t.TempDir()
			s := New(4, 0)
			s.Put(key(1), dir, []byte("precious bytes"))
			path, _ := entryPath(dir, key(1))
			b, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(path, damage(b), 0o644); err != nil {
				t.Fatal(err)
			}
			s.Flush()
			for i := 0; i < 2; i++ {
				if _, ok := s.Get(key(1), dir); ok {
					t.Fatal("corrupt entry was served")
				}
			}
			wantStats(t, s, Stats{Misses: 2, Corrupt: 1})
			if _, err := os.Stat(path); !os.IsNotExist(err) {
				t.Errorf("corrupt file not removed: %v", err)
			}
		})
	}
}

// TestUnreadableFileKept: a read error that is not damage is a plain miss,
// and the intact file survives it.
func TestUnreadableFileKept(t *testing.T) {
	if os.Getuid() == 0 {
		t.Skip("root reads files regardless of their mode")
	}
	dir := t.TempDir()
	s := New(4, 0)
	s.Put(key(1), dir, []byte("intact"))
	path, _ := entryPath(dir, key(1))
	if err := os.Chmod(path, 0); err != nil {
		t.Fatal(err)
	}
	s.Flush()
	if _, ok := s.Get(key(1), dir); ok {
		t.Fatal("unreadable file served")
	}
	wantStats(t, s, Stats{Misses: 1})
	if err := os.Chmod(path, 0o644); err != nil {
		t.Fatalf("the file did not survive the failed read: %v", err)
	}
	mustGet(t, s, key(1), dir, []byte("intact"))
}

// TestUnusableDiskDegrades: no dir, a dir that cannot be created, and a key
// unfit as a file name all leave the store serving from memory.
func TestUnusableDiskDegrades(t *testing.T) {
	file := filepath.Join(t.TempDir(), "file")
	if err := os.WriteFile(file, nil, 0o644); err != nil {
		t.Fatal(err)
	}
	s := New(4, 0)
	s.Put(key(1), "", []byte("a"))
	s.Put(key(2), filepath.Join(file, "sub"), []byte("b")) // a dir under a file
	s.Put("../escape", t.TempDir(), []byte("c"))
	mustGet(t, s, key(1), "", []byte("a"))
	mustGet(t, s, key(2), "", []byte("b"))
	mustGet(t, s, "../escape", "", []byte("c"))
	if st := s.Stats(); st.DiskPuts != 0 || st.DiskSkips != 3 || st.Puts != 3 {
		t.Errorf("stats %+v: want 3 puts, all skipping disk", st)
	}
}

// TestKeys lists memory and well-named files, skipping everything else.
func TestKeys(t *testing.T) {
	dir := t.TempDir()
	s := New(4, 0)
	s.Put(key(1), dir, []byte("x"))
	s.Put(key(2), "", []byte("x"))
	for _, junk := range []string{"notes.txt", "." + key(3) + Ext + ".tmp123", "a.b" + Ext, "bad name" + Ext, Ext} {
		if err := os.WriteFile(filepath.Join(dir, junk), []byte("x"), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	if err := os.Mkdir(filepath.Join(dir, key(4)+Ext), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "disk-only"+Ext), []byte("x"), 0o644); err != nil {
		t.Fatal(err)
	}
	got := s.Keys(dir)
	slices.Sort(got)
	if want := []string{key(1), key(2), "disk-only"}; !slices.Equal(got, want) {
		t.Errorf("Keys(dir) = %v, want %v", got, want)
	}
	got = s.Keys("")
	slices.Sort(got)
	if want := []string{key(1), key(2)}; !slices.Equal(got, want) {
		t.Errorf("Keys(\"\") = %v, want %v", got, want)
	}
}

// TestConcurrent races Get, Put and Evict over a few keys (run with -race).
// Entries are content-addressed, so whatever a Get returns must be its key's
// one payload.
func TestConcurrent(t *testing.T) {
	dir := t.TempDir()
	s := New(4, 64)
	payload := func(k int) []byte { return bytes.Repeat([]byte{byte(k)}, 8+k) }
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				k := (g + i) % 6
				switch i % 5 {
				case 0, 1:
					s.Put(key(k), dir, payload(k))
				case 2:
					s.Evict(key(k), dir)
				default:
					if got, ok := s.Get(key(k), dir); ok && !bytes.Equal(got, payload(k)) {
						t.Errorf("key %d read %q", k, got)
					}
				}
			}
		}(g)
	}
	wg.Wait()
	st := s.Stats()
	sum := 0
	for _, k := range s.Keys("") {
		got, _ := s.Get(k, "")
		sum += len(got)
	}
	if st.Entries > 4 || st.Bytes > 64 || st.Bytes != sum {
		t.Errorf("after the race: %+v, memory holds %d bytes", st, sum)
	}
}

// TestReadsParentFile: a results file written by the previous result store
// (same envelope, same name) still serves, and a new write of the same
// payload reproduces it byte for byte.
func TestReadsParentFile(t *testing.T) {
	want := []byte(`{"results":[{"workload":"spmv","system":"imp","cycles":123456}]}` + "\n")
	old, err := os.ReadFile(filepath.Join("testdata", "parent"+Ext))
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	path, _ := entryPath(dir, key(5))
	if err := os.WriteFile(path, old, 0o644); err != nil {
		t.Fatal(err)
	}
	mustGet(t, New(4, 0), key(5), dir, want)
	if err := WriteFile(path, want); err != nil {
		t.Fatal(err)
	}
	if b, _ := os.ReadFile(path); !bytes.Equal(b, old) {
		t.Errorf("WriteFile wrote %x, the parent wrote %x", b, old)
	}
}

// TestMemHitAllocatesNothing: a memory hit sits on the warm-table path
// twice per cell, so it must not allocate.
func TestMemHitAllocatesNothing(t *testing.T) {
	s := New(4, 0)
	s.Put(key(1), "", []byte("x"))
	k := key(1)
	if n := testing.AllocsPerRun(100, func() { s.Get(k, "/nonexistent") }); n != 0 {
		t.Errorf("a memory hit allocates %v times", n)
	}
}

// BenchmarkStoreChurn measures put-with-eviction under steady churn; an O(n)
// victim scan per put would make it quadratic.
func BenchmarkStoreChurn(b *testing.B) {
	const maxEntries = 1024
	s := New(maxEntries, 0)
	keys := make([]string, 4*maxEntries)
	for i := range keys {
		keys[i] = key(i)
	}
	data := []byte("result bytes")
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Put(keys[i%len(keys)], "", data)
		s.Get(keys[(i*7)%len(keys)], "")
	}
}

// FuzzOpen: Open never panics, accepts only envelopes whose every field
// agrees with the input, and opens whatever seal builds.
func FuzzOpen(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		if p, err := Open(data); err == nil {
			if !bytes.Equal(seal(p), data) {
				t.Fatalf("Open accepted %x as an envelope of %x", data, p)
			}
		}
		p, err := Open(seal(data))
		if err != nil || !bytes.Equal(p, data) {
			t.Fatalf("sealed payload did not open (err %v)", err)
		}
	})
}
