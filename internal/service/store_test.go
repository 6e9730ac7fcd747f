package service

// Tests for the service's result store (an internal/castore store, whose
// own tests cover it in depth): how Config.StoreEntries and
// Config.ResultsDir shape it, what its counters read in /v1/stats, the
// /v1/results/{key} replication surface, and warm restart from disk.

import (
	"bytes"
	"context"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"
)

// testKey fabricates a well-formed result key (24 hex chars) from i.
func testKey(i int) string { return fmt.Sprintf("%024x", i) }

// storeAll publishes each key's payload through the replication surface.
func storeAll(t *testing.T, svc *Service, kv map[string]string) {
	t.Helper()
	for k, v := range kv {
		if err := svc.StoreResult(k, []byte(v)); err != nil {
			t.Fatal(err)
		}
	}
}

// TestStoreLRUEvictionOrder: Config.StoreEntries caps the memory tier, and
// eviction removes the least recently *used* result, with gets counting as
// use — not merely the oldest put.
func TestStoreLRUEvictionOrder(t *testing.T) {
	svc, _ := startService(t, Config{StoreEntries: 3})
	for i := 0; i < 3; i++ {
		storeAll(t, svc, map[string]string{testKey(i): "r"})
	}
	// Touch key 0 so key 1 becomes the LRU victim.
	if _, ok := svc.StoredResult(testKey(0)); !ok {
		t.Fatal("key 0 missing before eviction")
	}
	storeAll(t, svc, map[string]string{testKey(3): "r"})
	if _, ok := svc.StoredResult(testKey(1)); ok {
		t.Error("key 1 (least recently used) survived eviction")
	}
	for _, i := range []int{0, 2, 3} {
		if _, ok := svc.StoredResult(testKey(i)); !ok {
			t.Errorf("key %d evicted out of LRU order", i)
		}
	}
	if st := svc.Stats(); st.StoreLen != 3 {
		t.Errorf("store_entries = %d, want 3", st.StoreLen)
	}
}

// TestStoreOverwriteDuplicatePut: re-putting a key replaces its bytes in
// place — no duplicate entry, no spurious eviction — and every put counts.
func TestStoreOverwriteDuplicatePut(t *testing.T) {
	svc, _ := startService(t, Config{StoreEntries: 2})
	storeAll(t, svc, map[string]string{testKey(0): "v1"})
	storeAll(t, svc, map[string]string{testKey(1): "other"})
	storeAll(t, svc, map[string]string{testKey(0): "v2"})
	if st := svc.Stats(); st.StoreLen != 2 || st.StorePuts != 3 {
		t.Fatalf("after overwrite: %+v", st)
	}
	if data, ok := svc.StoredResult(testKey(0)); !ok || !bytes.Equal(data, []byte("v2")) {
		t.Errorf("overwritten key reads %q, want v2", data)
	}
	if _, ok := svc.StoredResult(testKey(1)); !ok {
		t.Error("overwrite evicted an unrelated key")
	}
}

// TestDiskStoreRoundTrip: a put lands in the results dir and a *fresh*
// service over the same directory serves it, counted as a disk hit (and a
// store hit) and promoted to memory.
func TestDiskStoreRoundTrip(t *testing.T) {
	dir := t.TempDir()
	svc1, _ := startService(t, Config{ResultsDir: dir})
	storeAll(t, svc1, map[string]string{testKey(7): "payload"})
	if st := svc1.Stats(); st.StoreDiskPuts != 1 {
		t.Fatalf("disk puts = %d, want 1: %+v", st.StoreDiskPuts, st)
	}

	svc2, _ := startService(t, Config{ResultsDir: dir})
	data, ok := svc2.StoredResult(testKey(7))
	if !ok || !bytes.Equal(data, []byte("payload")) {
		t.Fatalf("fresh service over same dir: ok=%v data=%q", ok, data)
	}
	st := svc2.Stats()
	if st.StoreDiskHits != 1 || st.StoreHits != 1 {
		t.Errorf("first read not counted as disk hit: %+v", st)
	}
	// Second read is served from the promoted in-memory entry.
	if _, ok := svc2.StoredResult(testKey(7)); !ok {
		t.Fatal("promoted entry missing")
	}
	if st := svc2.Stats(); st.StoreDiskHits != 1 || st.StoreHits != 2 {
		t.Errorf("promotion did not serve the second read from memory: %+v", st)
	}
}

// TestDiskStoreCorruptEviction: a flipped byte, a truncated file or a
// foreign file under a result's name reads as a miss, is counted in
// store_corrupt, and is removed so it cannot poison later reads.
func TestDiskStoreCorruptEviction(t *testing.T) {
	for name, corrupt := range map[string]func(path string) error{
		"byte-flip": func(path string) error {
			b, err := os.ReadFile(path)
			if err != nil {
				return err
			}
			b[len(b)-7] ^= 0x40 // inside the payload/CRC envelope
			return os.WriteFile(path, b, 0o644)
		},
		"truncation": func(path string) error {
			b, err := os.ReadFile(path)
			if err != nil {
				return err
			}
			return os.WriteFile(path, b[:len(b)/2], 0o644)
		},
		"bad-magic": func(path string) error {
			return os.WriteFile(path, []byte("not a result file"), 0o644)
		},
	} {
		t.Run(name, func(t *testing.T) {
			dir := t.TempDir()
			svc, _ := startService(t, Config{ResultsDir: dir})
			storeAll(t, svc, map[string]string{testKey(1): "precious bytes"})
			path := filepath.Join(dir, testKey(1)+".impresult")
			if err := corrupt(path); err != nil {
				t.Fatal(err)
			}
			fresh, _ := startService(t, Config{ResultsDir: dir}) // cold memory forces the disk read
			if _, ok := fresh.StoredResult(testKey(1)); ok {
				t.Fatal("corrupt entry was served")
			}
			if st := fresh.Stats(); st.StoreCorrupt != 1 {
				t.Errorf("corrupt counter = %d, want 1", st.StoreCorrupt)
			}
			if _, err := os.Stat(path); !os.IsNotExist(err) {
				t.Errorf("corrupt file not evicted from disk: %v", err)
			}
		})
	}
}

// TestStoreResultKeyValidation: only well-formed result keys reach the
// store — anything else could become a hostile file name on disk.
func TestStoreResultKeyValidation(t *testing.T) {
	svc, _ := startService(t, Config{})
	for _, bad := range []string{"", "short", strings.Repeat("g", 24), "../../../../etc/passwd", strings.Repeat("a", 25)} {
		if err := svc.StoreResult(bad, []byte("x")); err == nil {
			t.Errorf("StoreResult accepted malformed key %q", bad)
		}
		if _, ok := svc.StoredResult(bad); ok {
			t.Errorf("StoredResult answered malformed key %q", bad)
		}
	}
}

// TestResultsEndpoints exercises the replication surface over HTTP: PUT
// stores bytes a later GET returns verbatim, a missing key is 404, a
// malformed key 400 — and a Submit whose spec keys to an injected result
// is answered from the store without executing (the read-repair contract).
func TestResultsEndpoints(t *testing.T) {
	svc, c := startService(t, Config{})
	ctx := context.Background()

	spec := testSweepSpec()
	key, err := ResultKey(spec)
	if err != nil {
		t.Fatal(err)
	}
	payload := []byte(`{"results":"injected"}`)
	if err := c.PutStoredResult(ctx, key, payload); err != nil {
		t.Fatal(err)
	}
	got, err := c.StoredResult(ctx, key)
	if err != nil || !bytes.Equal(got, payload) {
		t.Fatalf("store round-trip over HTTP: %q, %v", got, err)
	}

	if _, err := c.StoredResult(ctx, testKey(42)); err == nil || !strings.Contains(err.Error(), "404") {
		t.Errorf("missing key not a 404: %v", err)
	}
	if err := c.PutStoredResult(ctx, "not-a-key", []byte("x")); err == nil || !strings.Contains(err.Error(), "400") {
		t.Errorf("malformed key not a 400: %v", err)
	}

	// The injected result satisfies a submission of the matching spec
	// without any execution — exactly what a router read-repair relies on.
	st, err := c.Submit(ctx, spec)
	if err != nil {
		t.Fatal(err)
	}
	if !st.Cached || st.State != "done" {
		t.Fatalf("submission not served from the injected store entry: %+v", st)
	}
	res, err := c.Result(ctx, st.ID)
	if err != nil || !bytes.Equal(res, payload) {
		t.Fatalf("served result is not the injected bytes: %q, %v", res, err)
	}
	if stats := svc.Stats(); stats.Executed != 0 {
		t.Errorf("store-served submission executed %d job(s)", stats.Executed)
	}
}

// TestResultsPutTooLarge: replica writes beyond the bound are refused with
// 413, not stored.
func TestResultsPutTooLarge(t *testing.T) {
	_, c := startService(t, Config{})
	err := c.PutStoredResult(context.Background(), testKey(1), make([]byte, maxResultBytes+1))
	if err == nil || !strings.Contains(err.Error(), "413") {
		t.Fatalf("oversized put: %v", err)
	}
}

// TestServiceRestartWarmFromDisk: a service restarted over the same
// results dir answers a previously computed job from disk — zero
// executions, byte-identical result, disk hit counted.
func TestServiceRestartWarmFromDisk(t *testing.T) {
	dir := t.TempDir()
	svc1, c1 := startService(t, Config{ResultsDir: dir})
	ctx := context.Background()
	_, want, err := c1.Run(ctx, testSweepSpec(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if st := svc1.Stats(); st.StoreDiskPuts != 1 {
		t.Fatalf("result not persisted: %+v", st)
	}
	closeCtx, cancel := context.WithTimeout(ctx, 30*time.Second)
	svc1.Close(closeCtx)
	cancel()

	svc2, c2 := startService(t, Config{ResultsDir: dir})
	st, err := c2.Submit(ctx, testSweepSpec())
	if err != nil {
		t.Fatal(err)
	}
	if !st.Cached || st.State != "done" {
		t.Fatalf("restarted service did not answer from disk: %+v", st)
	}
	got, err := c2.Result(ctx, st.ID)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Error("disk-restored result diverges from the original")
	}
	if stats := svc2.Stats(); stats.Executed != 0 || stats.StoreDiskHits != 1 {
		t.Errorf("restart-warm stats: %+v", stats)
	}

	// The disk layer is write-through: the restarted service's memory now
	// holds the promoted entry, so a repeat submission skips disk too.
	if st, err := c2.Submit(ctx, testSweepSpec()); err != nil || !st.Cached {
		t.Fatalf("repeat submission after promotion: %+v, %v", st, err)
	}
	if stats := svc2.Stats(); stats.StoreDiskHits != 1 {
		t.Errorf("repeat submission read disk again: %+v", stats)
	}
}

// TestDiskStoreUnusableDirDegrades: a results dir that cannot be created
// must not fail puts — the in-memory layer still serves the process.
func TestDiskStoreUnusableDirDegrades(t *testing.T) {
	file := filepath.Join(t.TempDir(), "file")
	if err := os.WriteFile(file, nil, 0o644); err != nil {
		t.Fatal(err)
	}
	svc, _ := startService(t, Config{ResultsDir: filepath.Join(file, "sub")}) // a dir under a file
	storeAll(t, svc, map[string]string{testKey(3): "kept in memory"})
	if data, ok := svc.StoredResult(testKey(3)); !ok || !bytes.Equal(data, []byte("kept in memory")) {
		t.Fatalf("memory layer lost the result: ok=%v", ok)
	}
	if st := svc.Stats(); st.StoreDiskPuts != 0 || st.StorePuts != 1 {
		t.Errorf("puts against an unusable dir: %+v", st)
	}
}

// TestStoredKeysInventory: GET /v1/results enumerates the store — the
// inventory the router's membership hand-off walks. The memory-only store
// lists exactly its entries, sorted; a disk-backed store also lists
// entries that exist only on disk (a restarted backend's full inventory,
// before anything is promoted into memory), skipping files that are not
// result entries.
func TestStoredKeysInventory(t *testing.T) {
	_, c := startService(t, Config{})
	ctx := context.Background()
	for i := 3; i > 0; i-- {
		if err := c.PutStoredResult(ctx, testKey(i), []byte("{}")); err != nil {
			t.Fatal(err)
		}
	}
	keys, err := c.StoredKeys(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if len(keys) != 3 || keys[0] != testKey(1) || keys[1] != testKey(2) || keys[2] != testKey(3) {
		t.Fatalf("memory inventory: %v, want sorted keys 1..3", keys)
	}

	dir := t.TempDir()
	svc1, c1 := startService(t, Config{ResultsDir: dir})
	if err := c1.PutStoredResult(ctx, testKey(7), []byte("{}")); err != nil {
		t.Fatal(err)
	}
	closeCtx, cancel := context.WithTimeout(ctx, 30*time.Second)
	svc1.Close(closeCtx)
	cancel()
	// Foreign junk next to real entries must not appear in the inventory.
	if err := os.WriteFile(filepath.Join(dir, "notes.txt"), []byte("x"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "zz.impresult"), []byte("x"), 0o644); err != nil {
		t.Fatal(err) // .impresult suffix but not a valid key
	}
	_, c2 := startService(t, Config{ResultsDir: dir})
	keys, err = c2.StoredKeys(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if len(keys) != 1 || keys[0] != testKey(7) {
		t.Fatalf("disk inventory after restart: %v, want just %s", keys, testKey(7))
	}
}

// blockingStore parks every put until unblock is called, announcing the
// first one on entered.
type blockingStore struct {
	resultStore
	entered   chan struct{}
	release   chan struct{}
	enterOnce sync.Once
	freeOnce  sync.Once
}

func (b *blockingStore) Put(key, dir string, data []byte) {
	b.enterOnce.Do(func() { close(b.entered) })
	<-b.release
	b.resultStore.Put(key, dir, data)
}

func (b *blockingStore) unblock() { b.freeOnce.Do(func() { close(b.release) }) }

// TestDoneMeansStored pins the finishJob order: the result is stored before
// the terminal state is published. With the store blocked mid-put the
// status must not say done, and the first thing a waiter on the event
// stream does when the terminal event wakes it — read the store — must hit.
func TestDoneMeansStored(t *testing.T) {
	svc, _ := startService(t, Config{})
	bs := &blockingStore{resultStore: svc.store, entered: make(chan struct{}), release: make(chan struct{})}
	svc.store = bs
	t.Cleanup(bs.unblock) // a failed assertion must not leave the executor parked
	st, err := svc.Submit(testSweepSpec())
	if err != nil {
		t.Fatal(err)
	}
	j, err := svc.Job(st.ID)
	if err != nil {
		t.Fatal(err)
	}

	stored := make(chan bool, 1) // the waiter's one send
	go func() {
		seq := 0
		for {
			evs, terminal, err := j.WaitEvents(context.Background(), seq)
			if err != nil {
				stored <- false
				return
			}
			seq += len(evs)
			if terminal {
				_, ok := svc.StoredResult(st.Key)
				stored <- ok
				return
			}
		}
	}()

	<-bs.entered
	// The executor is inside put, so nothing may report the job finished. A
	// waiter woken now would read the store, miss, and fail the test below.
	if got := j.Status().State; got.Terminal() {
		t.Fatalf("job state %q while the store put was still blocked", got)
	}
	bs.unblock()
	if !<-stored {
		t.Fatal("waiter saw the terminal event before the result was in the store")
	}
}
