package cache

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
)

func openT(t *testing.T, dir string) *Cache {
	t.Helper()
	c, err := Open(dir)
	if err != nil {
		t.Fatalf("Open(%s): %v", dir, err)
	}
	return c
}

func closeT(t *testing.T, c *Cache) {
	t.Helper()
	if err := c.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
}

func testKey(i int) string {
	sum := sha256.Sum256([]byte(fmt.Sprintf("key-%d", i)))
	return Key(hex.EncodeToString(sum[:8]), "run", hex.EncodeToString(sum[8:16]))
}

func TestCachePutGetAcrossReopen(t *testing.T) {
	dir := t.TempDir()
	c := openT(t, dir)
	for i := 0; i < 50; i++ {
		if err := c.Put(testKey(i), []byte(fmt.Sprintf("payload-%d", i))); err != nil {
			t.Fatalf("Put: %v", err)
		}
	}
	// Unsealed entries are readable immediately.
	if val, ok := c.Get(testKey(7)); !ok || string(val) != "payload-7" {
		t.Fatalf("Get before seal: %q, %v", val, ok)
	}
	closeT(t, c)

	c = openT(t, dir)
	defer closeT(t, c)
	if c.Len() != 50 {
		t.Fatalf("reopened cache holds %d entries, want 50", c.Len())
	}
	for i := 0; i < 50; i++ {
		val, ok := c.Get(testKey(i))
		if !ok || string(val) != fmt.Sprintf("payload-%d", i) {
			t.Fatalf("Get(%d) after reopen: %q, %v", i, val, ok)
		}
	}
	if _, ok := c.Get(testKey(99)); ok {
		t.Fatal("Get of an absent key hit")
	}
	st := c.Stats()
	if st.Hits != 50 || st.Misses != 1 {
		t.Fatalf("stats %+v, want 50 hits / 1 miss", st)
	}
}

func TestCacheLatestPutWins(t *testing.T) {
	dir := t.TempDir()
	key := testKey(1)
	c := openT(t, dir)
	if err := c.Put(key, []byte("old")); err != nil {
		t.Fatal(err)
	}
	closeT(t, c)
	c = openT(t, dir)
	if err := c.Put(key, []byte("new")); err != nil {
		t.Fatal(err)
	}
	if val, _ := c.Get(key); string(val) != "new" {
		t.Fatalf("Get before seal: %q, want new", val)
	}
	closeT(t, c)
	c = openT(t, dir)
	defer closeT(t, c)
	if val, ok := c.Get(key); !ok || string(val) != "new" {
		t.Fatalf("Get after reopen: %q %v, want the later segment's value", val, ok)
	}
}

func TestCacheIdenticalPutIsNoop(t *testing.T) {
	dir := t.TempDir()
	key := testKey(1)
	c := openT(t, dir)
	if err := c.Put(key, []byte("v")); err != nil {
		t.Fatal(err)
	}
	closeT(t, c)
	c = openT(t, dir)
	if err := c.Put(key, []byte("v")); err != nil {
		t.Fatal(err)
	}
	if got := c.Stats().Puts; got != 0 {
		t.Fatalf("re-storing an identical payload counted %d puts, want 0", got)
	}
	closeT(t, c)
	segs, _ := filepath.Glob(filepath.Join(dir, "seg-*.seg"))
	if len(segs) != 1 {
		t.Fatalf("identical re-put grew the log to %d segments, want 1", len(segs))
	}
}

// A corrupted value must be rejected and reported as a miss — never
// served — and the entry dropped so the caller's recomputation can
// replace it.
func TestCacheCorruptEntryRejected(t *testing.T) {
	dir := t.TempDir()
	key := testKey(1)
	c := openT(t, dir)
	if err := c.Put(key, []byte("precious-bytes")); err != nil {
		t.Fatal(err)
	}
	closeT(t, c)

	segs, _ := filepath.Glob(filepath.Join(dir, "seg-*.seg"))
	if len(segs) != 1 {
		t.Fatalf("%d segments, want 1", len(segs))
	}
	data, err := os.ReadFile(segs[0])
	if err != nil {
		t.Fatal(err)
	}
	// Flip a byte inside the value ("precious" -> "preciovs").
	idx := bytes.Index(data, []byte("precious-bytes"))
	if idx < 0 {
		t.Fatal("value not found in segment")
	}
	data[idx+6] ^= 0x04
	if err := os.WriteFile(segs[0], data, 0o644); err != nil {
		t.Fatal(err)
	}

	// The index still matches (same size), so the poisoned record is only
	// caught by per-read verification.
	c = openT(t, dir)
	defer closeT(t, c)
	if val, ok := c.Get(key); ok {
		t.Fatalf("poisoned entry served: %q", val)
	}
	st := c.Stats()
	if st.Rejects != 1 {
		t.Fatalf("stats %+v, want 1 reject", st)
	}
	// The entry is gone; a fresh Put replaces it.
	if err := c.Put(key, []byte("recomputed")); err != nil {
		t.Fatal(err)
	}
	if val, ok := c.Get(key); !ok || string(val) != "recomputed" {
		t.Fatalf("recomputed entry: %q %v", val, ok)
	}
}

// A torn segment (no index, truncated tail) is quarantined whole on
// open, like the coordinator's .rejected stripes.
func TestCacheTornSegmentQuarantined(t *testing.T) {
	dir := t.TempDir()
	c := openT(t, dir)
	if err := c.Put(testKey(1), []byte("aaaa")); err != nil {
		t.Fatal(err)
	}
	closeT(t, c)
	segs, _ := filepath.Glob(filepath.Join(dir, "seg-*.seg"))
	data, err := os.ReadFile(segs[0])
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(segs[0], data[:len(data)-5], 0o644); err != nil {
		t.Fatal(err)
	}
	os.Remove(filepath.Join(dir, indexName)) // force the verifying rescan

	c = openT(t, dir)
	defer closeT(t, c)
	if _, ok := c.Get(testKey(1)); ok {
		t.Fatal("entry of a torn segment served")
	}
	rejected, _ := filepath.Glob(filepath.Join(dir, "*.rejected"))
	if len(rejected) != 1 {
		t.Fatalf("%d quarantined files, want 1", len(rejected))
	}
}

// A writer that dies before sealing leaves a .tmp file; the next open
// quarantines it and serves none of its records.
func TestCacheUnsealedTmpQuarantined(t *testing.T) {
	dir := t.TempDir()
	c := openT(t, dir)
	if err := c.Put(testKey(1), []byte("never-sealed")); err != nil {
		t.Fatal(err)
	}
	// Simulate the crash: no Close, and the dead process's lock is gone.
	c.lock.Close()
	tmps, _ := filepath.Glob(filepath.Join(dir, "seg-*.tmp"))
	if len(tmps) != 1 {
		t.Fatalf("%d tmp segments while writing, want 1", len(tmps))
	}

	c2 := openT(t, dir)
	defer closeT(t, c2)
	if _, ok := c2.Get(testKey(1)); ok {
		t.Fatal("record of an unsealed segment served")
	}
	rejected, _ := filepath.Glob(filepath.Join(dir, "*.rejected"))
	if len(rejected) != 1 {
		t.Fatalf("%d quarantined files, want 1", len(rejected))
	}
}

// TestCacheOneProcessPerDirectory: a directory with a live writer cannot
// be opened again. (It could, and the second Open quarantined the first
// writer's open segment as a dead one's, re-created the freed name, and
// the first writer's seal then renamed that file into place: of two
// processes sharing -cache DIR, one lost everything it had stored.)
func TestCacheOneProcessPerDirectory(t *testing.T) {
	dir := t.TempDir()
	first := openT(t, dir)
	put := func(i int) {
		t.Helper()
		if err := first.Put(testKey(i), []byte(fmt.Sprintf("payload-%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	put(0)
	second, err := Open(dir)
	if err == nil {
		second.Close()
		t.Fatal("a second Open of a held directory succeeded")
	}
	if msg := err.Error(); !strings.Contains(msg, dir) || !strings.Contains(msg, "one process per cache directory") {
		t.Fatalf("second Open: %v; want the directory and the one-process rule", err)
	}
	put(1)
	closeT(t, first)

	third := openT(t, dir)
	defer closeT(t, third)
	for i := 0; i < 2; i++ {
		if val, ok := third.Get(testKey(i)); !ok || string(val) != fmt.Sprintf("payload-%d", i) {
			t.Errorf("entry %d of the first writer after the refused Open: %q, %v", i, val, ok)
		}
	}
	if rejected, _ := filepath.Glob(filepath.Join(dir, "*.rejected")); len(rejected) != 0 {
		t.Errorf("quarantined files after a refused Open: %v", rejected)
	}
}

func TestCacheStaleIndexRescans(t *testing.T) {
	dir := t.TempDir()
	c := openT(t, dir)
	if err := c.Put(testKey(1), []byte("v1")); err != nil {
		t.Fatal(err)
	}
	closeT(t, c)
	// Corrupt the index; the segments themselves are intact.
	if err := os.WriteFile(filepath.Join(dir, indexName), []byte("{not json"), 0o644); err != nil {
		t.Fatal(err)
	}
	c = openT(t, dir)
	defer closeT(t, c)
	if val, ok := c.Get(testKey(1)); !ok || string(val) != "v1" {
		t.Fatalf("rescan lost the entry: %q %v", val, ok)
	}
}

func TestCacheGC(t *testing.T) {
	dir := t.TempDir()
	// Three generations of segments, with key 1 superseded twice.
	for gen := 0; gen < 3; gen++ {
		c := openT(t, dir)
		if err := c.Put(testKey(1), []byte(fmt.Sprintf("gen-%d", gen))); err != nil {
			t.Fatal(err)
		}
		if err := c.Put(testKey(10+gen), []byte(strings.Repeat("x", 100))); err != nil {
			t.Fatal(err)
		}
		closeT(t, c)
	}
	c := openT(t, dir)
	res, err := c.GC(0)
	if err != nil {
		t.Fatalf("GC: %v", err)
	}
	if res.SegmentsBefore != 3 || res.SegmentsAfter != 1 {
		t.Fatalf("GC %+v, want 3 segments compacted to 1", res)
	}
	if res.Kept != 4 {
		t.Fatalf("GC kept %d entries, want 4 live keys", res.Kept)
	}
	if val, ok := c.Get(testKey(1)); !ok || string(val) != "gen-2" {
		t.Fatalf("after GC, key 1 = %q %v, want the latest generation", val, ok)
	}
	closeT(t, c)

	// A tight budget evicts the oldest entries but keeps the newest.
	c = openT(t, dir)
	res, err = c.GC(200)
	if err != nil {
		t.Fatal(err)
	}
	if res.Dropped == 0 || res.Kept == 0 {
		t.Fatalf("budgeted GC %+v, want some entries evicted and some kept", res)
	}
	if res.BytesAfter > 200 {
		t.Fatalf("budgeted GC left %d bytes, budget 200", res.BytesAfter)
	}
	closeT(t, c)
}

func TestCacheConcurrentPutGet(t *testing.T) {
	c := openT(t, t.TempDir())
	defer closeT(t, c)
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				key := testKey(i % 37)
				want := fmt.Sprintf("payload-%d", i%37)
				if i%2 == 0 {
					if err := c.Put(key, []byte(want)); err != nil {
						t.Errorf("Put: %v", err)
						return
					}
				} else if val, ok := c.Get(key); ok && string(val) != want {
					t.Errorf("Get(%s) = %q, want %q", key, val, want)
					return
				}
			}
		}(w)
	}
	wg.Wait()
}

func TestFingerprintNonEmpty(t *testing.T) {
	if Fingerprint() == "" {
		t.Fatal("Fingerprint returned an empty identity")
	}
}
