package cache

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

// TestIndexCodecMatchesJSON pins index.json's hand-written codec to
// encoding/json, which wrote the file before: appendIndex writes exactly
// json.Marshal's bytes, and parseIndex reads them back to what
// json.Unmarshal reads.
func TestIndexCodecMatchesJSON(t *testing.T) {
	for _, idx := range []indexFile{
		{Version: 1},
		{Version: 1, Segments: []indexSeg{}, Entries: []indexEnt{}},
		{Version: 7, Segments: []indexSeg{{"seg-000001.seg", 8}, {"seg-000002.seg", 1 << 40}},
			Entries: []indexEnt{{testKey(1), 0, 8, 2, strings.Repeat("ab", 32)}, {"k<\"&>\x01é", 1, 0, 0, ""}}},
	} {
		want, err := json.Marshal(&idx)
		if err != nil {
			t.Fatal(err)
		}
		if got := appendIndex(nil, &idx); !bytes.Equal(got, want) {
			t.Fatalf("appendIndex wrote\n%s\njson.Marshal writes\n%s", got, want)
		}
		back, ok := parseIndex(want)
		var oracle indexFile
		if err := json.Unmarshal(want, &oracle); err != nil {
			t.Fatal(err)
		}
		if !ok || !reflect.DeepEqual(*back, oracle) {
			t.Fatalf("parseIndex(%s) = %+v, %v; json.Unmarshal reads %+v", want, back, ok, oracle)
		}
	}
}

// TestIndexWrittenByJSONLoads checks an index.json that encoding/json
// wrote loads without a rescan, and that one it would have read but the
// strict reader refuses costs a rescan and nothing else.
func TestIndexWrittenByJSONLoads(t *testing.T) {
	dir := t.TempDir()
	c := openT(t, dir)
	for i := 0; i < 5; i++ {
		if err := c.Put(testKey(i), []byte{byte(i)}); err != nil {
			t.Fatal(err)
		}
	}
	closeT(t, c)
	path := filepath.Join(dir, indexName)
	written, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var idx indexFile
	if err := json.Unmarshal(written, &idx); err != nil {
		t.Fatal(err)
	}
	if canon, _ := json.Marshal(&idx); !bytes.Equal(canon, written) {
		t.Fatal("index.json is not json.Marshal's encoding of its content")
	}
	segNames := []string{idx.Segments[0].Name}
	c = &Cache{dir: dir}
	if !c.loadIndex(segNames) {
		t.Fatal("an index json.Marshal wrote did not load")
	}
	closeSegs(c.segs)

	indented, _ := json.MarshalIndent(&idx, "", " ")
	if err := os.WriteFile(path, indented, 0o644); err != nil {
		t.Fatal(err)
	}
	if c := (&Cache{dir: dir}); c.loadIndex(segNames) {
		closeSegs(c.segs)
		t.Fatal("an indented index loaded")
	}
	c = openT(t, dir)
	defer closeT(t, c)
	for i := 0; i < 5; i++ {
		if val, ok := c.Get(testKey(i)); !ok || !bytes.Equal(val, []byte{byte(i)}) {
			t.Fatalf("after the rescan key %d reads %v, %v", i, val, ok)
		}
	}
}

// TestCloseRewritesIndexOnlyWhenChanged checks that a session which only
// read leaves index.json as it found it — same bytes, same file — and
// that a session which rejected an entry or rescanned the segments
// publishes a new index the next Open trusts.
func TestCloseRewritesIndexOnlyWhenChanged(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, indexName)
	c := openT(t, dir)
	for i := 0; i < 3; i++ {
		if err := c.Put(testKey(i), []byte(fmt.Sprintf("value-%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	closeT(t, c)
	segNames := func() []string {
		segs, _ := filepath.Glob(filepath.Join(dir, "seg-*.seg"))
		for i, s := range segs {
			segs[i] = filepath.Base(s)
		}
		return segs
	}
	trusted := func() int {
		t.Helper()
		c := &Cache{dir: dir}
		if !c.loadIndex(segNames()) {
			t.Fatal("the next Open would rescan: the index does not describe the segments")
		}
		closeSegs(c.segs)
		return len(c.entries)
	}
	snapshot := func() (os.FileInfo, []byte) {
		t.Helper()
		fi, err := os.Stat(path)
		if err != nil {
			t.Fatal(err)
		}
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		return fi, data
	}

	// Read-only: hits, a miss and a no-op identical Put.
	fi0, data0 := snapshot()
	c = openT(t, dir)
	for i := 0; i < 4; i++ {
		c.Get(testKey(i))
	}
	if err := c.Put(testKey(0), []byte("value-0")); err != nil {
		t.Fatal(err)
	}
	closeT(t, c)
	fi1, data1 := snapshot()
	if !os.SameFile(fi0, fi1) || !fi0.ModTime().Equal(fi1.ModTime()) || !bytes.Equal(data0, data1) {
		t.Fatal("a read-only session replaced index.json")
	}

	// A rescan: a corrupt index is rebuilt from the segments.
	if err := os.WriteFile(path, []byte("{not json"), 0o644); err != nil {
		t.Fatal(err)
	}
	fi2, _ := snapshot()
	c = openT(t, dir)
	closeT(t, c)
	fi3, _ := snapshot()
	if os.SameFile(fi2, fi3) {
		t.Fatal("a session that rescanned kept the corrupt index")
	}
	if got := trusted(); got != 3 {
		t.Fatalf("the rescanned index holds %d entries, want 3", got)
	}

	// A rejected entry: flip a byte of value-1 so only Get's verification
	// catches it; the index must drop the entry.
	seg := filepath.Join(dir, segNames()[0])
	img, err := os.ReadFile(seg)
	if err != nil {
		t.Fatal(err)
	}
	img[bytes.Index(img, []byte("value-1"))] ^= 0x01
	if err := os.WriteFile(seg, img, 0o644); err != nil {
		t.Fatal(err)
	}
	c = openT(t, dir)
	if _, ok := c.Get(testKey(1)); ok {
		t.Fatal("a corrupt entry was served")
	}
	closeT(t, c)
	if fi4, _ := snapshot(); os.SameFile(fi3, fi4) {
		t.Fatal("a session that rejected an entry kept the old index")
	}
	if got := trusted(); got != 2 {
		t.Fatalf("the rewritten index holds %d entries, want 2", got)
	}
}
