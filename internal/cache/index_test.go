package cache

import (
	"bytes"
	"encoding/json"
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
