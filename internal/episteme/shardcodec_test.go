package episteme

// The shard index's previous codec, encoding/json over the structs, kept
// as the oracle the hand-written one in shard.go is pinned against.
// Nothing outside the tests uses it.

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"testing/iotest"

	"repro/internal/action"
	"repro/internal/exchange"
	"repro/internal/model"
)

func oldWriteShardIndex(w io.Writer, idx *ShardIndex) error {
	return json.NewEncoder(w).Encode(idx)
}

func oldReadShardIndex(r io.Reader) (*ShardIndex, error) {
	var idx ShardIndex
	if err := json.NewDecoder(r).Decode(&idx); err != nil {
		return nil, fmt.Errorf("episteme: reading shard index: %w", err)
	}
	if idx.Kind != shardIndexKind {
		return nil, fmt.Errorf("episteme: not a shard index (kind %q, want %q)", idx.Kind, shardIndexKind)
	}
	if idx.Version != shardIndexVersion {
		return nil, fmt.Errorf("episteme: shard index version %d, this reader speaks %d", idx.Version, shardIndexVersion)
	}
	return &idx, nil
}

func oldDigest(idx *ShardIndex) string {
	data, err := json.Marshal(idx)
	if err != nil {
		return "unmarshalable:" + err.Error()
	}
	sum := sha256.Sum256(data)
	return hex.EncodeToString(sum[:16])
}

// codecIndex is one index the codec tests encode.
type codecIndex struct {
	name string
	idx  *ShardIndex
}

// codecIndexes builds the indexes the package's tests build: fip, min
// and basic, quotiented and per-run, n=3 and n=4 (one stripe of four),
// and crash fip at t=2, with and without a stack name. full adds the
// per-run n=4 stripes.
func codecIndexes(tb testing.TB, full bool) []codecIndex {
	var out []codecIndex
	add := func(name string, c Context, act model.ActionProtocol, shard, shards int) {
		idx, err := BuildShardIndex(context.Background(), c, act, shard, shards)
		if err != nil {
			tb.Fatal(err)
		}
		out = append(out, codecIndex{fmt.Sprintf("%s %d/%d quotient=%v", name, shard, shards, idx.Quotient), idx})
	}
	for _, n := range []int{3, 4} {
		shard, shards := 1, 3
		if n == 4 {
			shard, shards = 0, 4
		}
		for _, s := range []struct {
			name string
			ex   model.Exchange
			act  model.ActionProtocol
		}{
			{"fip", exchange.NewFIP(n), action.NewOpt(1)},
			{"min", exchange.NewMin(n), action.NewMin(1)},
			{"basic", exchange.NewBasic(n), action.NewBasic(n)},
		} {
			c := Context{Exchange: s.ex, T: 1}
			name := fmt.Sprintf("%s n=%d", s.name, n)
			add(name, c, s.act, shard, shards)
			if n == 3 || full {
				add(name+" per-run", perRunContext(c), s.act, shard, shards)
			}
		}
	}
	add("fip n=3 crash t=2", Context{Exchange: exchange.NewFIP(3), T: 2, Crash: true}, action.NewOpt(2), 0, 1)
	add("min n=2", Context{Exchange: exchange.NewMin(2), T: 1}, action.NewMin(1), 0, 1)
	named := *out[0].idx
	named.Stack = "fip"
	return append(out, codecIndex{out[0].name + " stack=fip", &named})
}

// TestShardIndexCodecMatchesJSON pins the hand-written index codec to
// encoding/json on every index the package builds: WriteShardIndex writes
// exactly json.Encoder's bytes, Digest hashes what json.Marshal wrote,
// and ReadShardIndex — from a bytes reader, a file and a reader that
// cannot tell its size — reads back what the json reader reads, which
// writes back to the same bytes.
func TestShardIndexCodecMatchesJSON(t *testing.T) {
	dir := t.TempDir()
	for k, tc := range codecIndexes(t, !testing.Short()) {
		var got, want bytes.Buffer
		if err := WriteShardIndex(&got, tc.idx); err != nil {
			t.Fatal(err)
		}
		if err := oldWriteShardIndex(&want, tc.idx); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got.Bytes(), want.Bytes()) {
			t.Fatalf("%s: WriteShardIndex differs from json.Encoder; first difference at byte %d",
				tc.name, firstByteDiff(got.Bytes(), want.Bytes()))
		}
		if d, w := tc.idx.Digest(), oldDigest(tc.idx); d != w {
			t.Fatalf("%s: Digest %s, json.Marshal hashes to %s", tc.name, d, w)
		}
		oracle, err := oldReadShardIndex(bytes.NewReader(want.Bytes()))
		if err != nil {
			t.Fatal(err)
		}
		path := filepath.Join(dir, fmt.Sprintf("idx%d.json", k))
		if err := os.WriteFile(path, want.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		f, err := os.Open(path)
		if err != nil {
			t.Fatal(err)
		}
		for _, r := range []io.Reader{bytes.NewReader(want.Bytes()), f, iotest.HalfReader(bytes.NewReader(want.Bytes()))} {
			back, err := ReadShardIndex(r)
			if r == f {
				f.Close()
			}
			if err != nil {
				t.Fatalf("%s: ReadShardIndex(%T): %v", tc.name, r, err)
			}
			if !reflect.DeepEqual(back, oracle) {
				t.Fatalf("%s: ReadShardIndex(%T) differs from the json reader's index", tc.name, r)
			}
			var again bytes.Buffer
			if err := WriteShardIndex(&again, back); err != nil || !bytes.Equal(again.Bytes(), want.Bytes()) {
				t.Fatalf("%s: the index read back does not write back to the same bytes (%v)", tc.name, err)
			}
		}
	}
}

// firstByteDiff returns the first offset at which a and b differ.
func firstByteDiff(a, b []byte) int {
	k := 0
	for k < len(a) && k < len(b) && a[k] == b[k] {
		k++
	}
	return k
}

// TestShardIndexRefusesNonCanonical checks ReadShardIndex accepts the
// canonical document and nothing else — the json reader took most of the
// spellings refused below — and that a foreign kind or version keeps its
// error text.
func TestShardIndexRefusesNonCanonical(t *testing.T) {
	idx, err := BuildShardIndex(context.Background(), Context{Exchange: exchange.NewMin(2), T: 1}, action.NewMin(1), 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := WriteShardIndex(&buf, idx); err != nil {
		t.Fatal(err)
	}
	canon := buf.String()
	var indented bytes.Buffer
	if err := json.Indent(&indented, buf.Bytes(), "", "  "); err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct{ name, doc, err string }{
		{"reordered keys", strings.Replace(canon, `"shard":0,"shards":1`, `"shards":1,"shard":0`, 1), ""},
		{"space after a colon", strings.Replace(canon, `"n":2`, `"n": 2`, 1), ""},
		{"indented", indented.String(), ""},
		{"no newline", strings.TrimSuffix(canon, "\n"), ""},
		{"CRLF", strings.TrimSuffix(canon, "\n") + "\r\n", ""},
		{"trailing newline", canon + "\n", ""},
		{"trailing document", canon + canon, ""},
		{"leading zero", strings.Replace(canon, `"t":1`, `"t":01`, 1), ""},
		{"explicit false", strings.Replace(canon, `,"classKeys":`, `,"quotient":false,"classKeys":`, 1), ""},
		{"empty stack", strings.Replace(canon, `,"n":`, `,"stack":"","n":`, 1), ""},
		{"escaped kind", strings.Replace(canon, `"eba-episteme-shard"`, `"eba-episteme-shar\u0064"`, 1), ""},
		{"empty", "", ""},
		{"foreign kind", `{"kind":"something-else","v":1}`,
			`episteme: not a shard index (kind "something-else", want "eba-episteme-shard")`},
		{"foreign kind, whole document", strings.Replace(canon, shardIndexKind, "eba-outcomes", 1),
			`episteme: not a shard index (kind "eba-outcomes", want "eba-episteme-shard")`},
		{"future version", strings.Replace(canon, `"v":1`, `"v":2`, 1),
			"episteme: shard index version 2, this reader speaks 1"},
	} {
		if tc.doc == canon {
			t.Fatalf("%s: the mutation did not apply", tc.name)
		}
		got, err := ReadShardIndex(strings.NewReader(tc.doc))
		if err == nil {
			t.Errorf("%s: ReadShardIndex accepted %q", tc.name, tc.doc)
			continue
		}
		if got != nil || (tc.err != "" && err.Error() != tc.err) {
			t.Errorf("%s: ReadShardIndex = %v, %v; want nil, %q", tc.name, got, err, tc.err)
		}
	}
}

// FuzzReadShardIndex feeds ReadShardIndex arbitrary bytes: it must never
// panic, and whatever it accepts must write back to the same bytes and
// decode under encoding/json to the same index.
func FuzzReadShardIndex(f *testing.F) {
	// Small documents: the fuzzer minimizes every new input it keeps.
	for _, tc := range []struct {
		c             Context
		act           model.ActionProtocol
		shard, shards int
	}{
		{Context{Exchange: exchange.NewMin(2), T: 1}, action.NewMin(1), 0, 1},
		{perRunContext(Context{Exchange: exchange.NewMin(2), T: 1}), action.NewMin(1), 0, 1},
		{fipContext31(), action.NewOpt(1), 5, 16},
	} {
		idx, err := BuildShardIndex(context.Background(), tc.c, tc.act, tc.shard, tc.shards)
		if err != nil {
			f.Fatal(err)
		}
		var buf bytes.Buffer
		if err := WriteShardIndex(&buf, idx); err != nil {
			f.Fatal(err)
		}
		doc := buf.Bytes()
		for _, cut := range []int{len(doc), len(doc) - 1, len(doc) / 2, 40} {
			f.Add(doc[:cut])
		}
	}
	f.Fuzz(func(t *testing.T, doc []byte) {
		idx, err := ReadShardIndex(bytes.NewReader(doc))
		if err != nil {
			return
		}
		var buf bytes.Buffer
		if err := WriteShardIndex(&buf, idx); err != nil || !bytes.Equal(buf.Bytes(), doc) {
			t.Fatalf("accepted %q, which writes back as %q (%v)", doc, buf.Bytes(), err)
		}
		var oracle ShardIndex
		if err := json.Unmarshal(doc, &oracle); err != nil {
			t.Fatalf("accepted %q, which encoding/json refuses: %v", doc, err)
		}
		if !reflect.DeepEqual(*idx, oracle) {
			t.Fatalf("%q reads as %+v, json.Unmarshal as %+v", doc, *idx, oracle)
		}
	})
}
