package core

import (
	"bytes"
	"context"
	"encoding/json"
	"reflect"
	"strings"
	"testing"
	"unicode/utf8"

	"repro/internal/wire"
)

// cachedRunSeeds returns CachedRuns of real executions of every paper
// stack plus hand-made ones covering what no execution produces: nil and
// empty ledgers, a nil action row, negative and wide integers, and
// patterns that need every kind of escape.
func cachedRunSeeds(tb testing.TB) []CachedRun {
	var out []CachedRun
	for _, name := range []string{"fip", "min", "basic"} {
		st := MustStack(name, WithN(4), WithT(1))
		runner := NewRunner(st)
		for _, sc := range randomScenarios(5, 4, 1, 8) {
			res, err := runner.Run(context.Background(), sc)
			if err != nil {
				tb.Fatal(err)
			}
			var cr CachedRun
			if err := cr.Encode(res); err != nil {
				tb.Fatal(err)
			}
			out = append(out, cr)
		}
	}
	return append(out,
		CachedRun{},
		CachedRun{Inits: []int{}, Decisions: []int{}, Rounds: []int{}, Actions: [][]int{}},
		CachedRun{Pattern: "q\"b\\s/<x>&\n\t\x01\x7f é \u2028\u2029 \xff\xfe", Actions: [][]int{nil, {}, {-1, 2}}},
		CachedRun{Pattern: "p", Inits: []int{-9223372036854775808, 9223372036854775807},
			Stats: OutcomeStats{MessagesSent: -1, BitsSent: 1 << 62, BitsDelivered: -1 << 63}},
	)
}

// TestCachedRunCodecMatchesJSON pins the hand-written payload codec to
// encoding/json: AppendJSON writes exactly json.Marshal's bytes, and
// DecodeJSON reads them back to what json.Unmarshal reads whenever that is
// what was written.
func TestCachedRunCodecMatchesJSON(t *testing.T) {
	for k, cr := range cachedRunSeeds(t) {
		want, err := json.Marshal(&cr)
		if err != nil {
			t.Fatal(err)
		}
		got := cr.AppendJSON(nil)
		if !bytes.Equal(got, want) {
			t.Fatalf("seed %d: AppendJSON wrote\n%s\njson.Marshal writes\n%s", k, got, want)
		}
		var back, oracle CachedRun
		if !utf8.ValidString(cr.Pattern) {
			// encoding/json writes invalid UTF-8 as U+FFFD, which does not
			// read back as what was written: the strict reader refuses it.
			if back.DecodeJSON(want) {
				t.Fatalf("seed %d: DecodeJSON accepted the lossy encoding %s", k, want)
			}
			continue
		}
		if !back.DecodeJSON(want) {
			t.Fatalf("seed %d: DecodeJSON refused json.Marshal's encoding %s", k, want)
		}
		if err := json.Unmarshal(want, &oracle); err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(back, oracle) {
			t.Fatalf("seed %d: decoded %+v, json.Unmarshal decodes %+v", k, back, oracle)
		}
	}
}

// TestCachedRunRefusesNonCanonical checks the payload reader accepts
// AppendJSON's spelling and nothing else.
func TestCachedRunRefusesNonCanonical(t *testing.T) {
	seed := cachedRunSeeds(t)[0]
	canon := string(seed.AppendJSON(nil))
	pattern, inits := `"pattern":"`+seed.Pattern+`"`, `"inits":`+string(wire.AppendInts(nil, seed.Inits))
	for _, tc := range []struct{ name, payload string }{
		{"reordered keys", strings.Replace(canon, pattern+","+inits, inits+","+pattern, 1)},
		{"unknown key", strings.Replace(canon, `{"pattern":`, `{"zz":0,"pattern":`, 1)},
		{"space after a colon", strings.Replace(canon, `"inits":`, `"inits": `, 1)},
		{"space inside an array", strings.Replace(canon, `"rounds":[`, `"rounds":[ `, 1)},
		{"trailing newline", canon + "\n"},
		{"trailing value", canon + "{}"},
		{"leading zero", strings.Replace(canon, `"sent":`, `"sent":0`, 1)},
		{"escaped ASCII", strings.Replace(canon, `{"pattern":"`, `{"pattern":"\u0053`, 1)},
		{"truncated", canon[:len(canon)-1]},
		{"empty", ""},
	} {
		if tc.payload == canon {
			t.Fatalf("%s: the mutation did not apply", tc.name)
		}
		var cr CachedRun
		if cr.DecodeJSON([]byte(tc.payload)) {
			t.Errorf("%s: DecodeJSON accepted %s", tc.name, tc.payload)
		}
	}
}

// FuzzCachedRun feeds the payload reader arbitrary bytes: it must never
// panic, and whatever it accepts must re-encode to the same bytes and
// decode under encoding/json to the same value.
func FuzzCachedRun(f *testing.F) {
	for _, cr := range cachedRunSeeds(f) {
		enc := cr.AppendJSON(nil)
		f.Add(enc)
		f.Add(enc[:len(enc)/2])
		f.Add(enc[:len(enc)-1])
	}
	f.Fuzz(func(t *testing.T, payload []byte) {
		var cr CachedRun
		if !cr.DecodeJSON(payload) {
			return
		}
		if got := cr.AppendJSON(nil); !bytes.Equal(got, payload) {
			t.Fatalf("accepted %q, which re-encodes to %q", payload, got)
		}
		var oracle CachedRun
		if err := json.Unmarshal(payload, &oracle); err != nil {
			t.Fatalf("accepted %q, which encoding/json refuses: %v", payload, err)
		}
		if !reflect.DeepEqual(cr, oracle) {
			t.Fatalf("%q decodes to %+v, json.Unmarshal to %+v", payload, cr, oracle)
		}
	})
}
