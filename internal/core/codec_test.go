package core

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"io"
	"math"
	"math/rand"
	"reflect"
	"runtime"
	"strings"
	"testing"
)

// genString draws a string from the classes the canonical form treats
// differently: plain ASCII, every escaped ASCII byte, HTML-unsafe bytes,
// multi-byte runes, the two escaped separators, and invalid UTF-8.
func genString(rng *rand.Rand) string {
	pieces := []string{
		"n=3;h=3;f=0;d=0:0:1,1:0:2", "", "plain", `"`, `\`, "/", "<", ">", "&",
		"\x00", "\x01", "\b", "\f", "\n", "\r", "\t", "\x1f", "\x7f",
		"é", "世界", "\u2028", "\u2029", "\ufffd", "😀",
		"\xff", "\xc3", "\xed\xa0\x80", "\xf8\x88\x80\x80",
	}
	var b strings.Builder
	for k := rng.Intn(5); k >= 0; k-- {
		b.WriteString(pieces[rng.Intn(len(pieces))])
	}
	return b.String()
}

func genInt64(rng *rand.Rand) int64 {
	switch rng.Intn(6) {
	case 0:
		return math.MaxInt64
	case 1:
		return math.MinInt64
	case 2:
		return -int64(rng.Intn(1000))
	default:
		return int64(rng.Intn(1000))
	}
}

func genInts(rng *rand.Rand) []int {
	switch rng.Intn(4) {
	case 0:
		return nil
	case 1:
		return []int{}
	}
	xs := make([]int, 1+rng.Intn(5))
	for i := range xs {
		xs[i] = int(genInt64(rng))
	}
	return xs
}

func genRecord(rng *rand.Rand) OutcomeRecord {
	return OutcomeRecord{
		Ordinal:   genInt64(rng),
		Pattern:   genString(rng),
		Inits:     genInts(rng),
		Decisions: genInts(rng),
		Rounds:    genInts(rng),
		Stats: OutcomeStats{
			MessagesSent:      int(genInt64(rng)),
			MessagesDelivered: int(genInt64(rng)),
			BitsSent:          genInt64(rng),
			BitsDelivered:     genInt64(rng),
		},
		Mult:   []int64{0, 0, 1, 2, -1, math.MaxInt64}[rng.Intn(6)],
		Digest: genString(rng),
	}
}

// oldLine is the line encoding/json writes for v, as the old writer did.
func oldLine(t *testing.T, v any) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := json.NewEncoder(&buf).Encode(v); err != nil {
		t.Fatalf("encoding/json refuses %+v: %v", v, err)
	}
	return buf.Bytes()
}

// TestCodecMatchesOldCodec is the codec's contract: for any record the
// appended line, the digest and the chain are byte for byte what
// encoding/json and fmt produced, and a line parses back to its record
// exactly when encoding/json's round trip is the identity.
func TestCodecMatchesOldCodec(t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	var chain digestChain
	var oldChain oldDigestChain
	var scratch lineScratch
	var back OutcomeRecord
	for k := 0; k < 5000; k++ {
		rec := genRecord(rng)
		line := appendRecordLine(nil, &rec, rec.Pattern, rec.Digest)
		if want := oldLine(t, &rec); !bytes.Equal(line, want) {
			t.Fatalf("record %+v:\n  appended %q\n  json     %q", rec, line, want)
		}
		if got, want := rec.ComputeDigest(), oldComputeDigest(&rec); got != want {
			t.Fatalf("record %+v: digest %s, fmt digest %s", rec, got, want)
		}
		chain.add([]byte(rec.Digest))
		oldChain.add(rec.Digest)
		if chain.hex() != oldChain.hex() {
			t.Fatalf("after %d records the chain reads %s, the old chain %s", k+1, chain.hex(), oldChain.hex())
		}
		foot := ShardFooter{Kind: genString(rng), Records: rec.Ordinal, Digest: rec.Digest}
		if got, want := appendFooterLine(nil, &foot), oldLine(t, foot); !bytes.Equal(got, want) {
			t.Fatalf("footer %+v:\n  appended %q\n  json     %q", foot, got, want)
		}

		var viaJSON OutcomeRecord
		if err := json.Unmarshal(line, &viaJSON); err != nil {
			t.Fatalf("encoding/json refuses the appended line %q: %v", line, err)
		}
		pattern, digest, _, err := parseRecordLine(line, &back, &scratch)
		back.Pattern, back.Digest = string(pattern), string(digest)
		if reflect.DeepEqual(viaJSON, rec) {
			if err != nil {
				t.Fatalf("parser refuses the canonical line %q: %v", line, err)
			}
			if !reflect.DeepEqual(back, rec) {
				t.Fatalf("line %q parsed to %+v, want %+v", line, back, rec)
			}
		} else if err == nil && !reflect.DeepEqual(back, viaJSON) {
			// Invalid UTF-8 does not survive either codec; what matters is
			// that both read the same thing out of the same bytes.
			t.Fatalf("line %q parsed to %+v, encoding/json reads %+v", line, back, viaJSON)
		}
	}
}

// TestStreamMatchesOldStream re-seals generated records with both
// writers and reads the result with both readers: same bytes, same
// verdict, same records. The new reader also checks each record's place
// in its stripe, which the old one did not: the same records re-sealed
// with one of them out of its place must be refused.
func TestStreamMatchesOldStream(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	for k := 0; k < 200; k++ {
		shards := 1 + rng.Intn(3)
		hdr := ShardHeader{Shard: rng.Intn(shards), Shards: shards, Stack: strings.ToValidUTF8(genString(rng), "?"), N: 3, T: 1, Horizon: 3, Count: -1}
		recs := make([]OutcomeRecord, rng.Intn(6))
		for i := range recs {
			recs[i] = genRecord(rng)
			recs[i].Ordinal = int64(hdr.Shard + shards*i)
		}
		var got, want bytes.Buffer
		sum, err := WriteOutcomeStream(&got, hdr, recs)
		if err != nil {
			t.Fatalf("WriteOutcomeStream: %v", err)
		}
		oldSum, err := oldWriteOutcomeStream(&want, hdr, recs)
		if err != nil {
			t.Fatalf("old WriteOutcomeStream: %v", err)
		}
		if !bytes.Equal(got.Bytes(), want.Bytes()) {
			t.Fatalf("streams differ:\n  new %q\n  old %q", got.Bytes(), want.Bytes())
		}
		if !reflect.DeepEqual(sum, oldSum) {
			t.Fatalf("summaries differ: %+v vs %+v", sum, oldSum)
		}
		assertReadersAgree(t, got.Bytes(), true)

		if len(recs) == 0 {
			continue
		}
		i := rng.Intn(len(recs))
		recs[i].Ordinal += 1 + rng.Int63n(int64(2*shards))
		var misplaced bytes.Buffer
		if _, err := WriteOutcomeStream(&misplaced, hdr, recs); err != nil {
			t.Fatalf("WriteOutcomeStream: %v", err)
		}
		if _, err := serialRead(misplaced.Bytes()); err == nil {
			t.Fatalf("the reader accepts record %d at ordinal %d of stripe %d/%d: %q", i, recs[i].Ordinal, hdr.Shard, shards, misplaced.Bytes())
		}
	}
}

// assertReadersAgree reads data with the new and the old reader. What
// the new reader accepts the old one must accept with equal header,
// records and footer; with both set, the verdicts must be the same too
// (true of everything the writer produces, not of arbitrary bytes: the
// new reader is the stricter one).
func assertReadersAgree(t *testing.T, data []byte, both bool) {
	t.Helper()
	read := func(header func() (ShardHeader, error), next func() (*OutcomeRecord, error), footer func() *ShardFooter) (ShardHeader, []OutcomeRecord, *ShardFooter, error) {
		hdr, err := header()
		if err != nil {
			return hdr, nil, nil, err
		}
		var recs []OutcomeRecord
		for {
			rec, err := next()
			if errors.Is(err, io.EOF) {
				return hdr, recs, footer(), nil
			}
			if err != nil {
				return hdr, recs, nil, err
			}
			recs = append(recs, *rec)
		}
	}
	var or *OutcomeReader
	hdr, recs, foot, err := read(
		func() (h ShardHeader, err error) {
			if or, err = NewOutcomeReader(bytes.NewReader(data)); err == nil {
				h = or.Header()
			}
			return h, err
		},
		func() (*OutcomeRecord, error) { return or.Next() },
		func() *ShardFooter { return or.Footer() })
	var old *oldOutcomeReader
	oldHdr, oldRecs, oldFoot, oldErr := read(
		func() (h ShardHeader, err error) {
			if old, err = newOldOutcomeReader(bytes.NewReader(data)); err == nil {
				h = old.header
			}
			return h, err
		},
		func() (*OutcomeRecord, error) { return old.Next() },
		func() *ShardFooter { return old.footer })
	if err != nil {
		if both && oldErr == nil {
			t.Fatalf("new reader refuses (%v) a stream the old reader accepts: %q", err, data)
		}
		return
	}
	if oldErr != nil {
		t.Fatalf("new reader accepts a stream the old reader refuses (%v): %q", oldErr, data)
	}
	if hdr != oldHdr || !reflect.DeepEqual(recs, oldRecs) || !reflect.DeepEqual(foot, oldFoot) {
		t.Fatalf("readers disagree on %q:\n  new %+v %+v %+v\n  old %+v %+v %+v", data, hdr, recs, foot, oldHdr, oldRecs, oldFoot)
	}
}

// TestReaderRefusesNonCanonicalLines spells one record every way JSON
// allows but the writer does not, and checks each is refused though
// encoding/json reads them all as the same record.
func TestReaderRefusesNonCanonicalLines(t *testing.T) {
	rec := OutcomeRecord{Ordinal: 0, Pattern: "n=3;h=3;f=;d=", Inits: []int{0, 1, 1}, Decisions: []int{0, 0, 0}, Rounds: []int{2, 2, 2}}
	rec.Digest = rec.ComputeDigest()
	canon := string(appendRecordLine(nil, &rec, rec.Pattern, rec.Digest))
	stream := func(line string) []byte {
		var buf bytes.Buffer
		if _, err := WriteOutcomeStream(&buf, ShardHeader{Shards: 1, Stack: "min", N: 3, T: 1, Horizon: 3, Count: 1}, []OutcomeRecord{rec}); err != nil {
			t.Fatal(err)
		}
		return bytes.Replace(buf.Bytes(), []byte(canon), []byte(line), 1)
	}
	if _, err := VerifyOutcomeStream(bytes.NewReader(stream(canon))); err != nil {
		t.Fatalf("canonical stream refused: %v", err)
	}
	for name, line := range map[string]string{
		"space after colon":  strings.Replace(canon, `"ord":0`, `"ord": 0`, 1),
		"leading zero":       strings.Replace(canon, `"ord":0`, `"ord":00`, 1),
		"negative zero":      strings.Replace(canon, `"ord":0`, `"ord":-0`, 1),
		"exponent":           strings.Replace(canon, `"ord":0`, `"ord":0e0`, 1),
		"escaped plain rune": strings.Replace(canon, `n=3`, `\u006e=3`, 1),
		"escaped slash":      strings.Replace(canon, `n=3`, `n\/=3`, 1),
		"explicit mult zero": strings.Replace(canon, `,"digest"`, `,"mult":0,"digest"`, 1),
		"reordered keys":     strings.Replace(canon, `{"ord":0,"pattern":"n=3;h=3;f=;d="`, `{"pattern":"n=3;h=3;f=;d=","ord":0`, 1),
		"unknown key":        strings.Replace(canon, `{"ord":0`, `{"x":1,"ord":0`, 1),
		"space in array":     strings.Replace(canon, `[0,1,1]`, `[0, 1,1]`, 1),
		"trailing space":     strings.Replace(canon, "}\n", "} \n", 1),
		"carriage return":    strings.Replace(canon, "}\n", "}\r\n", 1),
		"two records a line": strings.TrimSuffix(canon, "\n") + canon,
	} {
		if line == canon {
			t.Fatalf("%s: the variant is the canonical line", name)
		}
		_, err := VerifyOutcomeStream(bytes.NewReader(stream(line)))
		if err == nil || !strings.Contains(err.Error(), "decoding record 0") {
			t.Errorf("%s: err = %v, want record 0 refused", name, err)
		}
	}
	// Nothing may follow the footer.
	if _, err := VerifyOutcomeStream(bytes.NewReader(append(stream(canon), '\n'))); err == nil || !strings.Contains(err.Error(), "footer") {
		t.Errorf("data after the footer: err = %v", err)
	}
}

// repeat is an endless reader of one byte, so the over-long line below
// costs the test itself no memory.
type repeat byte

func (b repeat) Read(p []byte) (int, error) {
	for i := range p {
		p[i] = byte(b)
	}
	return len(p), nil
}

// TestReaderBoundsLineLength is the regression test for the unbounded
// buffering of a newline-free stream: a 4 MiB line — as a record, or as
// the header — is refused with an error naming the stripe and record,
// having allocated a bounded amount.
func TestReaderBoundsLineLength(t *testing.T) {
	const hostile = 4 << 20
	var hdr bytes.Buffer
	if _, err := WriteOutcomeStream(&hdr, ShardHeader{Shards: 1, Stack: "min", N: 3, T: 1, Horizon: 3, Count: -1}, nil); err != nil {
		t.Fatal(err)
	}
	header := hdr.Bytes()[:bytes.IndexByte(hdr.Bytes(), '\n')+1]
	longRecord := func() io.Reader {
		return io.MultiReader(bytes.NewReader(header), strings.NewReader(`{"ord":0,"pattern":"`), io.LimitReader(repeat('x'), hostile))
	}
	measure := func(name, want string, f func() error) {
		t.Helper()
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		err := f()
		runtime.ReadMemStats(&after)
		if err == nil || !strings.Contains(err.Error(), "line exceeds") || !strings.Contains(err.Error(), want) {
			t.Errorf("%s: err = %v, want an over-long line at %q", name, err, want)
		}
		if got := after.TotalAlloc - before.TotalAlloc; got > hostile/2 {
			t.Errorf("%s: allocated %d bytes refusing a %d-byte line", name, got, hostile)
		}
	}
	measure("verify", "shard 0/1: decoding record 0", func() error {
		_, err := VerifyOutcomeStream(longRecord())
		return err
	})
	measure("merge", "shard 0/1: decoding record 0", func() error {
		_, err := MergeOutcomes(nil, longRecord())
		return err
	})
	measure("header", "header", func() error {
		_, err := VerifyOutcomeStream(io.LimitReader(repeat('{'), hostile))
		return err
	})
}

// BenchmarkStreamCodec prices the codec against the one it replaced, per
// record of a real stripe (fip n=4, t=1, stripe 0 of 4): write re-seals
// the stripe's records, read verifies the stream. docs/architecture.md,
// "Stream cost model", quotes these rows.
func BenchmarkStreamCodec(b *testing.B) {
	st := MustStack("fip", WithN(4), WithT(1))
	var raw bytes.Buffer
	if _, err := NewRunner(st).RunShard(context.Background(), FromScenarios(randomScenarios(5, 4, 1, 4096)), 0, 1, &raw); err != nil {
		b.Fatal(err)
	}
	or, err := NewOutcomeReader(bytes.NewReader(raw.Bytes()))
	if err != nil {
		b.Fatal(err)
	}
	var recs []OutcomeRecord
	for {
		rec, err := or.Next()
		if errors.Is(err, io.EOF) {
			break
		}
		if err != nil {
			b.Fatal(err)
		}
		recs = append(recs, *rec)
	}
	perRecord := func(b *testing.B) {
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(len(recs)), "ns/record")
	}
	for _, w := range []struct {
		name  string
		write func(io.Writer, ShardHeader, []OutcomeRecord) (*ShardSummary, error)
	}{{"write", WriteOutcomeStream}, {"write-old", oldWriteOutcomeStream}} {
		b.Run(w.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := w.write(io.Discard, or.Header(), recs); err != nil {
					b.Fatal(err)
				}
			}
			perRecord(b)
		})
	}
	b.Run("read", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := VerifyOutcomeStream(bytes.NewReader(raw.Bytes())); err != nil {
				b.Fatal(err)
			}
		}
		perRecord(b)
	})
	b.Run("read-old", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			old, err := newOldOutcomeReader(bytes.NewReader(raw.Bytes()))
			if err != nil {
				b.Fatal(err)
			}
			for {
				if _, err := old.Next(); errors.Is(err, io.EOF) {
					break
				} else if err != nil {
					b.Fatal(err)
				}
			}
		}
		perRecord(b)
	})
}
