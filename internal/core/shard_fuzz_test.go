package core

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"io"
	"testing"
)

// fuzzStreamSeeds builds one intact outcome stream plus the torn
// variants TestMergeDiagnosesTornStreams pins — truncation mid-record,
// a missing footer, and footers lying about their count or digest — as
// the fuzz corpus.
func fuzzStreamSeeds(f *testing.F) [][]byte {
	st := MustStack("min", WithN(3), WithT(1))
	scenarios := streamScenarios(3, st.Horizon(), 8)
	runner := NewRunner(st)
	var buf bytes.Buffer
	if _, err := runner.RunShard(context.Background(), FromScenarios(scenarios), 0, 2, &buf); err != nil {
		f.Fatalf("seeding outcome stream: %v", err)
	}
	intact := buf.Bytes()

	rows := bytes.Split(bytes.TrimSuffix(intact, []byte("\n")), []byte("\n"))
	if len(rows) < 3 {
		f.Fatalf("seed stream has %d lines; need header, records, footer", len(rows))
	}
	join := func(rs [][]byte) []byte {
		return append(bytes.Join(rs, []byte("\n")), '\n')
	}
	var foot ShardFooter
	if err := json.Unmarshal(rows[len(rows)-1], &foot); err != nil {
		f.Fatalf("decoding seed footer: %v", err)
	}
	countLie, digestLie := foot, foot
	countLie.Records++
	digestLie.Digest = digestLie.Digest[1:] + "0"
	reseal := func(ft ShardFooter) []byte {
		line, err := json.Marshal(ft)
		if err != nil {
			f.Fatalf("re-marshaling seed footer: %v", err)
		}
		return join(append(append([][]byte{}, rows[:len(rows)-1]...), line))
	}

	return [][]byte{
		intact,
		join(rows[:len(rows)-1]), // cleanly missing footer
		append(join(rows[:1]), rows[1][:len(rows[1])/2]...), // truncated mid-record
		reseal(countLie),
		reseal(digestLie),
		[]byte("{}\n"),
		[]byte(`{"kind":"eba-outcomes","version":999}` + "\n"),
	}
}

// FuzzOutcomeReader feeds arbitrary bytes to the digest-verifying
// stream reader. Whatever the input, the reader must not panic, must
// report a footer exactly when it drains cleanly, and any stream it
// accepts must survive a parse -> reseal -> verify round trip with the
// same chained digest (the bit-identical merge contract), and must be a
// stream the old encoding/json reader accepts with the same header,
// records and footer: the strict reader may only narrow what is read.
func FuzzOutcomeReader(f *testing.F) {
	for _, seed := range fuzzStreamSeeds(f) {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		assertReadersAgree(t, data, false)
		or, err := NewOutcomeReader(bytes.NewReader(data))
		if err != nil {
			return
		}
		var recs []OutcomeRecord
		for {
			rec, err := or.Next()
			if errors.Is(err, io.EOF) {
				break
			}
			if err != nil {
				if or.Footer() != nil {
					t.Fatalf("reader errored (%v) after reporting a footer", err)
				}
				return
			}
			if rec == nil {
				t.Fatal("Next returned a nil record without an error")
			}
			recs = append(recs, *rec)
			if len(recs) > len(data) {
				t.Fatalf("reader produced %d records from %d bytes", len(recs), len(data))
			}
		}
		foot := or.Footer()
		if foot == nil {
			t.Fatal("reader drained cleanly but reports no footer")
		}
		if foot.Records != int64(len(recs)) {
			t.Fatalf("footer claims %d records, reader surfaced %d", foot.Records, len(recs))
		}

		// An accepted stream re-seals to a stream the verifier accepts,
		// with the identical chained digest: digests recompute from
		// content, so acceptance pins the bytes, not trust in the file.
		var resealed bytes.Buffer
		sum, err := WriteOutcomeStream(&resealed, or.Header(), recs)
		if err != nil {
			t.Fatalf("re-sealing an accepted stream: %v", err)
		}
		if sum.Digest != foot.Digest {
			t.Fatalf("re-sealed digest %s, accepted stream's footer %s", sum.Digest, foot.Digest)
		}
		if _, err := VerifyOutcomeStream(bytes.NewReader(resealed.Bytes())); err != nil {
			t.Fatalf("verifier rejects the re-sealed stream: %v", err)
		}
	})
}
