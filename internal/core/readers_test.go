package core

import (
	"bytes"
	"context"
	"errors"
	"io"
	goruntime "runtime"
	"strings"
	"sync"
	"testing"
	"time"
)

// fipN4 is the fip n=4,t=1 sweep's outcome stream, whole and as its four
// stripes: 32,784 records, far above serialBelow, so VerifyOutcomeStream
// and MergeOutcomes take their parallel paths on it.
var fipN4 = struct {
	sync.Once
	whole   []byte
	stripes [4][]byte
}{}

func fipN4Streams(tb testing.TB) ([]byte, [4][]byte) {
	tb.Helper()
	fipN4.Do(func() {
		runner := NewRunner(MustStack("fip", WithN(4), WithT(1)), WithParallelism(2))
		src := sweep{n: 4, t: 1}.source(tb)
		var buf bytes.Buffer
		if _, err := runner.RunShard(context.Background(), src, 0, 1, &buf); err != nil {
			tb.Fatal(err)
		}
		fipN4.whole = buf.Bytes()
		for i := range fipN4.stripes {
			var buf bytes.Buffer
			if _, err := runner.RunShard(context.Background(), sweep{n: 4, t: 1}.source(tb), i, 4, &buf); err != nil {
				tb.Fatal(err)
			}
			fipN4.stripes[i] = buf.Bytes()
		}
	})
	if fipN4.whole == nil {
		tb.Fatal("the fip n=4 streams failed to build")
	}
	return fipN4.whole, fipN4.stripes
}

// serialRead drains a stream through NewOutcomeReader(…).Next(), the
// serial reader, into the summary VerifyOutcomeStream reports.
func serialRead(stream []byte) (*ShardSummary, error) {
	or, err := NewOutcomeReader(bytes.NewReader(stream))
	if err != nil {
		return nil, err
	}
	sum := &ShardSummary{Header: or.Header()}
	for {
		rec, err := or.Next()
		if errors.Is(err, io.EOF) {
			break
		}
		if err != nil {
			return nil, err
		}
		sum.Records++
		sum.Weighted += rec.EffectiveMult()
	}
	sum.Digest = or.Footer().Digest
	return sum, nil
}

// streamLines splits a stream into its lines, newlines kept.
func streamLines(stream []byte) [][]byte {
	lines := bytes.SplitAfter(stream, []byte("\n"))
	return lines[:len(lines)-1]
}

// edited returns the stream with line i (0 is the header) replaced.
func edited(stream []byte, i int, line []byte) []byte {
	lines := streamLines(stream)
	lines[i] = line
	return bytes.Join(lines, nil)
}

// flipHex changes a hex digit into another.
func flipHex(b byte) byte { return "1032547698badcfe"[strings.IndexByte("0123456789abcdef", b)] }

// flipDigest changes the first hex digit of record rec's digest, which
// keeps the line canonical and breaks only the digest.
func flipDigest(stream []byte, rec int) []byte {
	line := bytes.Clone(streamLines(stream)[rec+1])
	at := bytes.Index(line, []byte(`"digest":"`)) + len(`"digest":"`)
	line[at] = flipHex(line[at])
	return edited(stream, rec+1, line)
}

// resealed re-seals a stream's records after edit, so only what edit did
// is wrong with it.
func resealed(t *testing.T, stream []byte, edit func([]OutcomeRecord) []OutcomeRecord) []byte {
	t.Helper()
	or, err := NewOutcomeReader(bytes.NewReader(stream))
	if err != nil {
		t.Fatal(err)
	}
	var recs []OutcomeRecord
	for {
		rec, err := or.Next()
		if errors.Is(err, io.EOF) {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		recs = append(recs, *rec)
	}
	var buf bytes.Buffer
	if _, err := WriteOutcomeStream(&buf, or.Header(), edit(recs)); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// noLeak waits briefly for the goroutine count to fall back to before.
func noLeak(t *testing.T, what string, before int) {
	t.Helper()
	deadline := time.After(5 * time.Second)
	for goruntime.NumGoroutine() > before {
		select {
		case <-deadline:
			t.Fatalf("%s: goroutines leaked: %d before, %d after", what, before, goruntime.NumGoroutine())
		case <-time.After(5 * time.Millisecond):
		}
	}
}

// TestParallelReadersMatchSerialReader holds VerifyOutcomeStream and
// MergeOutcomes, which check chunks of lines on workers (readChunks), to
// the serial reader on the fip n=4 stream and its stripes: the same
// summary on the intact streams, the same error text on each corruption,
// and no goroutine left behind by a rejected stream.
func TestParallelReadersMatchSerialReader(t *testing.T) {
	whole, stripes := fipN4Streams(t)
	want, err := serialRead(whole)
	if err != nil {
		t.Fatal(err)
	}
	if want.Records != 32784 || want.Header.Count != 32784 {
		t.Fatalf("the fip n=4 stream holds %d records (header %d), want 32784", want.Records, want.Header.Count)
	}
	got, err := VerifyOutcomeStream(bytes.NewReader(whole))
	if err != nil || *got != *want {
		t.Fatalf("VerifyOutcomeStream = %+v, %v; the serial reader reads %+v", got, err, want)
	}
	readers := func(s [4][]byte) []io.Reader {
		out := make([]io.Reader, len(s))
		for i := range s {
			out[i] = bytes.NewReader(s[i])
		}
		return out
	}
	for i, s := range stripes {
		want, err := serialRead(s)
		if err != nil {
			t.Fatal(err)
		}
		if got, err := VerifyOutcomeStream(bytes.NewReader(s)); err != nil || *got != *want {
			t.Fatalf("stripe %d: VerifyOutcomeStream = %+v, %v; the serial reader reads %+v", i, got, err, want)
		}
	}
	var merged bytes.Buffer
	msum, err := MergeOutcomes(&merged, readers(stripes)...)
	if err != nil || msum.Total != want.Records || msum.Weighted != want.Weighted || msum.Digest != want.Digest {
		t.Fatalf("MergeOutcomes = %+v, %v; the serial reader reads %+v", msum, err, want)
	}
	if !bytes.Equal(merged.Bytes(), whole) {
		t.Fatal("the merged stripes differ from the whole stream")
	}

	last := int(want.Records) - 1
	lines := streamLines(whole)
	foot := lines[len(lines)-1]
	var footer ShardFooter
	if err := parseFooterLine(foot, &footer, &lineScratch{}); err != nil {
		t.Fatal(err)
	}
	countOff, digestOff := footer, footer
	countOff.Records++
	digestOff.Digest = string(flipHex(footer.Digest[0])) + footer.Digest[1:]
	nonCanonical := bytes.Replace(lines[1+last/2], []byte(`{"ord":`), []byte(`{"ord":0`), 1)
	corrupt := map[string][]byte{
		"digest of the first record":       flipDigest(whole, 0),
		"digest at a chunk boundary":       flipDigest(whole, linesPerChunk),
		"digest before a chunk boundary":   flipDigest(whole, linesPerChunk-1),
		"digest of the last record":        flipDigest(whole, last),
		"non-canonical line":               edited(whole, 1+last/2, nonCanonical),
		"truncated before the footer":      bytes.Join(lines[:len(lines)-1], nil),
		"truncated mid-record":             bytes.Join(append(lines[:1+last/2:1+last/2], lines[1+last/2][:40]), nil),
		"footer count off by one":          edited(whole, len(lines)-1, appendFooterLine(nil, &countOff)),
		"footer digest off by one":         edited(whole, len(lines)-1, appendFooterLine(nil, &digestOff)),
		"data after the footer":            append(bytes.Clone(whole), lines[1]...),
		"a line of another kind":           edited(whole, 1+last/2, []byte(`{"kind":"header","records":0,"digest":""}`+"\n")),
		"a line over the length bound":     edited(whole, 1+last/2, append(bytes.Repeat([]byte("x"), maxLineBytes+1), '\n')),
		"a record of another stripe (1/4)": edited(stripes[1], 1+linesPerChunk, streamLines(stripes[2])[1+linesPerChunk]),
	}
	// Lines long enough to end chunks by bytes rather than by count, then
	// one too long for any chunk, after which the serial reader reads on;
	// records whose errors name their positions on either side.
	budget := maxLineBytes / (chunksPerWorker * goruntime.GOMAXPROCS(0))
	long := resealed(t, stripes[0], func(recs []OutcomeRecord) []OutcomeRecord {
		for i := 0; i < 12; i++ {
			recs[i].Pattern = strings.Repeat("x", budget/3)
		}
		recs[12].Pattern = strings.Repeat("x", budget+1)
		return recs
	})
	corrupt["digest among lines that end chunks by bytes"] = flipDigest(long, 7)
	corrupt["digest of a line too long for a chunk"] = flipDigest(long, 12)
	corrupt["non-canonical line after long lines"] = edited(long, 1+600, bytes.Replace(streamLines(long)[1+600], []byte(`{"ord":`), []byte(`{"ord":0`), 1))
	for name, stream := range corrupt {
		_, werr := serialRead(stream)
		if werr == nil {
			t.Fatalf("%s: the serial reader accepts it", name)
		}
		before := goruntime.NumGoroutine()
		if _, err := VerifyOutcomeStream(bytes.NewReader(stream)); err == nil || err.Error() != werr.Error() {
			t.Errorf("%s: VerifyOutcomeStream = %v; the serial reader says %v", name, err, werr)
		}
		noLeak(t, name, before)
	}

	// The merge reports a corrupt stripe's first error as the serial
	// reader words it, a gap or an overlap in the canonical order among
	// them.
	dropped := resealed(t, stripes[2], func(recs []OutcomeRecord) []OutcomeRecord {
		return append(recs[:100:100], recs[101:]...)
	})
	doubled := resealed(t, stripes[3], func(recs []OutcomeRecord) []OutcomeRecord {
		return append(recs[:201:201], recs[200:]...)
	})
	short := resealed(t, stripes[2], func(recs []OutcomeRecord) []OutcomeRecord { return recs[:len(recs)-1] })
	// Without a declared count only the other stripes show where it ended.
	shortUncounted := edited(short, 0, bytes.Replace(streamLines(short)[0], []byte(`"count":8196`), []byte(`"count":-1`), 1))
	for name, tc := range map[string]struct {
		stripe int
		stream []byte
		want   string
	}{
		"digest at a chunk boundary": {1, flipDigest(stripes[1], linesPerChunk), ""},
		"digest after a line too long for a chunk": {0, flipDigest(resealed(t, stripes[0], func(recs []OutcomeRecord) []OutcomeRecord {
			recs[12].Pattern = strings.Repeat("x", maxLineBytes/(chunksPerWorker*goruntime.GOMAXPROCS(0))+1)
			return recs
		}), 300), ""},
		"digest of the last record":         {3, flipDigest(stripes[3], 8195), ""},
		"a record of another stripe":        {1, corrupt["a record of another stripe (1/4)"], ""},
		"truncated before the footer":       {0, bytes.Join(streamLines(stripes[0])[:8197], nil), ""},
		"footer count off by one":           {2, edited(stripes[2], 8197, bytes.Replace(streamLines(stripes[2])[8197], []byte(`"records":8196`), []byte(`"records":8197`), 1)), ""},
		"data after the footer":             {1, append(bytes.Clone(stripes[1]), streamLines(stripes[1])[1]...), ""},
		"a gap in the canonical order":      {2, dropped, "core: shard 2/4: record 100 carries ordinal 406 where the stripe needs 402"},
		"an overlap in the order":           {3, doubled, "core: shard 3/4: record 201 carries ordinal 803 where the stripe needs 807"},
		"a stripe that ends a record early": {2, short, "core: shard 2/4: footer seals 8195 records, header declares 8196"},
		"a stripe of no declared count that ends a record early": {2, shortUncounted,
			"core: shard 3 carries ordinal 32783 beyond the sweep's end at 32782 (gap or overlap)"},
	} {
		if tc.want == "" {
			_, werr := serialRead(tc.stream)
			if werr == nil {
				t.Fatalf("merge %s: the serial reader accepts the stripe", name)
			}
			tc.want = werr.Error()
		}
		s := stripes
		s[tc.stripe] = tc.stream
		before := goruntime.NumGoroutine()
		if _, err := MergeOutcomes(io.Discard, readers(s)...); err == nil || err.Error() != tc.want {
			t.Errorf("merge %s: %v; want %s", name, err, tc.want)
		}
		noLeak(t, "merge "+name, before)
	}
}

// cancellingWriter cancels its context once it has taken n bytes.
type cancellingWriter struct {
	n      int
	cancel context.CancelFunc
}

func (w *cancellingWriter) Write(p []byte) (int, error) {
	if w.n -= len(p); w.n <= 0 {
		w.cancel()
	}
	return len(p), nil
}

// TestRunShardCancelLeaksNoGoroutines cancels RunShard mid-stripe, while
// the calling goroutine seals records, and checks the pool winds down.
func TestRunShardCancelLeaksNoGoroutines(t *testing.T) {
	st := MustStack("fip", WithN(4), WithT(1))
	before := goruntime.NumGoroutine()
	for i := 0; i < 3; i++ {
		ctx, cancel := context.WithCancel(context.Background())
		_, err := NewRunner(st, WithParallelism(4)).RunShard(ctx, sweep{n: 4, t: 1}.source(t), 0, 1, &cancellingWriter{n: 200 << 10, cancel: cancel})
		cancel()
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("cancelled RunShard = %v, want context.Canceled", err)
		}
	}
	noLeak(t, "cancelled RunShard", before)
}

// TestStreamReadersAllocCeiling pins the readers' allocations on the fip
// n=4 stream: the line check works on views of the line and the chunk
// buffers are recycled, so neither VerifyOutcomeStream nor MergeOutcomes
// allocates per record. The reader that made two strings per record
// made 2 allocations per record here.
func TestStreamReadersAllocCeiling(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's instrumentation allocates on its own")
	}
	whole, stripes := fipN4Streams(t)
	const records, ceiling = 32784, 0.05 // allocations per record
	for name, f := range map[string]func() error{
		"VerifyOutcomeStream": func() error {
			_, err := VerifyOutcomeStream(bytes.NewReader(whole))
			return err
		},
		"MergeOutcomes": func() error {
			rs := make([]io.Reader, len(stripes))
			for i := range stripes {
				rs[i] = bytes.NewReader(stripes[i])
			}
			_, err := MergeOutcomes(io.Discard, rs...)
			return err
		},
	} {
		if err := f(); err != nil {
			t.Fatal(err)
		}
		per := testing.AllocsPerRun(5, func() { f() }) / records
		if per > ceiling {
			t.Errorf("%s: %.4f allocations per record, ceiling %v", name, per, ceiling)
		}
	}
}

// TestReadersBoundLongLines pins the bytes VerifyOutcomeStream and
// MergeOutcomes allocate on streams of long, validly sealed lines, beyond
// what the serial reader allocates on each stream: lines of a third of a
// chunk's byte budget end chunks by bytes, and a line over the budget
// hands the rest of its stream to the serial reader. The chunks in flight
// hold maxLineBytes together, twice that once append has grown their
// buffers, and the workers' scratch holds at most another; chunks cut by
// count alone took one or two line bounds each.
func TestReadersBoundLongLines(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's instrumentation allocates on its own")
	}
	_, stripes := fipN4Streams(t)
	long := func(stream []byte, budget int) []byte {
		return resealed(t, stream, func(recs []OutcomeRecord) []OutcomeRecord {
			for i := 0; i < 80; i++ {
				recs[i].Pattern = strings.Repeat("x", budget/3)
			}
			recs[80].Pattern = strings.Repeat("x", budget+1)
			return recs
		})
	}
	allocated := func(f func() error) uint64 {
		t.Helper()
		var before, after goruntime.MemStats
		goruntime.ReadMemStats(&before)
		if err := f(); err != nil {
			t.Fatal(err)
		}
		goruntime.ReadMemStats(&after)
		return after.TotalAlloc - before.TotalAlloc
	}
	serial := func(stream []byte) uint64 {
		return allocated(func() error {
			or, err := NewOutcomeReader(bytes.NewReader(stream))
			for err == nil {
				_, _, err = or.next(&or.rec, &lineRef{})
			}
			if errors.Is(err, io.EOF) {
				return nil
			}
			return err
		})
	}
	const extra = 3 * maxLineBytes

	stream := long(stripes[0], maxLineBytes/(chunksPerWorker*goruntime.GOMAXPROCS(0)))
	want, err := serialRead(stream)
	if err != nil {
		t.Fatal(err)
	}
	bound := serial(stream) + extra
	if got := allocated(func() error {
		sum, err := VerifyOutcomeStream(bytes.NewReader(stream))
		if err == nil && *sum != *want {
			t.Errorf("VerifyOutcomeStream = %+v; the serial reader reads %+v", sum, want)
		}
		return err
	}); got > bound {
		t.Errorf("VerifyOutcomeStream allocated %d bytes, bound %d", got, bound)
	}

	var rs []io.Reader
	bound = extra
	for i := range stripes {
		stream := long(stripes[i], maxLineBytes/(chunksPerWorker*goruntime.GOMAXPROCS(0)))
		bound += serial(stream)
		rs = append(rs, bytes.NewReader(stream))
	}
	if got := allocated(func() error {
		sum, err := MergeOutcomes(io.Discard, rs...)
		if err == nil && sum.Total != 32784 {
			t.Errorf("MergeOutcomes merged %d records, want 32784", sum.Total)
		}
		return err
	}); got > bound {
		t.Errorf("MergeOutcomes allocated %d bytes, bound %d", got, bound)
	}
}

// TestVerifyRejectsMisplacedRecords re-seals the fip n=4 stream and its
// stripe 0/4 after dropping or swapping records, so every digest, the
// chain and the footer agree with what is left: the serial reader and
// VerifyOutcomeStream must still refuse, in the same words, a stream that
// carries fewer records than its header declares and a stripe whose
// records are out of their places, on the chunked path and on the serial
// one.
func TestVerifyRejectsMisplacedRecords(t *testing.T) {
	whole, stripes := fipN4Streams(t)
	swapped := func(recs []OutcomeRecord) []OutcomeRecord {
		recs[0], recs[1] = recs[1], recs[0]
		return recs
	}
	// A stripe under serialBelow records, checked on the calling goroutine.
	short := resealed(t, stripes[0], func(recs []OutcomeRecord) []OutcomeRecord { return recs[:100] })
	short = edited(short, 0, bytes.Replace(streamLines(short)[0], []byte(`"count":8196`), []byte(`"count":100`), 1))
	for name, tc := range map[string]struct {
		stream []byte
		want   string
	}{
		"a stream cut to 3 records": {resealed(t, whole, func(recs []OutcomeRecord) []OutcomeRecord { return recs[:3] }),
			"core: shard 0/1: footer seals 3 records, header declares 32784"},
		"a stream cut by its last record": {resealed(t, whole, func(recs []OutcomeRecord) []OutcomeRecord { return recs[:len(recs)-1] }),
			"core: shard 0/1: footer seals 32783 records, header declares 32784"},
		"stripe 0 with its first two records swapped": {resealed(t, stripes[0], swapped),
			"core: shard 0/4: record 0 carries ordinal 4 where the stripe needs 0"},
		"a short stripe with its first two records swapped": {resealed(t, short, swapped),
			"core: shard 0/4: record 0 carries ordinal 4 where the stripe needs 0"},
		"a short stripe cut by its last record": {resealed(t, short, func(recs []OutcomeRecord) []OutcomeRecord { return recs[:99] }),
			"core: shard 0/4: footer seals 99 records, header declares 100"},
	} {
		if _, err := serialRead(tc.stream); err == nil || err.Error() != tc.want {
			t.Errorf("%s: the serial reader = %v; want %s", name, err, tc.want)
		}
		if _, err := VerifyOutcomeStream(bytes.NewReader(tc.stream)); err == nil || err.Error() != tc.want {
			t.Errorf("%s: VerifyOutcomeStream = %v; want %s", name, err, tc.want)
		}
	}
	if sum, err := VerifyOutcomeStream(bytes.NewReader(short)); err != nil || sum.Records != 100 {
		t.Fatalf("the short stripe: VerifyOutcomeStream = %+v, %v", sum, err)
	}
}

// stallingReader serves data, then blocks in Read until release closes
// and reports io.EOF; stalled closes when the first Read blocks.
type stallingReader struct {
	data             []byte
	stalled, release chan struct{}
}

func (r *stallingReader) Read(p []byte) (int, error) {
	if len(r.data) > 0 {
		n := copy(p, r.data)
		r.data = r.data[n:]
		return n, nil
	}
	select {
	case <-r.stalled:
	default:
		close(r.stalled)
	}
	<-r.release
	return 0, io.EOF
}

// TestReadersWaitForAStalledRead holds VerifyOutcomeStream and
// MergeOutcomes to their documented wait: a long stream whose first
// record is corrupt, served by a reader that then stalls in Read, gets no
// answer until the Read returns, and then the first error, with no
// goroutine left behind.
func TestReadersWaitForAStalledRead(t *testing.T) {
	whole, stripes := fipN4Streams(t)
	// The stall comes after a whole chunk of positions and within the
	// window at any GOMAXPROCS: record 40 of the stream, record 10 of the
	// merge's stripe 1 (position 41).
	for name, tc := range map[string]struct {
		corrupt []byte
		records int
		read    func(r io.Reader) error
	}{
		"VerifyOutcomeStream": {flipDigest(whole, 0), 40, func(r io.Reader) error {
			_, err := VerifyOutcomeStream(r)
			return err
		}},
		"MergeOutcomes": {flipDigest(stripes[1], 0), 10, func(r io.Reader) error {
			_, err := MergeOutcomes(io.Discard, bytes.NewReader(stripes[0]), r, bytes.NewReader(stripes[2]), bytes.NewReader(stripes[3]))
			return err
		}},
	} {
		_, want := serialRead(tc.corrupt)
		if want == nil {
			t.Fatalf("%s: the serial reader accepts the corrupt stream", name)
		}
		lines := streamLines(tc.corrupt)
		sr := &stallingReader{data: bytes.Join(lines[:1+tc.records], nil), stalled: make(chan struct{}), release: make(chan struct{})}
		before := goruntime.NumGoroutine()
		done := make(chan error, 1)
		go func() { done <- tc.read(sr) }()
		select {
		case <-sr.stalled:
		case err := <-done:
			t.Fatalf("%s: returned %v before the Read stalled", name, err)
		}
		select {
		case err := <-done:
			t.Fatalf("%s: returned %v while a Read was stalled", name, err)
		case <-time.After(50 * time.Millisecond):
		}
		close(sr.release)
		select {
		case err := <-done:
			if err == nil || err.Error() != want.Error() {
				t.Errorf("%s = %v; the serial reader says %v", name, err, want)
			}
		case <-time.After(10 * time.Second):
			t.Fatalf("%s: no answer after the Read returned", name)
		}
		noLeak(t, name, before)
	}
}
