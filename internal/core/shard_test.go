package core

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"io"
	"strings"
	"testing"

	"repro/internal/engine"
)

// shardScenarios builds a deterministic scenario list for shard tests.
func shardScenarios(t *testing.T, n, horizon, count int) []Scenario {
	t.Helper()
	scenarios := streamScenarios(n, horizon, count)
	if len(scenarios) != count {
		t.Fatalf("built %d scenarios, want %d", len(scenarios), count)
	}
	return scenarios
}

// newOutcomeRecord builds the sealed record of one completed run as
// RunShard's stream writer writes it, read back through the reader.
func newOutcomeRecord(ordinal int64, res *engine.Result, weight int64) (OutcomeRecord, error) {
	var buf bytes.Buffer
	sw, err := newStreamWriter(&buf, ShardHeader{Kind: outcomeKind, Version: outcomeVersion, Shards: 1, Count: -1})
	if err == nil {
		err = sw.outcome(&RunOutcome{Result: res, Scenario: Scenario{Weight: weight}}, ordinal)
	}
	if err == nil {
		_, err = sw.finish()
	}
	if err != nil {
		return OutcomeRecord{}, err
	}
	or, err := NewOutcomeReader(&buf)
	if err != nil {
		return OutcomeRecord{}, err
	}
	rec, err := or.Next()
	if err != nil {
		return OutcomeRecord{}, err
	}
	return *rec, nil
}

// TestStrideBounds checks Stride's validation and the 1-way identity.
func TestStrideBounds(t *testing.T) {
	src := FromScenarios(nil)
	if _, err := Stride(src, 0, 0); err == nil {
		t.Fatal("Stride with shardCount 0 did not error")
	}
	if _, err := Stride(src, -1, 3); err == nil {
		t.Fatal("Stride with negative shardIndex did not error")
	}
	if _, err := Stride(src, 3, 3); err == nil {
		t.Fatal("Stride with shardIndex == shardCount did not error")
	}
	got, err := Stride(src, 0, 1)
	if err != nil {
		t.Fatalf("Stride 0/1: %v", err)
	}
	if got != src {
		t.Fatal("Stride 0/1 did not return the source unchanged")
	}
}

// TestStripeSize pins the stripe-length arithmetic the merge's
// gap/overlap verification rests on.
func TestStripeSize(t *testing.T) {
	for total := int64(0); total <= 20; total++ {
		for k := 1; k <= 5; k++ {
			var sum int64
			for i := 0; i < k; i++ {
				sum += StripeSize(total, i, k)
			}
			if sum != total {
				t.Fatalf("stripes of total=%d k=%d sum to %d", total, k, sum)
			}
		}
	}
	if got := StripeSize(5, 2, 3); got != 1 {
		t.Fatalf("StripeSize(5, 2, 3) = %d, want 1", got)
	}
	if got := StripeSize(2, 2, 3); got != 0 {
		t.Fatalf("StripeSize(2, 2, 3) = %d, want 0", got)
	}
}

// runShardStream executes one stripe into a buffer.
func runShardStream(t *testing.T, runner *Runner, scenarios []Scenario, shard, shards int) (*ShardSummary, []byte) {
	t.Helper()
	var buf bytes.Buffer
	sum, err := runner.RunShard(context.Background(), FromScenarios(scenarios), shard, shards, &buf)
	if err != nil {
		t.Fatalf("RunShard %d/%d: %v", shard, shards, err)
	}
	return sum, buf.Bytes()
}

// TestShardMergeBitIdentical is the subsystem's core invariant: for
// K ∈ {1, 2, 3}, merging the K stripes' streams yields a stream
// byte-identical to the single-process (0/1) one — same records, same
// order, same digests, same header and footer.
func TestShardMergeBitIdentical(t *testing.T) {
	st := MustStack("fip", WithN(3), WithT(1))
	scenarios := shardScenarios(t, 3, st.Horizon(), 41)
	runner := NewRunner(st, WithParallelism(4))

	single, singleStream := runShardStream(t, runner, scenarios, 0, 1)
	if single.Records != 41 {
		t.Fatalf("single-process shard ran %d records, want 41", single.Records)
	}

	for k := 1; k <= 3; k++ {
		streams := make([]io.Reader, k)
		for i := 0; i < k; i++ {
			_, raw := runShardStream(t, runner, scenarios, i, k)
			streams[i] = bytes.NewReader(raw)
		}
		var merged bytes.Buffer
		sum, err := MergeOutcomes(&merged, streams...)
		if err != nil {
			t.Fatalf("MergeOutcomes k=%d: %v", k, err)
		}
		if sum.Total != single.Records {
			t.Fatalf("k=%d merged %d records, want %d", k, sum.Total, single.Records)
		}
		if sum.Digest != single.Digest {
			t.Fatalf("k=%d merged digest %s, single-process digest %s", k, sum.Digest, single.Digest)
		}
		if !bytes.Equal(merged.Bytes(), singleStream) {
			t.Fatalf("k=%d merged stream differs from the single-process stream", k)
		}
	}
}

// TestShardStreamRoundTrip checks the reader hands back exactly what
// RunShard wrote, with verified digests and a sealed footer.
func TestShardStreamRoundTrip(t *testing.T) {
	st := MustStack("min", WithN(3), WithT(1))
	scenarios := shardScenarios(t, 3, st.Horizon(), 17)
	runner := NewRunner(st, WithParallelism(2))
	sum, raw := runShardStream(t, runner, scenarios, 1, 2)

	or, err := NewOutcomeReader(bytes.NewReader(raw))
	if err != nil {
		t.Fatalf("NewOutcomeReader: %v", err)
	}
	h := or.Header()
	if h.Shard != 1 || h.Shards != 2 || h.Stack != "min" || h.N != 3 || h.T != 1 {
		t.Fatalf("header = %+v", h)
	}
	if h.Count != 8 {
		t.Fatalf("header count = %d, want 8 (stripe 1 of 17)", h.Count)
	}
	var got int64
	for {
		rec, err := or.Next()
		if errors.Is(err, io.EOF) {
			break
		}
		if err != nil {
			t.Fatalf("Next: %v", err)
		}
		if rec.Ordinal != 1+2*got {
			t.Fatalf("record %d carries ordinal %d, want %d", got, rec.Ordinal, 1+2*got)
		}
		got++
	}
	if got != sum.Records {
		t.Fatalf("read %d records, summary says %d", got, sum.Records)
	}
	if or.Footer() == nil || or.Footer().Digest != sum.Digest {
		t.Fatalf("footer %+v, want digest %s", or.Footer(), sum.Digest)
	}
}

// TestMergeRejectsBadPartitions drives MergeOutcomes with every way a
// set of streams can fail to partition a sweep.
func TestMergeRejectsBadPartitions(t *testing.T) {
	st := MustStack("min", WithN(3), WithT(1))
	scenarios := shardScenarios(t, 3, st.Horizon(), 12)
	runner := NewRunner(st)
	_, s0 := runShardStream(t, runner, scenarios, 0, 3)
	_, s1 := runShardStream(t, runner, scenarios, 1, 3)
	_, s2 := runShardStream(t, runner, scenarios, 2, 3)

	cases := []struct {
		name    string
		streams [][]byte
		want    string
	}{
		{"missing shard", [][]byte{s0, s1}, "declares a 3-way split"},
		{"duplicate shard", [][]byte{s0, s1, s1}, "both claim shard"},
		{"no streams", nil, "zero outcome streams"},
	}
	for _, tc := range cases {
		readers := make([]io.Reader, len(tc.streams))
		for i, s := range tc.streams {
			readers[i] = bytes.NewReader(s)
		}
		_, err := MergeOutcomes(nil, readers...)
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Fatalf("%s: err = %v, want %q", tc.name, err, tc.want)
		}
	}

	// A truncated stream (shard killed mid-run) has no footer.
	cut := s2[:len(s2)-40]
	_, err := MergeOutcomes(nil, bytes.NewReader(s0), bytes.NewReader(s1), bytes.NewReader(cut))
	if err == nil || !(strings.Contains(err.Error(), "truncated") || strings.Contains(err.Error(), "decoding")) {
		t.Fatalf("truncated stream: err = %v", err)
	}

	// A tampered record fails its digest check.
	tampered := bytes.Replace(s1, []byte(`"sent":`), []byte(`"sent":9`), 1)
	if bytes.Equal(tampered, s1) {
		t.Fatal("tamper did not change the stream")
	}
	_, err = MergeOutcomes(nil, bytes.NewReader(s0), bytes.NewReader(tampered), bytes.NewReader(s2))
	if err == nil || !strings.Contains(err.Error(), "digest") {
		t.Fatalf("tampered record: err = %v, want digest mismatch", err)
	}

	// Mismatched headers: a stream from a different sweep.
	other := MustStack("min", WithN(4), WithT(1))
	_, sOther := runShardStream(t, NewRunner(other), shardScenarios(t, 4, other.Horizon(), 12), 1, 3)
	_, err = MergeOutcomes(nil, bytes.NewReader(s0), bytes.NewReader(sOther), bytes.NewReader(s2))
	if err == nil || !strings.Contains(err.Error(), "shard 1 ran") {
		t.Fatalf("mismatched headers: err = %v", err)
	}
}

// TestMergeDetectsGapsAndOverlaps rebuilds stripe streams whose ordinals
// lie (a dropped record, a repeated record) and checks the merge's
// ordinal accounting catches both. The streams are re-written through
// RunShard on doctored scenario lists, so their digests and footers are
// internally consistent — only the partition is wrong.
func TestMergeDetectsGapsAndOverlaps(t *testing.T) {
	st := MustStack("min", WithN(3), WithT(1))
	scenarios := shardScenarios(t, 3, st.Horizon(), 12)
	runner := NewRunner(st)
	_, s0 := runShardStream(t, runner, scenarios, 0, 3)
	_, s2 := runShardStream(t, runner, scenarios, 2, 3)

	// Gap: stripe 1 built from a shortened sweep misses its tail ordinal;
	// the totals no longer reconcile.
	_, s1short := runShardStream(t, runner, scenarios[:9], 1, 3)
	if _, err := MergeOutcomes(nil, bytes.NewReader(s0), bytes.NewReader(s1short), bytes.NewReader(s2)); err == nil {
		t.Fatal("merge accepted a stripe with missing ordinals")
	}

	// Overlap: stripe 1 built from a longer sweep carries ordinals past
	// the other stripes' end.
	long := shardScenarios(t, 3, st.Horizon(), 24)
	_, s1long := runShardStream(t, runner, long, 1, 3)
	if _, err := MergeOutcomes(nil, bytes.NewReader(s0), bytes.NewReader(s1long), bytes.NewReader(s2)); err == nil {
		t.Fatal("merge accepted a stripe with extra ordinals")
	}
}

// TestRunShardFailFast checks a failing run aborts the shard with the
// run's error and leaves an unsealed (footer-less) stream behind. The
// stack's KeyPermuter is hidden, so every scenario reaches the executor
// and the one that fails is the one asked for.
func TestRunShardFailFast(t *testing.T) {
	st := perRunStack(MustStack("min", WithN(4), WithT(1)))
	scenarios := shardScenarios(t, 4, st.Horizon(), 12)
	boom := errors.New("executor detonated")
	exec := &failingExecutor{inner: engine.Sequential{}, failAt: 6, err: boom}
	runner := NewRunner(st, WithExecutor(exec), WithParallelism(2))

	var buf bytes.Buffer
	_, err := runner.RunShard(context.Background(), FromScenarios(scenarios), 0, 1, &buf)
	if !errors.Is(err, boom) {
		t.Fatalf("RunShard error = %v, want %v", err, boom)
	}
	if _, err := MergeOutcomes(nil, bytes.NewReader(buf.Bytes())); err == nil {
		t.Fatal("merge accepted the aborted shard's unsealed stream")
	}
}

// TestRunShardFailFastThroughOrbitMemo is the same through the orbit
// memo, which hands the executor one member per orbit: the executor fails
// every member of failAt's orbit (the failure-free scenarios whose inits
// hold two ones), so whichever member runs first fails, nothing is stored
// for the orbit, and the shard aborts with the executor's error.
func TestRunShardFailFastThroughOrbitMemo(t *testing.T) {
	st := MustStack("min", WithN(4), WithT(1))
	scenarios := shardScenarios(t, 4, st.Horizon(), 12)
	boom := errors.New("executor detonated")
	exec := &failingExecutor{inner: engine.Sequential{}, failAt: 6, orbit: true, err: boom}
	runner := NewRunner(st, WithExecutor(exec), WithParallelism(2))

	var buf bytes.Buffer
	_, err := runner.RunShard(context.Background(), FromScenarios(scenarios), 0, 1, &buf)
	if !errors.Is(err, boom) {
		t.Fatalf("RunShard error = %v, want %v", err, boom)
	}
	if _, err := MergeOutcomes(nil, bytes.NewReader(buf.Bytes())); err == nil {
		t.Fatal("merge accepted the aborted shard's unsealed stream")
	}
}

// TestMergedStreamIsReadable checks the merged stream is itself a valid
// 1-way outcome stream — merges compose.
func TestMergedStreamIsReadable(t *testing.T) {
	st := MustStack("min", WithN(3), WithT(1))
	scenarios := shardScenarios(t, 3, st.Horizon(), 10)
	runner := NewRunner(st)
	_, s0 := runShardStream(t, runner, scenarios, 0, 2)
	_, s1 := runShardStream(t, runner, scenarios, 1, 2)
	var merged bytes.Buffer
	if _, err := MergeOutcomes(&merged, bytes.NewReader(s0), bytes.NewReader(s1)); err != nil {
		t.Fatalf("merge: %v", err)
	}
	sum2, err := MergeOutcomes(nil, bytes.NewReader(merged.Bytes()))
	if err != nil {
		t.Fatalf("re-merge of merged stream: %v", err)
	}
	if sum2.Total != 10 {
		t.Fatalf("re-merge saw %d records, want 10", sum2.Total)
	}
}

// TestMergeDiagnosesTornStreams drives MergeOutcomes — and
// VerifyOutcomeStream, the fabric coordinator's upload check — with the
// torn streams a killed or corrupted worker can produce, and checks each
// failure is reported diagnosably: truncation mid-record, a cleanly
// missing footer, a footer that lies about its count or digest, and a
// duplicated stripe alongside a complete set.
func TestMergeDiagnosesTornStreams(t *testing.T) {
	st := MustStack("min", WithN(3), WithT(1))
	scenarios := shardScenarios(t, 3, st.Horizon(), 12)
	runner := NewRunner(st)
	_, s0 := runShardStream(t, runner, scenarios, 0, 3)
	_, s1 := runShardStream(t, runner, scenarios, 1, 3)
	_, s2 := runShardStream(t, runner, scenarios, 2, 3)

	rows := bytes.Split(bytes.TrimSuffix(s2, []byte("\n")), []byte("\n"))
	if len(rows) < 3 {
		t.Fatalf("stripe stream has %d lines; need header, records, footer", len(rows))
	}
	join := func(rs [][]byte) []byte {
		return append(bytes.Join(rs, []byte("\n")), '\n')
	}

	// A footer whose count (then digest) lies, re-serialized in place.
	var foot ShardFooter
	if err := json.Unmarshal(rows[len(rows)-1], &foot); err != nil {
		t.Fatalf("decoding footer: %v", err)
	}
	countLie, digestLie := foot, foot
	countLie.Records++
	digestLie.Digest = strings.Repeat("0", len(foot.Digest))
	reseal := func(f ShardFooter) []byte {
		line, err := json.Marshal(f)
		if err != nil {
			t.Fatalf("re-marshaling footer: %v", err)
		}
		return join(append(append([][]byte{}, rows[:len(rows)-1]...), line))
	}

	cases := []struct {
		name   string
		stream []byte
		want   []string // any of these substrings diagnoses it
	}{
		{
			"truncated mid-record",
			append(join(rows[:1]), rows[1][:len(rows[1])/2]...),
			[]string{"decoding record", "truncated"},
		},
		{
			"missing footer",
			join(rows[:len(rows)-1]),
			[]string{"no footer"},
		},
		{
			"footer count lie",
			reseal(countLie),
			[]string{"footer claims"},
		},
		{
			"footer digest lie",
			reseal(digestLie),
			[]string{"does not match the record chain"},
		},
	}
	for _, tc := range cases {
		diagnosed := func(err error) bool {
			if err == nil {
				return false
			}
			for _, w := range tc.want {
				if strings.Contains(err.Error(), w) {
					return true
				}
			}
			return false
		}
		_, err := MergeOutcomes(nil, bytes.NewReader(s0), bytes.NewReader(s1), bytes.NewReader(tc.stream))
		if !diagnosed(err) {
			t.Errorf("%s: merge err = %v, want one of %q", tc.name, err, tc.want)
		}
		_, err = VerifyOutcomeStream(bytes.NewReader(tc.stream))
		if !diagnosed(err) {
			t.Errorf("%s: verify err = %v, want one of %q", tc.name, err, tc.want)
		}
	}

	// A duplicated stripe alongside the complete set is caught by the
	// stream-count accounting (four streams can't be a 3-way split);
	// a duplicate replacing a stripe is caught by the claim check.
	_, err := MergeOutcomes(nil, bytes.NewReader(s0), bytes.NewReader(s1),
		bytes.NewReader(s2), bytes.NewReader(s2))
	if err == nil || !strings.Contains(err.Error(), "declares a 3-way split") {
		t.Errorf("extra duplicated stripe: err = %v, want a stream-count diagnosis", err)
	}
	_, err = MergeOutcomes(nil, bytes.NewReader(s0), bytes.NewReader(s2), bytes.NewReader(s2))
	if err == nil || !strings.Contains(err.Error(), "claim shard") {
		t.Errorf("duplicated stripe: err = %v, want a both-claim-shard diagnosis", err)
	}
}

// TestWriteOutcomeStreamReseals checks WriteOutcomeStream produces a
// stream VerifyOutcomeStream accepts, with digests recomputed from the
// (possibly modified) records — the hook fabric tests use to craft
// valid-but-different stripes.
func TestWriteOutcomeStreamReseals(t *testing.T) {
	st := MustStack("min", WithN(3), WithT(1))
	scenarios := shardScenarios(t, 3, st.Horizon(), 9)
	runner := NewRunner(st)
	_, raw := runShardStream(t, runner, scenarios, 1, 3)

	or, err := NewOutcomeReader(bytes.NewReader(raw))
	if err != nil {
		t.Fatalf("NewOutcomeReader: %v", err)
	}
	var recs []OutcomeRecord
	for {
		rec, err := or.Next()
		if errors.Is(err, io.EOF) {
			break
		}
		if err != nil {
			t.Fatalf("Next: %v", err)
		}
		recs = append(recs, *rec)
	}

	// Unmodified records re-seal to the identical stream.
	var same bytes.Buffer
	sum, err := WriteOutcomeStream(&same, or.Header(), recs)
	if err != nil {
		t.Fatalf("WriteOutcomeStream: %v", err)
	}
	if !bytes.Equal(same.Bytes(), raw) {
		t.Fatal("re-sealed stream differs from the original")
	}
	if sum.Digest != or.Footer().Digest {
		t.Fatalf("re-sealed digest %s, original %s", sum.Digest, or.Footer().Digest)
	}

	// Modified records re-seal to a valid stream with a different digest.
	recs[0].Rounds[0]++
	var mod bytes.Buffer
	modSum, err := WriteOutcomeStream(&mod, or.Header(), recs)
	if err != nil {
		t.Fatalf("WriteOutcomeStream(modified): %v", err)
	}
	if modSum.Digest == sum.Digest {
		t.Fatal("modified records re-sealed to the same digest")
	}
	if _, err := VerifyOutcomeStream(bytes.NewReader(mod.Bytes())); err != nil {
		t.Fatalf("re-sealed modified stream fails verification: %v", err)
	}
}
