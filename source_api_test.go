package eba_test

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"sync"
	"testing"

	eba "repro"
	"repro/internal/adversary"
	"repro/internal/model"
)

// meteredSource wraps a Source and tracks how far the Runner's dispatcher
// has pulled ahead of the outcomes the consumer has seen — the streaming
// path's memory footprint in scenarios.
type meteredSource struct {
	mu         sync.Mutex
	inner      eba.Source
	pulled     int
	emitted    int
	maxAhead   int
	totalCount int
}

func (m *meteredSource) Next() (eba.Scenario, bool) {
	sc, ok := m.inner.Next()
	if ok {
		m.mu.Lock()
		m.pulled++
		if ahead := m.pulled - m.emitted; ahead > m.maxAhead {
			m.maxAhead = ahead
		}
		m.totalCount++
		m.mu.Unlock()
	}
	return sc, ok
}

func (m *meteredSource) Count() (int64, bool) { return m.inner.Count() }

func (m *meteredSource) sawEmitted() {
	m.mu.Lock()
	m.emitted++
	m.mu.Unlock()
}

// TestSourceSOSweepMatchesEagerSlice is the acceptance check of the
// streaming subsystem: an exhaustive n=3, t=1, horizon=2 SO sweep driven
// by eba.SourceSO through Runner.StreamFrom produces bit-identical
// results to the eager-slice RunBatch path, while the dispatcher never
// runs more than the reordering window ahead of the consumer — the full
// scenario list (49 patterns × 8 init vectors = 392 scenarios) is never
// materialized.
func TestSourceSOSweepMatchesEagerSlice(t *testing.T) {
	// window is the runner's reordering window: 32 scenarios per worker.
	const n, tf, horizon, workers, window = 3, 1, 2, 4, 32 * 4
	stack, err := eba.NewStack("fip", eba.WithN(n), eba.WithT(tf), eba.WithHorizon(horizon))
	if err != nil {
		t.Fatal(err)
	}
	runner := eba.NewRunner(stack, eba.WithParallelism(workers))

	// Eager path: materialize the whole sweep, run it as a batch.
	var scenarios []eba.Scenario
	pats, err := adversary.NewSOPatterns(n, tf, horizon, adversary.Options{})
	if err != nil {
		t.Fatal(err)
	}
	for pat, ok := pats.Next(); ok; pat, ok = pats.Next() {
		p := pat.Clone()
		ivs, err := adversary.NewInitVectors(n)
		if err != nil {
			t.Fatal(err)
		}
		for inits, ok2 := ivs.Next(); ok2; inits, ok2 = ivs.Next() {
			scenarios = append(scenarios, eba.Scenario{Pattern: p, Inits: append([]model.Value(nil), inits...)})
		}
	}
	want, err := runner.RunBatch(context.Background(), scenarios)
	if err != nil {
		t.Fatal(err)
	}

	// Streaming path: the same sweep pulled lazily through a bounded
	// window.
	src, err := eba.SourceSO(n, tf, horizon)
	if err != nil {
		t.Fatal(err)
	}
	if c, ok := src.Count(); !ok || c != int64(len(scenarios)) {
		t.Fatalf("SourceSO count = %d/%v, eager slice has %d scenarios", c, ok, len(scenarios))
	}
	metered := &meteredSource{inner: src}
	k := 0
	for oc := range runner.StreamFrom(context.Background(), metered) {
		metered.sawEmitted()
		if oc.Err != nil {
			t.Fatalf("scenario %d: %v", oc.Index, oc.Err)
		}
		if oc.Index != k {
			t.Fatalf("stream emitted index %d, want %d", oc.Index, k)
		}
		if k >= len(want) {
			t.Fatalf("stream emitted more than the %d eager scenarios", len(want))
		}
		// Bit-identity: traffic stats, full trace, and decision ledger.
		if want[k].Stats != oc.Result.Stats {
			t.Fatalf("scenario %d: stats differ between eager and streamed runs", k)
		}
		for m := range want[k].States {
			for i := range want[k].States[m] {
				if string(want[k].States[m][i].AppendKey(nil)) != string(oc.Result.States[m][i].AppendKey(nil)) {
					t.Fatalf("scenario %d: state differs at time %d agent %d", k, m, i)
				}
			}
		}
		for i := range want[k].Decision {
			if want[k].Decision[i] != oc.Result.Decision[i] ||
				want[k].DecisionRound[i] != oc.Result.DecisionRound[i] {
				t.Fatalf("scenario %d: decision ledger differs for agent %d", k, i)
			}
		}
		k++
	}
	if k != len(want) {
		t.Fatalf("stream emitted %d outcomes, want %d", k, len(want))
	}
	if metered.totalCount != len(scenarios) {
		t.Fatalf("source produced %d scenarios, eager slice %d", metered.totalCount, len(scenarios))
	}
	// The memory bound: the dispatcher may pull at most `window` scenarios
	// beyond what the consumer has seen (the in-flight set), far below the
	// full sweep. The +1 covers the instant between the consumer receiving
	// an outcome and this test recording it.
	if metered.maxAhead > window+1 {
		t.Fatalf("dispatcher ran %d scenarios ahead of the consumer, window is %d", metered.maxAhead, window)
	}
}

// TestSourceRandomSOReplays checks seeded random sources replay
// identically, the property that lets several stacks sweep corresponding
// scenarios without a materialized slice.
func TestSourceRandomSOReplays(t *testing.T) {
	a := eba.SourceRandomSO(42, 5, 2, 4, 0.5, 30)
	b := eba.SourceRandomSO(42, 5, 2, 4, 0.5, 30)
	for k := 0; ; k++ {
		sa, oka := a.Next()
		sb, okb := b.Next()
		if oka != okb {
			t.Fatalf("sources disagree on length at scenario %d", k)
		}
		if !oka {
			if k != 30 {
				t.Fatalf("sources ended after %d scenarios, want 30", k)
			}
			return
		}
		if sa.Pattern.Key() != sb.Pattern.Key() {
			t.Fatalf("scenario %d: patterns differ across replays", k)
		}
		for i := range sa.Inits {
			if sa.Inits[i] != sb.Inits[i] {
				t.Fatalf("scenario %d: inits differ across replays", k)
			}
		}
	}
}

// TestSourceLimitThroughRunner drives limited sources — over both an
// unbounded generator and a bounded exhaustive sweep — through RunSource
// end-to-end (the latter exercises the post-drain count check against
// Limit's immutable total).
func TestSourceLimitThroughRunner(t *testing.T) {
	stack, err := eba.NewStack("basic", eba.WithN(4), eba.WithT(1))
	if err != nil {
		t.Fatal(err)
	}
	runner := eba.NewRunner(stack, eba.WithParallelism(2))
	src := eba.SourceLimit(eba.SourceRandomSO(7, 4, 1, stack.Horizon(), 0.4, -1), 25)
	results, err := runner.RunSource(context.Background(), src)
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 25 {
		t.Fatalf("RunSource returned %d results, want 25", len(results))
	}

	exhaustive, err := eba.SourceSO(4, 1, stack.Horizon())
	if err != nil {
		t.Fatal(err)
	}
	results, err = runner.RunSource(context.Background(), eba.SourceLimit(exhaustive, 25))
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 25 {
		t.Fatalf("RunSource over limited bounded source returned %d results, want 25", len(results))
	}
}

// TestPublicShardAndMerge drives the whole shard-and-merge surface
// through the public API: stride the exhaustive sweep into 3 stripes,
// RunShard each, MergeOutcomes them, and pin the merged stream and
// digest against the single-process (0/1) run — then do the same for
// the model checker through BuildShardIndex + MergeSystems.
func TestPublicShardAndMerge(t *testing.T) {
	ctx := context.Background()
	stack, err := eba.NewStack("fip", eba.WithN(3), eba.WithT(1))
	if err != nil {
		t.Fatal(err)
	}
	sweep := func() eba.Source {
		src, err := eba.SourceSO(3, 1, stack.Horizon())
		if err != nil {
			t.Fatal(err)
		}
		return src
	}

	// SourceStride partitions the sweep.
	if _, err := eba.SourceStride(sweep(), 3, 3); err == nil {
		t.Fatal("SourceStride accepted an out-of-range index")
	}
	stripe, err := eba.SourceStride(sweep(), 2, 3)
	if err != nil {
		t.Fatal(err)
	}
	whole, _ := sweep().Count()
	if c, ok := stripe.Count(); !ok || c != (whole-2+2)/3 {
		t.Fatalf("stripe 2/3 counts %d of %d", c, whole)
	}

	runner := eba.NewRunner(stack, eba.WithParallelism(4))
	var single bytes.Buffer
	singleSum, err := runner.RunShard(ctx, sweep(), 0, 1, &single)
	if err != nil {
		t.Fatalf("RunShard 0/1: %v", err)
	}
	streams := make([]io.Reader, 3)
	for i := 0; i < 3; i++ {
		var buf bytes.Buffer
		if _, err := runner.RunShard(ctx, sweep(), i, 3, &buf); err != nil {
			t.Fatalf("RunShard %d/3: %v", i, err)
		}
		streams[i] = bytes.NewReader(buf.Bytes())
	}
	var merged bytes.Buffer
	mergeSum, err := eba.MergeOutcomes(&merged, streams...)
	if err != nil {
		t.Fatalf("MergeOutcomes: %v", err)
	}
	if mergeSum.Digest != singleSum.Digest {
		t.Fatalf("merged digest %s, single-process digest %s", mergeSum.Digest, singleSum.Digest)
	}
	if !bytes.Equal(merged.Bytes(), single.Bytes()) {
		t.Fatal("merged stream is not bit-identical to the single-process stream")
	}

	// Model checker: merged verdicts == single-process verdicts.
	sys, err := eba.BuildSystem(ctx, stack)
	if err != nil {
		t.Fatal(err)
	}
	want, err := sys.CheckImplements(ctx, eba.ProgramP1, 10)
	if err != nil {
		t.Fatal(err)
	}
	shards := make([]*eba.ShardIndex, 3)
	for i := range shards {
		idx, err := eba.BuildShardIndex(ctx, stack, i, 3)
		if err != nil {
			t.Fatalf("BuildShardIndex %d/3: %v", i, err)
		}
		var buf bytes.Buffer
		if err := eba.WriteShardIndex(&buf, idx); err != nil {
			t.Fatal(err)
		}
		if shards[i], err = eba.ReadShardIndex(&buf); err != nil {
			t.Fatal(err)
		}
	}
	mergedSys, err := eba.MergeSystems(ctx, shards)
	if err != nil {
		t.Fatalf("MergeSystems: %v", err)
	}
	// fip's stripes hold orbit representatives: the merge is expanded once.
	if !mergedSys.Quotiented() {
		t.Fatal("the merge of fip stripes is not quotiented")
	}
	if mergedSys, err = eba.ExpandQuotient(ctx, mergedSys, stack); err != nil {
		t.Fatalf("ExpandQuotient: %v", err)
	}
	got, err := mergedSys.CheckImplements(ctx, eba.ProgramP1, 10)
	if err != nil {
		t.Fatal(err)
	}
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("merged verdicts %v, single-process %v", got, want)
	}
}

// TestPublicShardSpec pins the flag/env round-trip surface.
func TestPublicShardSpec(t *testing.T) {
	sp, err := eba.ParseShardSpec("2/5")
	if err != nil || sp.Index != 2 || sp.Count != 5 || sp.String() != "2/5" {
		t.Fatalf("ParseShardSpec = %+v, %v", sp, err)
	}
	if eba.ShardEnvVar != "EBA_SHARD" {
		t.Fatalf("ShardEnvVar = %q", eba.ShardEnvVar)
	}
	if _, err := eba.ParseShardSpec("5/5"); err == nil {
		t.Fatal("out-of-range spec accepted")
	}
}
