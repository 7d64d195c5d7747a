package episteme

import (
	"bytes"
	"context"
	"fmt"
	"slices"
	"strings"
	"testing"

	"repro/internal/action"
	"repro/internal/exchange"
	"repro/internal/model"
)

// buildMerged builds the K shard indexes of the context and merges them.
func buildMerged(t *testing.T, c Context, act model.ActionProtocol, k int) *System {
	t.Helper()
	shards := make([]*ShardIndex, k)
	// Feed the shards in rotated order: MergeSystems must not depend on
	// the caller's ordering.
	for i := 0; i < k; i++ {
		idx, err := BuildShardIndex(context.Background(), c, act, i, k, WithParallelism(2))
		if err != nil {
			t.Fatalf("BuildShardIndex %d/%d: %v", i, k, err)
		}
		shards[(i+1)%k] = idx
	}
	sys, err := MergeSystems(context.Background(), shards, WithParallelism(2))
	if err != nil {
		t.Fatalf("MergeSystems k=%d: %v", k, err)
	}
	return sys
}

// indexFingerprint renders a System's full interned index: class tables,
// member lists per slot — the class of every run and the
// runs of every class, read through the accessors so that a time-layered
// system renders as the per-run system it stands for.
func indexFingerprint(sys *System) string {
	indexOf(sys).lastLayer()
	var b strings.Builder
	keys := keysOf(sys)
	for slot := range keys {
		i, m := model.AgentID(slot%sys.N), slot/sys.N
		of := make([]int32, len(sys.Runs))
		for r := range of {
			of[r] = sys.classAt(i, m, r)
		}
		runs := make([][]int, len(keys[slot]))
		for c := range runs {
			runs[c] = sys.runsOfClass(i, m, int32(c))
		}
		fmt.Fprintf(&b, "slot %d keys=%q\n", slot, keys[slot])
		fmt.Fprintf(&b, "slot %d of=%v runs=%v\n", slot, of, runs)
	}
	return b.String()
}

// TestMergeSystemsBitIdentical is the model-checker half of the PR 5
// acceptance bar: for K ∈ {1, 2, 3}, merging K shard indexes of the fip
// n=3, t=1 enumeration yields a System whose interned index and every
// verdict — CheckImplements, CheckSafety, CheckOptimalityFIP — are
// bit-identical to the single-process BuildSystem's. This is the merge of
// per-run stripes, the one an exchange without model.KeyPermuter takes,
// over fip's keys and against P1 (KeyPermuter hidden); the merge of
// quotiented stripes, which must then be expanded, is
// TestQuotientSystemBitIdentical's.
func TestMergeSystemsBitIdentical(t *testing.T) {
	c := perRunContext(fipContext31())
	act := action.NewOpt(1)
	single, err := BuildSystem(context.Background(), c, act, WithParallelism(2))
	if err != nil {
		t.Fatalf("BuildSystem: %v", err)
	}
	wantIndex := indexFingerprint(single)
	wantImpl := checkImplements(t, single, P1, 50)
	wantSafety := checkSafety(t, single, 50)
	wantOpt := checkOptimality(t, single, -1, 50)

	for k := 1; k <= 3; k++ {
		merged := buildMerged(t, c, act, k)
		if merged.N != single.N || merged.T != single.T || merged.Horizon != single.Horizon {
			t.Fatalf("k=%d merged shape (%d,%d,%d), single (%d,%d,%d)",
				k, merged.N, merged.T, merged.Horizon, single.N, single.T, single.Horizon)
		}
		if len(merged.Runs) != len(single.Runs) {
			t.Fatalf("k=%d merged %d runs, single %d", k, len(merged.Runs), len(single.Runs))
		}
		for r := range merged.Runs {
			if got, want := runLedger(merged, r), runLedger(single, r); got != want {
				t.Fatalf("k=%d run %d ledgers differ:\n got %s\nwant %s", k, r, got, want)
			}
		}
		if got := indexFingerprint(merged); got != wantIndex {
			t.Fatalf("k=%d merged index differs from the single-process index", k)
		}

		gotImpl := checkImplements(t, merged, P1, 50)
		if fmt.Sprint(gotImpl) != fmt.Sprint(wantImpl) {
			t.Fatalf("k=%d CheckImplements differs:\n got %v\nwant %v", k, gotImpl, wantImpl)
		}
		gotSafety := checkSafety(t, merged, 50)
		if fmt.Sprint(gotSafety) != fmt.Sprint(wantSafety) {
			t.Fatalf("k=%d CheckSafety differs:\n got %v\nwant %v", k, gotSafety, wantSafety)
		}
		gotOpt := checkOptimality(t, merged, -1, 50)
		if fmt.Sprint(gotOpt) != fmt.Sprint(wantOpt) {
			t.Fatalf("k=%d CheckOptimalityFIP differs:\n got %v\nwant %v", k, gotOpt, wantOpt)
		}
	}
}

// TestMergeSystemsMinStack runs the same equivalence over the min stack
// (program P0), whose exchange interns differently from fip's graphs. Its
// stripes are quotiented like fip's, so the merge is expanded before it is
// checked, as every fan-in does.
func TestMergeSystemsMinStack(t *testing.T) {
	c := Context{Exchange: exchange.NewMin(3), T: 1}
	act := action.NewMin(1)
	single, err := BuildSystem(context.Background(), c, act, WithParallelism(2))
	if err != nil {
		t.Fatalf("BuildSystem: %v", err)
	}
	want := checkImplements(t, single, P0, 10)
	merged := buildMergedQuotient(t, c, act, 3)
	if got := checkImplements(t, merged, P0, 10); fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("merged min verdicts differ: got %v, want %v", got, want)
	}
	if got, wantFP := indexFingerprint(merged), indexFingerprint(single); got != wantFP {
		t.Fatal("merged min index differs from the single-process index")
	}
}

// TestShardIndexSerializationRoundTrip checks Write/ReadShardIndex is
// lossless, so indexes can cross process boundaries.
func TestShardIndexSerializationRoundTrip(t *testing.T) {
	idx, err := BuildShardIndex(context.Background(), fipContext31(), action.NewOpt(1), 1, 3)
	if err != nil {
		t.Fatalf("BuildShardIndex: %v", err)
	}
	var buf bytes.Buffer
	if err := WriteShardIndex(&buf, idx); err != nil {
		t.Fatalf("WriteShardIndex: %v", err)
	}
	back, err := ReadShardIndex(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatalf("ReadShardIndex: %v", err)
	}
	if fmt.Sprint(back) != fmt.Sprint(idx) {
		t.Fatal("shard index did not survive the serialization round trip")
	}
	if _, err := ReadShardIndex(strings.NewReader(`{"kind":"something-else","v":1}`)); err == nil {
		t.Fatal("ReadShardIndex accepted a foreign kind")
	}
}

// TestMergeSystemsRejectsBadPartitions drives MergeSystems with
// non-partitions: missing stripes, duplicates, mixed splits, and mixed
// contexts.
func TestMergeSystemsRejectsBadPartitions(t *testing.T) {
	ctx := context.Background()
	c := fipContext31()
	act := action.NewOpt(1)
	mk := func(i, k int) *ShardIndex {
		idx, err := BuildShardIndex(ctx, c, act, i, k)
		if err != nil {
			t.Fatalf("BuildShardIndex %d/%d: %v", i, k, err)
		}
		return idx
	}
	i0, i1, i2 := mk(0, 3), mk(1, 3), mk(2, 3)

	if _, err := MergeSystems(ctx, nil); err == nil {
		t.Fatal("merge of zero indexes succeeded")
	}
	if _, err := MergeSystems(ctx, []*ShardIndex{i0, i1}); err == nil {
		t.Fatal("merge accepted a missing stripe")
	}
	if _, err := MergeSystems(ctx, []*ShardIndex{i0, i1, i1}); err == nil {
		t.Fatal("merge accepted a duplicated stripe")
	}
	if _, err := MergeSystems(ctx, []*ShardIndex{i0, i1, mk(1, 2)}); err == nil {
		t.Fatal("merge accepted mixed split arities")
	}
	other, err := BuildShardIndex(ctx, Context{Exchange: exchange.NewFIP(4), T: 1}, action.NewOpt(1), 2, 3)
	if err != nil {
		t.Fatalf("BuildShardIndex n=4: %v", err)
	}
	if _, err := MergeSystems(ctx, []*ShardIndex{i0, i1, other}); err == nil {
		t.Fatal("merge accepted indexes of different systems")
	}
	// A doctored stripe length (gap) must be caught.
	short := *i2
	short.Runs = short.Runs[:len(short.Runs)-1]
	nSlots := (short.Horizon + 1) * short.N
	short.ClassOf = make([][]int32, nSlots)
	for slot := 0; slot < nSlots; slot++ {
		short.ClassOf[slot] = i2.ClassOf[slot][:len(short.Runs)]
	}
	if _, err := MergeSystems(ctx, []*ShardIndex{i0, i1, &short}); err == nil {
		t.Fatal("merge accepted a stripe with a missing run")
	}
}

// TestMergeSystemsRefusesMixedQuotient: a min stripe built through the
// quotient and one built run by run — what two versions of a fleet upload
// for one job — are each well formed, but they stride different sweeps,
// and the merge says so rather than fusing representatives with runs.
func TestMergeSystemsRefusesMixedQuotient(t *testing.T) {
	ctx := context.Background()
	c := Context{Exchange: exchange.NewMin(3), T: 1}
	act := action.NewMin(1)
	quot, err := BuildShardIndex(ctx, c, act, 0, 2)
	if err != nil {
		t.Fatal(err)
	}
	perRun, err := BuildShardIndex(ctx, perRunContext(c), act, 1, 2)
	if err != nil {
		t.Fatal(err)
	}
	if !quot.Quotient || perRun.Quotient {
		t.Fatalf("stripes quotiented %v and %v, want true and false", quot.Quotient, perRun.Quotient)
	}
	for _, pair := range [][]*ShardIndex{{quot, perRun}, {perRun, quot}} {
		sys, err := MergeSystems(ctx, pair)
		if sys != nil || err == nil || !strings.HasSuffix(err.Error(), "; the stripes enumerate different sweeps") {
			t.Errorf("MergeSystems of a quotiented and a per-run stripe = (system: %v, %v), want only the different-sweeps refusal", sys != nil, err)
		}
	}
}

// TestMergeSystemsStackMetadata checks the optional Stack field: empty
// names merge with named ones, but two conflicting names are rejected.
func TestMergeSystemsStackMetadata(t *testing.T) {
	ctx := context.Background()
	c := fipContext31()
	act := action.NewOpt(1)
	shards := make([]*ShardIndex, 3)
	for i := range shards {
		idx, err := BuildShardIndex(ctx, c, act, i, 3)
		if err != nil {
			t.Fatalf("BuildShardIndex %d/3: %v", i, err)
		}
		shards[i] = idx
	}
	// Internal builds leave Stack empty; a partially labelled set merges.
	shards[1].Stack = "fip"
	if _, err := MergeSystems(ctx, shards); err != nil {
		t.Fatalf("merge of mixed empty/named stacks failed: %v", err)
	}
	// Two conflicting names do not.
	shards[2].Stack = "min"
	if _, err := MergeSystems(ctx, shards); err == nil {
		t.Fatal("merge accepted conflicting stack names")
	}
}

// TestShardIndexDigestPinned pins the wire format by value: the digests of
// the indexes `ebashard -check [-quotient] -stack S -n 3 -t 1` wrote
// (stack name set, shard 0/1), read back through ReadShardIndex, as
// recorded before ShardRun became core.CachedRun. The checker now picks
// the quotient itself, for fip and min alike, so each per-run index is the
// one built with the exchange's KeyPermuter hidden; the per-run wire
// format is unchanged by min quotienting. A mixed-version fleet
// resolves duplicate stripe uploads by this digest, so a change that moves
// it is a format break even when every round trip still passes.
func TestShardIndexDigestPinned(t *testing.T) {
	fip, min := fipContext31(), Context{Exchange: exchange.NewMin(3), T: 1}
	for _, tc := range []struct {
		stack string
		c     Context
		act   model.ActionProtocol
		want  string
	}{
		{"fip", perRunContext(fip), action.NewOpt(1), "4bce7e759b78ea7401883440592905af"},
		{"fip", fip, action.NewOpt(1), "c5223b7e60527c0c621f16d171fc81c9"},
		{"min", perRunContext(min), action.NewMin(1), "20c1700faf4d40cd2bac990b53acb224"},
		{"min", min, action.NewMin(1), "4c951637776a482e870909f39be6fd9a"},
	} {
		idx, err := BuildShardIndex(context.Background(), tc.c, tc.act, 0, 1)
		if err != nil {
			t.Fatal(err)
		}
		idx.Stack = tc.stack
		var buf bytes.Buffer
		if err := WriteShardIndex(&buf, idx); err != nil {
			t.Fatal(err)
		}
		back, err := ReadShardIndex(&buf)
		if err != nil {
			t.Fatal(err)
		}
		if got := back.Digest(); got != tc.want || idx.Digest() != tc.want {
			t.Errorf("%s (quotient=%v): digest %s read back, %s as built; pinned %s",
				tc.stack, idx.Quotient, got, idx.Digest(), tc.want)
		}
	}
}

// TestShardIndexRejectsOutOfRangeLedgers doctors run 5 of a well-formed
// index with values an engine.Result's int8 fields would silently wrap
// (256 reads as "decided 0") or that no run of the horizon can carry: each
// is refused by Validate and by MergeSystems instead of being narrowed
// into a plausible run.
func TestShardIndexRejectsOutOfRangeLedgers(t *testing.T) {
	idx, err := BuildShardIndex(context.Background(), Context{Exchange: exchange.NewMin(3), T: 1}, action.NewMin(1), 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	var pristine bytes.Buffer
	if err := WriteShardIndex(&pristine, idx); err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name   string
		doctor func(sr *ShardRun, horizon int)
	}{
		{"decision 256", func(sr *ShardRun, _ int) { sr.Decisions[0] = 256 }},
		{"decision -2", func(sr *ShardRun, _ int) { sr.Decisions[1] = -2 }},
		{"round -1", func(sr *ShardRun, _ int) { sr.Rounds[0] = -1 }},
		{"round horizon+1", func(sr *ShardRun, h int) { sr.Rounds[2] = h + 1 }},
		{"action 3", func(sr *ShardRun, _ int) { sr.Actions[0][1] = 3 }},
		{"action 259", func(sr *ShardRun, h int) { sr.Actions[h-1][0] = 259 }},
		{"init 2", func(sr *ShardRun, _ int) { sr.Inits[2] = 2 }},
	} {
		bad, err := ReadShardIndex(bytes.NewReader(pristine.Bytes()))
		if err != nil {
			t.Fatal(err)
		}
		if err := bad.Validate(); err != nil {
			t.Fatalf("the undoctored index fails Validate: %v", err)
		}
		tc.doctor(&bad.Runs[5], bad.Horizon)
		const want = "episteme: shard 0/1 run 5 has malformed ledgers"
		if err := bad.Validate(); err == nil || err.Error() != want {
			t.Errorf("%s: Validate = %v, want %q", tc.name, err, want)
		}
		if sys, err := MergeSystems(context.Background(), []*ShardIndex{bad}); sys != nil || err == nil || err.Error() != want {
			t.Errorf("%s: MergeSystems = (system: %v, %v), want only %q", tc.name, sys != nil, err, want)
		}
	}
}

// TestShardIndexRejectsForeignPatterns doctors the first run's pattern
// text in the file of a well-formed index, fip n=2,t=1, to a text that
// parses but names another shape: ReadShardIndex reads the file, and
// Validate and MergeSystems refuse it with an error, never a panic. A text
// naming four billion agents once reached the pattern's allocation.
func TestShardIndexRejectsForeignPatterns(t *testing.T) {
	idx, err := BuildShardIndex(context.Background(), Context{Exchange: exchange.NewFIP(2), T: 1}, action.NewOpt(1), 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	var pristine bytes.Buffer
	if err := WriteShardIndex(&pristine, idx); err != nil {
		t.Fatal(err)
	}
	head, rest, ok := bytes.Cut(pristine.Bytes(), []byte(`{"pattern":"`))
	_, tail, ok2 := bytes.Cut(rest, []byte(`"`))
	if !ok || !ok2 {
		t.Fatal("the index has no pattern text")
	}
	for text, want := range map[string]string{
		"n=4000000000;h=3;f=;d=": "episteme: shard 0/1 run 0: model: pattern text names n=4000000000, h=3; at most 64 of each",
		"n=2;h=65;f=;d=":         "episteme: shard 0/1 run 0: model: pattern text names n=2, h=65; at most 64 of each",
		"n=3;h=3;f=;d=":          "episteme: shard 0/1 run 0: its pattern is for n=3, horizon=3",
		"n=2;h=4;f=;d=":          "episteme: shard 0/1 run 0: its pattern is for n=2, horizon=4",
		"h=3;f=;d=":              "episteme: shard 0/1 run 0: model: pattern text missing n",
	} {
		doctored := slices.Concat(head, []byte(`{"pattern":"`+text+`"`), tail)
		bad, err := ReadShardIndex(bytes.NewReader(doctored))
		if err != nil {
			t.Fatalf("%s: ReadShardIndex: %v", text, err)
		}
		if err := bad.Validate(); err == nil || err.Error() != want {
			t.Errorf("%s: Validate = %v, want %q", text, err, want)
		}
		if sys, err := MergeSystems(context.Background(), []*ShardIndex{bad}); sys != nil || err == nil || err.Error() != want {
			t.Errorf("%s: MergeSystems = (system: %v, %v), want only %q", text, sys != nil, err, want)
		}
	}
}

// TestPointQueriesRefuseQuotientedSystem: a merge of quotiented stripes
// packs no member lists, and every point query that would read them
// panics with the checkers' refusal instead of answering over the
// representatives. The expanded system answers them.
func TestPointQueriesRefuseQuotientedSystem(t *testing.T) {
	c := Context{Exchange: exchange.NewFIP(3), T: 1}
	sys := buildMerged(t, c, action.NewOpt(1), 2)
	if !sys.Quotiented() {
		t.Fatal("fip n=3 stripes are not quotiented")
	}
	indexOf(sys).lastLayer()
	for slot := range indexOf(sys).slots {
		if ms := indexOf(sys).slots[slot].lists; ms.rows != nil || ms.off != nil {
			t.Fatalf("slot %d of a quotiented system packs member lists", slot)
		}
	}
	want := sys.checkableSystem().Error()
	full, err := ExpandQuotient(context.Background(), sys, c)
	if err != nil {
		t.Fatal(err)
	}
	p := Point{Run: 1, Time: 1}
	for name, query := range map[string]func(s *System){
		"Knows":       func(s *System) { s.Knows(0, p, func(Point) bool { return true }) },
		"Class":       func(s *System) { s.Class(1, p) },
		"KnowsCK":     func(s *System) { s.KnowsCK(2, p, model.Zero) },
		"CNReachable": func(s *System) { s.CNReachable(p) },
		"KBPAction":   func(s *System) { s.KBPAction(P1, 0, p) },
	} {
		query(full)
		func() {
			defer func() {
				if err, ok := recover().(error); !ok || err.Error() != want {
					t.Errorf("%s on a quotiented system: recovered %v, want a panic with %q", name, err, want)
				}
			}()
			query(sys)
		}()
	}
}
