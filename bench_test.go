package eba_test

// One benchmark per experiment table/figure (E1–E14, mirroring DESIGN.md's
// index), plus micro-benchmarks for the load-bearing substrates. Run with:
//
//	go test -bench=. -benchmem
//
// The experiment benches measure the cost of regenerating each table; the
// micro benches measure the engine, the concurrent runtime, the batch
// Runner (sequential vs parallel, with and without buffer reuse), and the
// communication-graph machinery behind the polynomial-time P_opt.

import (
	"bytes"
	"context"
	"io"
	"math/rand"
	"testing"

	eba "repro"
	"repro/internal/adversary"
	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/episteme"
	"repro/internal/exchange"
	"repro/internal/experiments"
	"repro/internal/graph"
	"repro/internal/model"
)

// buildSystem builds a stack's interpreted system through the model
// checker's public construction path.
func buildSystem(b *testing.B, name string, n, t int) *episteme.System {
	b.Helper()
	st := stack(b, name, n, t)
	sys, err := episteme.BuildSystem(context.Background(), episteme.ContextFor(st), st.Action)
	if err != nil {
		b.Fatal(err)
	}
	return sys
}

// stack builds a registered stack, failing the benchmark on a bad name.
func stack(b *testing.B, name string, n, t int) eba.Stack {
	b.Helper()
	st, err := eba.NewStack(name, eba.WithN(n), eba.WithT(t))
	if err != nil {
		b.Fatal(err)
	}
	return st
}

// --- experiment benches (one per table/figure) ---------------------------

func BenchmarkE1MessageComplexity(b *testing.B) {
	// Per-stack single-run cost at the largest E1 configuration; the bits
	// themselves are asserted in the experiments package.
	n, tf := 16, 4
	pat := adversary.Example71(n, tf, tf+2)
	inits := adversary.UniformInits(n, model.One)
	for _, name := range []string{"min", "basic", "fip"} {
		st := stack(b, name, n, tf)
		b.Run(st.Name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := st.Run(pat, inits); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkE2FailureFreeZero(b *testing.B) {
	n, tf := 5, 2
	inits := adversary.UniformInits(n, eba.One)
	inits[2] = eba.Zero
	pat := adversary.FailureFree(n, tf+2)
	st := stack(b, "fip", n, tf)
	for i := 0; i < b.N; i++ {
		if _, err := st.Run(pat, inits); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkE3FailureFreeOnes(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if tb := experiments.E3FailureFreeOnes(); !tb.Pass {
			b.Fatal("E3 failed")
		}
	}
}

func BenchmarkE4Example71(b *testing.B) {
	// The paper's exact Example 7.1 run: n=20, t=10 under P_opt.
	n, tf := 20, 10
	pat := adversary.Example71(n, tf, tf+2)
	inits := adversary.UniformInits(n, model.One)
	st := stack(b, "fip", n, tf)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := st.Run(pat, inits)
		if err != nil {
			b.Fatal(err)
		}
		if res.MaxDecisionRound(true) != 3 {
			b.Fatal("Example 7.1 shape lost")
		}
	}
}

func BenchmarkE5TerminationBound(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	n, tf := 6, 2
	st := stack(b, "basic", n, tf)
	for i := 0; i < b.N; i++ {
		pat := adversary.RandomSO(rng, n, tf, tf+2, 0.45)
		inits := make([]model.Value, n)
		for j := range inits {
			inits[j] = model.Value(rng.Intn(2))
		}
		if _, err := st.Run(pat, inits); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkE6ImplementsMin(b *testing.B) {
	for i := 0; i < b.N; i++ {
		sys := buildSystem(b, "min", 3, 1)
		if ms, err := sys.CheckImplements(context.Background(), episteme.P0, 1); err != nil || len(ms) != 0 {
			b.Fatal("mismatch")
		}
	}
}

func BenchmarkE7ImplementsBasic(b *testing.B) {
	for i := 0; i < b.N; i++ {
		sys := buildSystem(b, "basic", 3, 1)
		if ms, err := sys.CheckImplements(context.Background(), episteme.P0, 1); err != nil || len(ms) != 0 {
			b.Fatal("mismatch")
		}
	}
}

func BenchmarkE8ImplementsFIP(b *testing.B) {
	for i := 0; i < b.N; i++ {
		sys := buildSystem(b, "fip", 3, 1)
		if ms, err := sys.CheckImplements(context.Background(), episteme.P1, 1); err != nil || len(ms) != 0 {
			b.Fatal("mismatch")
		}
	}
}

func BenchmarkE9OptimalityCharacterization(b *testing.B) {
	sys := buildSystem(b, "fip", 3, 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if vs, err := sys.CheckOptimalityFIP(context.Background(), -1, 1); err != nil || len(vs) != 0 {
			b.Fatal("violation")
		}
	}
}

func BenchmarkE10Safety(b *testing.B) {
	sys := buildSystem(b, "min", 3, 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if vs, err := sys.CheckSafety(context.Background(), 1); err != nil || len(vs) != 0 {
			b.Fatal("violation")
		}
	}
}

// The two n=4 benchmarks are scaling guards: both checkers evaluate each
// knowledge condition once per indistinguishability class, so a pass over
// 32,784 runs takes tens of milliseconds; a reintroduced per-point class
// scan shows here as ≥100× (seconds per op).

// BenchmarkCheckOptimalityFIPn3 is the Thm 7.5 check a served fip n=3
// /v1/check runs, on one worker.
func BenchmarkCheckOptimalityFIPn3(b *testing.B) {
	st := stack(b, "fip", 3, 1)
	sys, err := episteme.BuildSystem(context.Background(), episteme.ContextFor(st), st.Action, episteme.WithParallelism(1))
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if vs, err := sys.CheckOptimalityFIP(context.Background(), -1, 1); err != nil || len(vs) != 0 {
			b.Fatal("violation")
		}
	}
}

// BenchmarkShardIndexCodecN4 measures the shard index's codec on fip
// n=4,t=1 stripe 0/4, the file each ebashard -check process hands over:
// write encodes it, read decodes and re-encodes it.
func BenchmarkShardIndexCodecN4(b *testing.B) {
	st := stack(b, "fip", 4, 1)
	idx, err := episteme.BuildShardIndex(context.Background(), episteme.ContextFor(st), st.Action, 0, 4)
	if err != nil {
		b.Fatal(err)
	}
	var doc bytes.Buffer
	if err := episteme.WriteShardIndex(&doc, idx); err != nil {
		b.Fatal(err)
	}
	b.Run("write", func(b *testing.B) {
		b.ReportAllocs()
		b.SetBytes(int64(doc.Len()))
		for i := 0; i < b.N; i++ {
			if err := episteme.WriteShardIndex(io.Discard, idx); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("read", func(b *testing.B) {
		b.ReportAllocs()
		b.SetBytes(int64(doc.Len()))
		for i := 0; i < b.N; i++ {
			if _, err := episteme.ReadShardIndex(bytes.NewReader(doc.Bytes())); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkCachedRunCodec measures one run-cache payload of fip n=4,t=1:
// encode is a miss's store, decode a hit's read.
func BenchmarkCachedRunCodec(b *testing.B) {
	st := stack(b, "fip", 4, 1)
	res, err := eba.NewRunner(st).Run(context.Background(), eba.Scenario{
		Pattern: model.NewPattern(4, st.Horizon()), Inits: []model.Value{0, 1, 1, 0}})
	if err != nil {
		b.Fatal(err)
	}
	var cr core.CachedRun
	if err := cr.Encode(res); err != nil {
		b.Fatal(err)
	}
	payload := cr.AppendJSON(nil)
	b.Run("encode", func(b *testing.B) {
		b.ReportAllocs()
		var buf []byte
		for i := 0; i < b.N; i++ {
			buf = cr.AppendJSON(buf[:0])
		}
	})
	b.Run("decode", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			var back core.CachedRun
			if !back.DecodeJSON(payload) {
				b.Fatal("payload refused")
			}
		}
	})
}

func BenchmarkCheckOptimalityFIPn4(b *testing.B) {
	sys := buildSystem(b, "fip", 4, 1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if vs, err := sys.CheckOptimalityFIP(context.Background(), -1, 1); err != nil || len(vs) != 0 {
			b.Fatal("violation")
		}
	}
}

func BenchmarkCheckSafetyBasicn4(b *testing.B) {
	sys := buildSystem(b, "basic", 4, 1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if vs, err := sys.CheckSafety(context.Background(), 1); err != nil || len(vs) != 0 {
			b.Fatal("violation")
		}
	}
}

// BenchmarkQuotientDrainN5 drains the quotiented n=5,t=1 sweep: 655,392
// scenarios canonicalized, 7,758 kept. The enumeration itself allocates
// one inits vector per scenario; the quotient should add nothing per
// rejected scenario on top of that.
func BenchmarkQuotientDrainN5(b *testing.B) {
	const n, tf, scenarios, representatives = 5, 1, 655392, 7758
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		src, err := eba.SourceSO(n, tf, tf+2)
		if err != nil {
			b.Fatal(err)
		}
		kept := 0
		for q := eba.SourceQuotient(src); ; kept++ {
			if _, ok := q.Next(); !ok {
				break
			}
		}
		if kept != representatives {
			b.Fatalf("kept %d representatives, want %d", kept, representatives)
		}
	}
	b.ReportMetric(float64(scenarios)*float64(b.N)/b.Elapsed().Seconds(), "scenarios/s")
}

// expandedFIPN4 returns a freshly expanded fip n=4,t=1 system (32,784 runs
// from 1,637 representatives): no C_N layer built, nothing cached.
func expandedFIPN4(b *testing.B) func() *episteme.System {
	b.Helper()
	st := stack(b, "fip", 4, 1)
	ec := episteme.ContextFor(st)
	ctx := context.Background()
	idx, err := episteme.BuildShardIndex(ctx, ec, st.Action, 0, 1)
	if err != nil {
		b.Fatal(err)
	}
	rep, err := episteme.MergeSystems(ctx, []*episteme.ShardIndex{idx})
	if err != nil {
		b.Fatal(err)
	}
	return func() *episteme.System {
		sys, err := episteme.ExpandQuotient(ctx, rep, ec)
		if err != nil || len(sys.Runs) != 32784 {
			b.Fatalf("runs=%d err=%v", len(sys.Runs), err)
		}
		return sys
	}
}

// BenchmarkExpandQuotientN4 expands the 1,637 fip representatives at
// n=4,t=1 back into the full 32,784-run system (expand), and times the
// first read at time Horizon of a fresh expansion (last-layer): the
// expansion leaves that slice to be interned then, and the cost it moved
// stays in sight here.
func BenchmarkExpandQuotientN4(b *testing.B) {
	fresh := expandedFIPN4(b)
	b.Run("expand", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			fresh()
		}
	})
	b.Run("last-layer", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			sys := fresh()
			b.StartTimer()
			if sys.Key(0, episteme.Point{Run: 0, Time: sys.Horizon}) == "" {
				b.Fatal("no key at time Horizon")
			}
		}
	})
}

// BenchmarkCNCondenseN4 is the scaling guard of the C_N condensation: one
// reachability question per time 0..2 of a fresh fip n=4 system, so each
// iteration builds the three layers CheckImplements(P1) needs — Tarjan
// over the implicit graph, the DAG, the folded guard — and one closure
// each. Expansion is outside the timer.
func BenchmarkCNCondenseN4(b *testing.B) {
	fresh := expandedFIPN4(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		sys := fresh()
		b.StartTimer()
		for m := 0; m < sys.Horizon; m++ {
			if len(sys.CNReachable(episteme.Point{Run: 0, Time: m})) == 0 {
				b.Fatalf("nothing reachable at time %d", m)
			}
		}
	}
}

// BenchmarkCheckImplementsP1N4 is the scaling guard of Theorem A.21's
// check: a cold CheckImplements(P1) on a fresh fip n=4 system, layers and
// all.
func BenchmarkCheckImplementsP1N4(b *testing.B) {
	fresh := expandedFIPN4(b)
	ctx := context.Background()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		sys := fresh()
		b.StartTimer()
		if ms, err := sys.CheckImplements(ctx, episteme.P1, 1); err != nil || len(ms) != 0 {
			b.Fatalf("mismatches=%v err=%v", ms, err)
		}
	}
}

// BenchmarkOutcomeStreamN4 is the scaling guard of the outcome-stream
// path on the fip n=4,t=1 sweep (32,784 records, 4 stripes): run executes
// the stripes through RunShard, merge fans them back in, verify re-reads
// the merged stream. Merge and verify execute nothing, so their cost per
// record should stay a small fraction of run's.
func BenchmarkOutcomeStreamN4(b *testing.B) {
	const n, tf, stripes, records = 4, 1, 4, 32784
	st := stack(b, "fip", n, tf)
	runner := eba.NewRunner(st, eba.WithParallelism(0))
	ctx := context.Background()
	runStripes := func(b *testing.B) [][]byte {
		out := make([][]byte, stripes)
		for i := range out {
			src, err := eba.SourceSO(n, tf, st.Horizon())
			if err != nil {
				b.Fatal(err)
			}
			var buf bytes.Buffer
			if _, err := runner.RunShard(ctx, src, i, stripes, &buf); err != nil {
				b.Fatal(err)
			}
			out[i] = buf.Bytes()
		}
		return out
	}
	merge := func(b *testing.B, raw [][]byte) []byte {
		streams := make([]io.Reader, len(raw))
		for i := range raw {
			streams[i] = bytes.NewReader(raw[i])
		}
		var merged bytes.Buffer
		if sum, err := eba.MergeOutcomes(&merged, streams...); err != nil || sum.Total != records {
			b.Fatalf("merge: %+v, %v", sum, err)
		}
		return merged.Bytes()
	}
	perRecord := func(b *testing.B) {
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/records, "ns/record")
	}
	b.Run("run", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			runStripes(b)
		}
		perRecord(b)
	})
	raw := runStripes(b)
	b.Run("merge", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			merge(b, raw)
		}
		perRecord(b)
	})
	merged := merge(b, raw)
	b.Run("verify", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if sum, err := eba.VerifyOutcomeStream(bytes.NewReader(merged)); err != nil || sum.Records != records {
				b.Fatalf("verify: %+v, %v", sum, err)
			}
		}
		perRecord(b)
	})
}

func BenchmarkE11BasicVsMin(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if tb := experiments.E11BasicVsMin(); !tb.Pass {
			b.Fatal("E11 failed")
		}
	}
}

func BenchmarkE12BasicVsFipFaulty(b *testing.B) {
	rng := rand.New(rand.NewSource(2))
	n, tf := 5, 2
	basic, fip := stack(b, "basic", n, tf), stack(b, "fip", n, tf)
	for i := 0; i < b.N; i++ {
		pat := adversary.RandomSO(rng, n, tf, tf+2, 0.5)
		inits := make([]model.Value, n)
		for j := range inits {
			inits[j] = model.Value(rng.Intn(2))
		}
		rb, err := basic.Run(pat, inits)
		if err != nil {
			b.Fatal(err)
		}
		rf, err := fip.Run(pat, inits)
		if err != nil {
			b.Fatal(err)
		}
		if rf.MaxDecisionRound(true) > rb.MaxDecisionRound(true) {
			b.Fatal("fip decided later than basic")
		}
	}
}

func BenchmarkE13CrashVsOmission(b *testing.B) {
	// One exhaustive naive-protocol sweep over SO(1), n=3.
	st := stack(b, "naive", 3, 1)
	for i := 0; i < b.N; i++ {
		pats, err := adversary.NewSOPatterns(3, 1, 3, adversary.Options{})
		if err != nil {
			b.Fatal(err)
		}
		for pat, ok := pats.Next(); ok; pat, ok = pats.Next() {
			p := pat.Clone()
			ivs, err := adversary.NewInitVectors(3)
			if err != nil {
				b.Fatal(err)
			}
			for inits, ok2 := ivs.Next(); ok2; inits, ok2 = ivs.Next() {
				if _, err := st.Run(p, append([]model.Value(nil), inits...)); err != nil {
					b.Fatal(err)
				}
			}
		}
	}
}

func BenchmarkE14Synthesize(b *testing.B) {
	c := episteme.Context{Exchange: exchange.NewMin(3), T: 1}
	for i := 0; i < b.N; i++ {
		if _, _, err := episteme.Synthesize(context.Background(), c, episteme.P0); err != nil {
			b.Fatal(err)
		}
	}
}

// --- micro benches --------------------------------------------------------

func BenchmarkEngineRoundMin(b *testing.B) {
	n, tf := 16, 4
	st := stack(b, "min", n, tf)
	pat := adversary.FailureFree(n, tf+2)
	inits := adversary.UniformInits(n, model.One)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := st.Run(pat, inits); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkRuntimeConcurrent(b *testing.B) {
	n, tf := 8, 2
	st := stack(b, "basic", n, tf)
	pat := adversary.Silent(n, tf+2, 0)
	inits := adversary.UniformInits(n, model.One)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := st.RunConcurrent(pat, inits); err != nil {
			b.Fatal(err)
		}
	}
}

// batchScenarios builds a deterministic scenario list for the Runner
// benches.
func batchScenarios(n, tf, count int) []eba.Scenario {
	rng := rand.New(rand.NewSource(7))
	scenarios := make([]eba.Scenario, count)
	for k := range scenarios {
		pat := adversary.RandomSO(rng, n, tf, tf+2, 0.4)
		inits := make([]model.Value, n)
		for i := range inits {
			inits[i] = model.Value(rng.Intn(2))
		}
		scenarios[k] = eba.Scenario{Pattern: pat, Inits: inits}
	}
	return scenarios
}

// BenchmarkRunnerBatch measures the batch hot path across executor and
// parallelism configurations on the same 64-scenario workload.
func BenchmarkRunnerBatch(b *testing.B) {
	n, tf := 8, 2
	st := stack(b, "basic", n, tf)
	scenarios := batchScenarios(n, tf, 64)
	ctx := context.Background()
	cases := []struct {
		name string
		opts []eba.RunnerOption
	}{
		{"sequential", nil},
		{"parallel4", []eba.RunnerOption{eba.WithParallelism(4)}},
		{"concurrent-parallel4", []eba.RunnerOption{eba.WithExecutor(eba.Concurrent), eba.WithParallelism(4)}},
	}
	for _, c := range cases {
		runner := eba.NewRunner(st, c.opts...)
		b.Run(c.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := runner.RunBatch(ctx, scenarios); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkEngineBufferReuse isolates what keeping one Buffers across
// runs saves on single runs of the min and fip stacks: the fresh row is
// engine.Run, which draws a throwaway Buffers per run; the reused row
// hands every run the same one. The allocation ceilings themselves are
// pinned by internal/engine's TestBufferedRunAllocCeilings.
func BenchmarkEngineBufferReuse(b *testing.B) {
	cases := []struct {
		stackName string
		n, tf     int
	}{
		{"min", 16, 4},
		{"fip", 8, 2},
	}
	for _, c := range cases {
		st := stack(b, c.stackName, c.n, c.tf)
		pat := adversary.Example71(c.n, c.tf, c.tf+2)
		inits := adversary.UniformInits(c.n, model.One)
		cfg := st.Config(pat, inits)
		b.Run(c.stackName+"/fresh", func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := engine.Run(cfg); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(c.stackName+"/reused", func(b *testing.B) {
			b.ReportAllocs()
			buf := engine.NewBuffers()
			for i := 0; i < b.N; i++ {
				if _, err := engine.RunBuffered(cfg, buf); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkGraphMergeAndKey(b *testing.B) {
	// Build a realistic mid-run graph and measure clone+merge+key, the
	// inner loop of the full-information exchange.
	n, tf := 12, 3
	res, err := stack(b, "fip", n, tf).Run(adversary.Example71(n, tf, tf+2), adversary.UniformInits(n, model.One))
	if err != nil {
		b.Fatal(err)
	}
	st := res.States[tf+1][tf].(*exchange.FIPState)
	g := st.Graph()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		h := g.Clone()
		h.Merge(g)
		_ = h.Key()
	}
}

func BenchmarkRefOwnerAction(b *testing.B) {
	// P_opt's per-round decision cost on a mid-run view at Example 7.1
	// scale.
	n, tf := 20, 10
	res, err := stack(b, "fip", n, tf).Run(adversary.Example71(n, tf, tf+2), adversary.UniformInits(n, model.One))
	if err != nil {
		b.Fatal(err)
	}
	st := res.States[2][tf].(*exchange.FIPState)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r := graph.NewRef(tf, st.Graph())
		_ = r.OwnerAction()
	}
}

func BenchmarkBuildSystemMin31(b *testing.B) {
	for i := 0; i < b.N; i++ {
		st := stack(b, "min", 3, 1)
		if _, err := episteme.BuildSystem(context.Background(), episteme.ContextFor(st), st.Action); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkBuildSystem is the model checker's reference build workload
// (γ_fip at n=3, t=1): streaming enumeration through the Runner, the
// memoizing executor, and the interned index.
func BenchmarkBuildSystem(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := eba.BuildSystem(context.Background(), stack(b, "fip", 3, 1)); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkCheckImplements is the model checker's reference check
// workload: a cold CheckImplements(P1) — including the concurrent C_N
// condensation builds — on a fresh γ_fip n=3, t=1 system each iteration.
func BenchmarkCheckImplements(b *testing.B) {
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		sys, err := eba.BuildSystem(context.Background(), stack(b, "fip", 3, 1))
		if err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
		ms, err := sys.CheckImplements(context.Background(), eba.ProgramP1, 0)
		if err != nil || len(ms) != 0 {
			b.Fatalf("mismatches=%d err=%v", len(ms), err)
		}
	}
}

func BenchmarkEngineStepFIP(b *testing.B) {
	n, tf := 12, 3
	ex := exchange.NewFIP(n)
	pat := adversary.FailureFree(n, tf+2)
	states := make([]model.State, n)
	acts := make([]model.Action, n)
	for i := 0; i < n; i++ {
		states[i] = ex.Initial(model.AgentID(i), model.One)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := engine.Step(ex, pat, 0, states, acts); err != nil {
			b.Fatal(err)
		}
	}
}
