package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math/rand"
	"strings"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/episteme"
	"repro/internal/fabric"
	"repro/internal/model"
	"repro/internal/registry"
)

// verifyJob is one stack's trip from nothing to a verified verdict
// block: exactly `ebashard -check` once per stripe followed by
// `ebashard -check -merge`.
type verifyJob struct {
	stack    string
	n        int
	stripes  int
	quotient bool
	opts     fabric.VerdictOptions
	variant  string // golden verdict variant
	// direct makes a traced run call ExpandQuotient and the three Check*
	// functions itself, one span each, where the untraced run makes the
	// one WriteVerdicts call; the block must come out byte-identical.
	direct bool
}

// verifyOutcome is what a verifyJob leaves behind for the probes that follow
// the timed passes.
type verifyOutcome struct {
	sys  *episteme.System // the full (expanded) system; nil when WriteVerdicts expanded internally
	runs int64
	reps int64
}

// runVerifyJob runs the job under parent and checks its output against
// the goldens.
func (rs *runState) runVerifyJob(ctx context.Context, parent spanRef, job verifyJob) (verifyOutcome, error) {
	var out verifyOutcome
	st, err := rs.stack(job.stack, job.n)
	if err != nil {
		return out, err
	}
	ec := episteme.ContextFor(st)
	buildOpts := []episteme.Option{episteme.WithParallelism(rs.procs)}
	if job.quotient {
		buildOpts = append(buildOpts, episteme.WithQuotient())
	}

	// One stripe after the other, each with the whole worker budget — K
	// ebashard processes run back to back on this box.
	shards := make([]*episteme.ShardIndex, job.stripes)
	for i := range shards {
		sp := rs.tr.start(parent, "episteme.build_shard_index")
		idx, err := episteme.BuildShardIndex(ctx, ec, st.Action, i, job.stripes, buildOpts...)
		sp.end()
		if err != nil {
			return out, err
		}
		idx.Stack = st.Name

		var file bytes.Buffer
		sp = rs.tr.start(parent, "episteme.write_shard_index")
		err = episteme.WriteShardIndex(&file, idx)
		sp.count("bytes", int64(file.Len()))
		sp.end()
		if err != nil {
			return out, err
		}
		sp = rs.tr.start(parent, "episteme.read_shard_index")
		shards[i], err = episteme.ReadShardIndex(&file)
		sp.end()
		if err != nil {
			return out, err
		}
	}

	sp := rs.tr.start(parent, "episteme.merge_systems")
	sys, err := episteme.MergeSystems(ctx, shards, episteme.WithParallelism(rs.procs))
	sp.end()
	if err != nil {
		return out, err
	}
	if sys.Quotiented() {
		out.reps = int64(len(sys.Runs))
		sp.count("representatives", out.reps)
	}

	var block bytes.Buffer
	var verdictErr error
	if job.direct && rs.tr != nil {
		out.sys, verdictErr = rs.directVerdicts(ctx, parent, &block, sys, st, job.opts)
	} else {
		sp := rs.tr.start(parent, "fabric.write_verdicts")
		verdictErr = fabric.WriteVerdicts(ctx, &block, sys, st.Name, job.opts)
		sp.end()
	}
	// A failed verdict is an output like any other: the golden decides
	// whether it was expected. Anything else is the harness failing.
	if verdictErr != nil && !errors.Is(verdictErr, fabric.ErrVerification) {
		return out, verdictErr
	}
	out.runs = parseRuns(block.Bytes())

	want, err := rs.cfg.gold.verdict(job.stack, job.n, rs.sz.T, job.variant)
	if err != nil {
		return out, err
	}
	what := fmt.Sprintf("verdict block of %s n=%d (%s)", job.stack, job.n, job.variant)
	rs.chk.equalBytes(block.Bytes(), want, what)
	rs.chk.ok(verdictErr == nil, "%s: %v", what, verdictErr)
	counts, err := rs.cfg.gold.count(job.n, rs.sz.T)
	if err != nil {
		return out, err
	}
	rs.chk.equalInt(out.runs, int64(counts.Runs), "run count of "+job.stack)
	if job.quotient {
		rs.chk.equalInt(out.reps, int64(counts.Reps), "representative count of "+job.stack)
	}
	return out, nil
}

// directVerdicts is WriteVerdicts taken apart at the episteme boundary:
// the same calls in the same order with the same arguments, one span
// each, writing the same block.
func (rs *runState) directVerdicts(ctx context.Context, parent spanRef, w *bytes.Buffer, sys *episteme.System, st core.Stack, opts fabric.VerdictOptions) (*episteme.System, error) {
	prog := episteme.P0
	for _, si := range registry.Stacks() {
		if si.Name == st.Name && si.Program == "P1" {
			prog = episteme.P1
		}
	}
	const listed = 5 // WriteVerdicts' default cap on violations listed per check
	if sys.Quotiented() {
		sp := rs.tr.start(parent, "episteme.expand_quotient")
		full, err := episteme.ExpandQuotient(ctx, sys, episteme.ContextFor(st))
		sp.end()
		if err != nil {
			return nil, err
		}
		sys = full
	}
	fmt.Fprintf(w, "stack: %s (n=%d, t=%d, horizon=%d)\n", st.Name, sys.N, sys.T, sys.Horizon)
	fmt.Fprintf(w, "runs: %d\n", len(sys.Runs))

	// The C_N condensations CheckImplements would build first, built
	// here under their own span and over the same number of workers.
	sp := rs.tr.start(parent, "episteme.cn_condense")
	condense(sys, rs.procs)
	sp.end()

	failed := false
	sp = rs.tr.start(parent, "episteme.check_implements")
	ms, err := sys.CheckImplements(ctx, prog, listed)
	sp.end()
	if err != nil {
		return nil, err
	}
	if len(ms) == 0 {
		fmt.Fprintf(w, "implements %v: OK\n", prog)
	} else {
		failed = true
		fmt.Fprintf(w, "implements %v: FAILED\n", prog)
		for _, m := range ms {
			fmt.Fprintf(w, "  %s\n", m)
		}
	}
	if opts.Safety {
		sp := rs.tr.start(parent, "episteme.check_safety")
		vs, err := sys.CheckSafety(ctx, listed)
		sp.end()
		if err != nil {
			return nil, err
		}
		if len(vs) == 0 {
			fmt.Fprintf(w, "safety: OK\n")
		} else {
			fmt.Fprintf(w, "safety: violated\n")
			for _, v := range vs {
				fmt.Fprintf(w, "  %s\n", v)
			}
			if !strings.HasPrefix(st.Name, "fip") {
				failed = true
			}
		}
	}
	if opts.Optimality && st.Name == "fip" {
		sp := rs.tr.start(parent, "episteme.check_optimality")
		vs, err := sys.CheckOptimalityFIP(ctx, -1, listed)
		sp.end()
		if err != nil {
			return nil, err
		}
		if len(vs) == 0 {
			fmt.Fprintf(w, "optimality: OK\n")
		} else {
			failed = true
			fmt.Fprintf(w, "optimality: FAILED\n")
			for _, v := range vs {
				fmt.Fprintf(w, "  %s\n", v)
			}
		}
	}
	if failed {
		return sys, fmt.Errorf("%w: verdicts failed", fabric.ErrVerification)
	}
	return sys, nil
}

// condense builds the C_N condensation of the time slices 0..Horizon-1
// (the ones CheckImplements prebuilds) by asking one reachability
// question per slice, over at most workers goroutines.
func condense(sys *episteme.System, workers int) {
	slices := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for m := range slices {
				sys.CNReachable(episteme.Point{Run: 0, Time: m})
			}
		}()
	}
	for m := 0; m < sys.Horizon; m++ {
		slices <- m
	}
	close(slices)
	wg.Wait()
}

// parseRuns reads the "runs: N" line of a verdict block (-1 if absent).
func parseRuns(block []byte) int64 {
	for _, line := range strings.Split(string(block), "\n") {
		var n int64
		if _, err := fmt.Sscanf(line, "runs: %d", &n); err == nil {
			return n
		}
	}
	return -1
}

// fullSuite lists verify-n4-full's jobs: the paper's three stacks, fip
// through the symmetry quotient, each with every check its theorems
// name. In a traced run fip and min are taken apart into episteme spans
// and basic stays one fabric.write_verdicts span, so both boundaries
// appear in the trace at no extra work.
func (rs *runState) fullSuite() []verifyJob {
	all := fabric.VerdictOptions{Safety: true, Optimality: true}
	n, k := rs.sz.VerifyN, rs.sz.VerifyStripes
	return []verifyJob{
		{stack: "fip", n: n, stripes: k, quotient: true, opts: all, variant: "full", direct: true},
		{stack: "min", n: n, stripes: k, opts: all, variant: "full", direct: true},
		{stack: "basic", n: n, stripes: k, opts: all, variant: "full"},
	}
}

// runVerifyFull is the verify-n4-full workload.
func runVerifyFull(rs *runState) error {
	ctx := context.Background()
	jobs := rs.fullSuite()
	err := rs.repeatSetup(func() error {
		for _, job := range jobs {
			st, err := rs.stack(job.stack, job.n)
			if err != nil {
				return err
			}
			if err := rs.checkEnumeration(st); err != nil {
				return err
			}
			if _, err := rs.cfg.gold.verdict(job.stack, job.n, rs.sz.T, job.variant); err != nil {
				return err
			}
		}
		return nil
	}, nil)
	if err != nil {
		return err
	}
	rs.warmup(nil)

	counts, err := rs.cfg.gold.count(rs.sz.VerifyN, rs.sz.T)
	if err != nil {
		return err
	}
	// One pass whatever the budget: a second would take the run past what
	// the driver's time cap leaves (README, "Sizes").
	var fip *episteme.System
	pt, err := rs.timedPasses("full suite", 0, 1, int64(len(jobs)*counts.Runs), func(sp spanRef) error {
		for _, job := range jobs {
			v, err := rs.runVerifyJob(ctx, sp, job)
			if err != nil {
				return err
			}
			if job.stack == "fip" {
				fip = v.sys
			}
		}
		return nil
	})
	if err != nil {
		return err
	}
	if rs.tr != nil {
		rs.pointQueryProbe(fip)
	}
	rs.episteMetrics(rs.finish(pt))
	return nil
}

// runVerifyAnchor is the verify-fip-n5 workload: ROADMAP's anchor, one
// quotiented stripe expanded to the full system and checked against P1.
// The slow checkers never run.
func runVerifyAnchor(rs *runState) error {
	ctx := context.Background()
	job := verifyJob{stack: "fip", n: rs.sz.AnchorN, stripes: 1, quotient: true, variant: "implements", direct: true}
	st, err := rs.stack(job.stack, job.n)
	if err != nil {
		return err
	}
	err = rs.repeatSetup(func() error {
		if _, err := rs.cfg.gold.verdict(job.stack, job.n, rs.sz.T, job.variant); err != nil {
			return err
		}
		return rs.checkEnumeration(st)
	}, nil)
	if err != nil {
		return err
	}
	rs.warmup(func() { touchHeap(rs.sz.AnchorBallastMB) })
	counts, err := rs.cfg.gold.count(job.n, rs.sz.T)
	if err != nil {
		return err
	}
	pt, err := rs.timedPasses("anchor", 0, 1, int64(counts.Runs), func(sp spanRef) error {
		_, err := rs.runVerifyJob(ctx, sp, job)
		return err
	})
	if err != nil {
		return err
	}
	if rs.tr != nil {
		if err := rs.sourceProbe(st); err != nil {
			return err
		}
	}
	rs.episteMetrics(rs.finish(pt))
	return nil
}

// episteMetrics turns the verify workloads' spans into the episteme and
// fabric rows: the median pass's self time per call, and the counts read
// at the boundaries.
func (rs *runState) episteMetrics(ts *traceSummary) {
	if ts == nil {
		return
	}
	for _, call := range []string{
		"episteme.build_shard_index", "episteme.write_shard_index", "episteme.read_shard_index",
		"episteme.merge_systems", "episteme.expand_quotient", "episteme.cn_condense",
		"episteme.check_implements", "episteme.check_safety", "episteme.check_optimality",
		"fabric.write_verdicts",
	} {
		rs.m.set(call+"_s", median(ts.perPass(call)))
	}
	passes := float64(len(ts.all(spanPass)))
	if passes == 0 {
		return
	}
	rs.m.set("episteme.shard_index_bytes", float64(ts.counter("episteme.write_shard_index", "bytes"))/passes)
	rs.m.set("episteme.runs", float64(rs.units))
	rs.m.set("episteme.rep_runs", float64(ts.counter("episteme.merge_systems", "representatives"))/passes)
}

// pointQueryProbe times hot point queries on a checked system: the
// questions /v1/knowledge asks, without the server around them. The
// seed picks the points.
func (rs *runState) pointQueryProbe(sys *episteme.System) {
	if sys == nil {
		return
	}
	sp := rs.tr.start(rs.root, spanProbe)
	defer sp.end()
	count := rs.scaled(rs.sz.PointQueries, 100)
	rng := rand.New(rand.NewSource(rs.cfg.seed))
	type query struct {
		i model.AgentID
		p episteme.Point
		v model.Value
	}
	qs := make([]query, count)
	for k := range qs {
		qs[k] = query{
			i: model.AgentID(rng.Intn(sys.N)),
			p: episteme.Point{Run: rng.Intn(len(sys.Runs)), Time: rng.Intn(sys.Horizon + 1)},
			v: model.Value(rng.Intn(2)),
		}
	}
	var sink int
	t0 := time.Now()
	for _, q := range qs {
		if sys.KnowsCK(q.i, q.p, q.v) {
			sink++
		}
	}
	ck := time.Since(t0)
	t0 = time.Now()
	for _, q := range qs {
		if sys.Knows(q.i, q.p, func(r episteme.Point) bool { return sys.Exists(q.v, r) }) {
			sink++
		}
	}
	ex := time.Since(t0)
	sp.count("holds", int64(sink))
	rs.m.set("episteme.knows_ck_us", float64(ck.Microseconds())/float64(count))
	rs.m.set("episteme.knows_exists_us", float64(ex.Microseconds())/float64(count))
}
