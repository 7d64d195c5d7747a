package main

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"repro/internal/adversary"
	"repro/internal/core"
	"repro/internal/source"
)

// defaultSeconds is BENCHMARK.json's run_seconds: the measuring budget a
// run is sized for. The iteration-scale constant of a run is
// seconds/defaultSeconds; fixed-size probes (point queries, cache
// entries, random scenarios) scale by it, timed phases repeat their pass
// until their share of the budget is spent.
const defaultSeconds = 15

// sizes fixes the problem sizes of every workload. The full sizes are
// the issue's; -smoke runs n=3 everywhere so the whole benchmark can be
// exercised against its goldens inside the tier-1 test budget.
type sizes struct {
	T         int
	VerifyN   int // verify-n4-full: the three stacks' full theorem suite
	AnchorN   int // verify-fip-n5: the quotiented anchor
	SweepFipN int // sweep-streams (a), (c), (d)
	SweepMinN int // sweep-streams (b)
	ColdN     int // serve-mixed: the cold /v1/check
	MixN      int // serve-mixed: the request mix
	BasicBigN int // engine.basic_n8_ns_per_run

	VerifyStripes int // stripes per stack in verify-n4-full
	SweepStripes  int // stripes of the in-process sweep (a)
	MinStripes    int // sweep-streams (b) runs stripe 0 of this many
	FleetStripes  int // stripes of the loopback fabric job (d) and of served sweeps
	ColdServers   int // fresh servers answering one timed cold check each
	PlanLen       int // seeded requests in the serve plan (clients cycle through it)

	PointQueries int // hot point queries per kind
	CacheEntries int // entries of the cache put/get probe
	BigScenarios int // random scenarios of the basic n=8 probe

	// AnchorBallastMB is the heap verify-fip-n5 touches once before
	// timing (see touchHeap): about three quarters of its own peak, so
	// peak_rss_mb still reads the workload's peak, not the ballast. The
	// other workloads peak below 300 MB and need none.
	AnchorBallastMB int
}

var fullSizes = sizes{
	T: 1, VerifyN: 4, AnchorN: 5, SweepFipN: 4, SweepMinN: 5, ColdN: 4, MixN: 3, BasicBigN: 8,
	VerifyStripes: 4, SweepStripes: 4, MinStripes: 8, FleetStripes: 16, ColdServers: 5, PlanLen: 10000,
	PointQueries: 10000, CacheEntries: 10000, BigScenarios: 100000,
	AnchorBallastMB: 768,
}

var smokeSizes = sizes{
	T: 1, VerifyN: 3, AnchorN: 3, SweepFipN: 3, SweepMinN: 3, ColdN: 3, MixN: 3, BasicBigN: 4,
	VerifyStripes: 4, SweepStripes: 4, MinStripes: 4, FleetStripes: 4, ColdServers: 2, PlanLen: 400,
	PointQueries: 200, CacheEntries: 200, BigScenarios: 200,
}

// Workload names.
const (
	wlVerifyN4 = "verify-n4-full"
	wlVerifyN5 = "verify-fip-n5"
	wlSweep    = "sweep-streams"
	wlServe    = "serve-mixed"
)

// workloads lists the workloads in report order with the function that
// runs each.
var workloads = []struct {
	name string
	run  func(*runState) error
}{
	{wlVerifyN4, runVerifyFull},
	{wlVerifyN5, runVerifyAnchor},
	{wlSweep, runSweepStreams},
	{wlServe, runServeMixed},
}

// runConfig is one run's command line.
type runConfig struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	smoke    bool
	outDir   string
	gold     *goldens
	log      io.Writer
}

// runState is what a workload function works with: its sizes, the
// tracer (nil when untraced), the golden checker and the metric set.
type runState struct {
	cfg   runConfig
	sz    sizes
	procs int // GOMAXPROCS: the cap on clients, workers and per-call parallelism

	tr   *tracer
	root spanRef
	chk  checker
	m    metricSet
	tmp  string

	setupS    float64 // own wall of one set-up: the mean over the repeated set-ups
	phaseWall float64 // summed median own pass walls of the timed phases
	units     int64   // verified units one pass of each of those phases produces
	allocated float64 // bytes one pass of each of those phases allocates (mean over its passes)
	passWall  float64 // wall of every pass span (the base of the overhead share)
}

// scale is the run's iteration-scale constant.
func (rs *runState) scale() float64 { return rs.cfg.seconds / defaultSeconds }

// scaled scales a probe's iteration count, keeping at least floor.
func (rs *runState) scaled(count, floor int) int {
	n := int(float64(count) * rs.scale())
	if n < floor {
		n = floor
	}
	return n
}

// The workload's set-up is repeated at least minSetups times and until
// setupShare of the measuring budget is spent (at most maxSetups times).
// Cheap set-ups need the repeats: a 6 ms set-up read anywhere from 5 to
// 19 ms over ten runs when it was repeated 5 times.
const (
	minSetups  = 5
	maxSetups  = 201
	setupShare = 0.1
)

// repeatSetup runs the workload's set-up repeatedly, tearing each but
// the last down again. setup_s is the own wall of the whole loop's
// set-ups over their number: the steal clock ticks in hundredths of a
// second, too coarse to correct one set-up of a few milliseconds.
func (rs *runState) repeatSetup(setup func() error, teardown func()) error {
	var total ownTime
	start := time.Now()
	for n := 1; ; n++ {
		sp := rs.tr.start(rs.root, spanSetup)
		sw := startStopwatch()
		err := setup()
		total = total.plus(sw.stop())
		sp.end()
		if err != nil {
			return err
		}
		if n >= maxSetups || (n >= minSetups && time.Since(start).Seconds() >= setupShare*rs.cfg.seconds) {
			rs.setupS = total.own() / float64(n)
			fmt.Fprintf(rs.cfg.log, "set-up x%d: %s\n", n, total)
			return nil
		}
		if teardown != nil {
			teardown()
		}
	}
}

// warmup runs the workload's untimed warm-up, if it has one, and records
// its time (harness.warmup_s; never part of setup_s).
func (rs *runState) warmup(warm func()) {
	sp := rs.tr.start(rs.root, spanWarmup)
	defer sp.end()
	t0 := time.Now()
	if warm != nil {
		warm()
	}
	rs.m.set("harness.warmup_s", time.Since(t0).Seconds())
}

// onePass runs pass under a pass span of its own and returns its time.
// A collection runs first, untimed, as testing.B does between
// benchmarks: every pass then starts from the same heap, not from
// whatever garbage its predecessor left.
func (rs *runState) onePass(pass func(sp spanRef) error) (ownTime, error) {
	runtime.GC()
	sp := rs.tr.start(rs.root, spanPass)
	sw := startStopwatch()
	err := pass(sp)
	t := sw.stop()
	sp.end()
	rs.passWall += t.wall
	return t, err
}

// passTimes holds the time of every pass of one phase.
type passTimes []ownTime

// own returns the median own wall of the passes: the phase's time.
func (pt passTimes) own() float64 {
	owns := make([]float64, len(pt))
	for i, t := range pt {
		owns[i] = t.own()
	}
	return median(owns)
}

// walls returns the passes' walls as the clock read them.
func (pt passTimes) walls() []float64 {
	walls := make([]float64, len(pt))
	for i, t := range pt {
		walls[i] = t.wall
	}
	return walls
}

// timedPasses repeats pass until budget seconds are spent, at least
// minPasses times, and returns the pass times (also listed in the report
// under the phase's name). verifiedPerPass is how many verified units one
// pass produces. How many passes the budget allowed moves no metric: the
// phase counts as one pass of median own wall and mean allocation.
func (rs *runState) timedPasses(phase string, budget float64, minPasses int, verifiedPerPass int64, pass func(sp spanRef) error) (passTimes, error) {
	var pt passTimes
	allocated := countAllocations()
	start := time.Now()
	for len(pt) < minPasses || time.Since(start).Seconds() < budget {
		t, err := rs.onePass(pass)
		if err != nil {
			return pt, err
		}
		pt = append(pt, t)
	}
	rs.notePhase(phase, pt, verifiedPerPass, allocated()/float64(len(pt)))
	return pt, nil
}

// notePhase lists a phase's passes in the report and, when its passes
// verify units, adds the phase to the tallies verified_per_s and
// alloc_kb_per_verified are taken from: the units one pass verifies, the
// median own wall of a pass and the bytes a pass allocates.
func (rs *runState) notePhase(phase string, pt passTimes, verifiedPerPass int64, allocatedPerPass float64) {
	if verifiedPerPass > 0 {
		rs.phaseWall += pt.own()
		rs.units += verifiedPerPass
		rs.allocated += allocatedPerPass
	}
	fmt.Fprintf(rs.cfg.log, "passes %-22s", phase)
	for _, t := range pt {
		fmt.Fprintf(rs.cfg.log, " [%s]", t)
	}
	fmt.Fprintln(rs.cfg.log)
}

// countAllocations starts counting the bytes the process allocates; the
// returned function reads the count.
func countAllocations() func() float64 {
	var before runtime.MemStats
	runtime.ReadMemStats(&before)
	return func() float64 {
		var after runtime.MemStats
		runtime.ReadMemStats(&after)
		return float64(after.TotalAlloc - before.TotalAlloc)
	}
}

// stack builds a registered stack at a size.
func (rs *runState) stack(name string, n int) (core.Stack, error) {
	return core.NewStack(name, core.WithN(n), core.WithT(rs.sz.T))
}

// soSource returns the exhaustive SO(t) x inits source of a stack: the
// enumeration every sweep and every model check in this repository
// walks.
func soSource(st core.Stack) (core.Source, error) {
	pats, err := source.SO(st.N, st.T, st.Horizon(), adversary.Options{})
	if err != nil {
		return nil, err
	}
	return source.CrossInits(pats, st.N)
}

// drain pulls every scenario of a source and returns how many there
// were.
func drain(src core.Source) int64 {
	var n int64
	for _, ok := src.Next(); ok; _, ok = src.Next() {
		n++
	}
	return n
}

// checkEnumeration drains the stack's source and compares its size with
// the golden run count and the closed form: the goldens a workload is
// about to be judged by describe the enumeration it is about to run.
func (rs *runState) checkEnumeration(st core.Stack) error {
	src, err := soSource(st)
	if err != nil {
		return err
	}
	want, err := rs.cfg.gold.count(st.N, st.T)
	if err != nil {
		return err
	}
	got := drain(src)
	if got != int64(want.Runs) || want.Runs != closedFormRuns(st.N, st.Horizon()) || want.Reps != closedFormReps(st.N, st.Horizon()) {
		return fmt.Errorf("enumeration of n=%d t=%d has %d scenarios; golden says %d runs / %d representatives, closed form %d / %d",
			st.N, st.T, got, want.Runs, want.Reps, closedFormRuns(st.N, st.Horizon()), closedFormReps(st.N, st.Horizon()))
	}
	return nil
}

// newRunState prepares a run: sizes, tracer, temp directory.
func newRunState(cfg runConfig) (*runState, error) {
	rs := &runState{cfg: cfg, sz: fullSizes, procs: runtime.GOMAXPROCS(0), m: metricSet{}}
	if cfg.smoke {
		rs.sz = smokeSizes
	}
	if cfg.trace {
		rs.tr = newTracer(cfg.workload)
	}
	rs.root = rs.tr.start(noSpan, spanWorkload)
	if err := os.MkdirAll(cfg.outDir, 0o755); err != nil {
		return nil, err
	}
	tmp, err := os.MkdirTemp(cfg.outDir, "tmp-"+cfg.workload+"-")
	if err != nil {
		return nil, err
	}
	rs.tmp = tmp
	return rs, nil
}

// close removes the run's temp directory.
func (rs *runState) close() { os.RemoveAll(rs.tmp) }

// tempPath names a file or directory inside the run's temp directory.
func (rs *runState) tempPath(name string) string { return filepath.Join(rs.tmp, name) }

// finish derives the metrics every workload reports from the run's
// tallies; headline holds the passes verdict_s is taken from. It returns
// the summarized trace for the workload's per-layer rows, nil untraced.
func (rs *runState) finish(headline passTimes) *traceSummary {
	rs.root.end()
	rs.m.set("setup_s", rs.setupS)
	rs.m.set("verdict_s", headline.own())
	if rs.phaseWall > 0 && rs.units > 0 {
		rs.m.set("verified_per_s", float64(rs.units)/rs.phaseWall)
		rs.m.set("alloc_kb_per_verified", rs.allocated/1024/float64(rs.units))
	}
	rs.m.set("harness.passes", float64(len(headline)))
	rs.m.set("peak_rss_mb", peakRSSMB())
	if rs.tr == nil {
		return nil
	}
	ts := summarize(rs.tr.snapshot())
	rs.m.set("harness.phase_sum_share", ts.phaseSumShare())
	if rs.passWall > 0 {
		inPasses := len(ts.allUnder("", spanPass))
		rs.m.set("harness.trace_overhead_share", float64(inPasses)*spanCostNS()/1e9/rs.passWall)
	}
	return ts
}
