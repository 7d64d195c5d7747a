package main

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"io/fs"
	"math"
	"os"
	"reflect"
	"testing"
	"testing/fstest"

	"repro/internal/core"
	"repro/internal/episteme"
)

// TestTailPercentile pins the quantile picker: the highest candidate
// percentile with at least ten samples beyond it.
func TestTailPercentile(t *testing.T) {
	ramp := func(n int) []float64 {
		vals := make([]float64, n)
		for i := range vals {
			vals[i] = float64(i + 1)
		}
		return vals
	}
	for _, tc := range []struct {
		n       int
		wantPct float64
		wantVal float64
	}{
		{5, 50, 3},       // too few for any tail: the median
		{44, 75, 33},     // 11 beyond p75, only 4 beyond p90
		{200, 95, 190},   // exactly 10 beyond p95
		{999, 95, 950},   // p99 would leave 9
		{1000, 99, 990},  // exactly 10 beyond p99
		{1100, 99, 1089}, // 11 beyond p99, 1 beyond p99.9
		{10000, 99.9, 9990},
		{11000, 99.9, 10989},
		{200000, 99.99, 199980},
	} {
		pct, val := tailPercentile(ramp(tc.n))
		if pct != tc.wantPct || val != tc.wantVal {
			t.Errorf("tailPercentile(1..%d) = p%v %v; want p%v %v", tc.n, pct, val, tc.wantPct, tc.wantVal)
		}
		if b := beyond(tc.n, pct); pct != 50 && b < minBeyond {
			t.Errorf("n=%d: picked p%v with only %d samples beyond", tc.n, pct, b)
		}
	}
	if m := median([]float64{4, 1, 3, 2}); m != 2.5 {
		t.Errorf("median = %v; want 2.5", m)
	}
}

// TestSelfTimes pins the span arithmetic: self time is duration minus
// the union of the children's intervals, clipped to the parent.
func TestSelfTimes(t *testing.T) {
	spans := []span{
		{ID: 0, Parent: -1, Name: spanWorkload, StartNS: 0, EndNS: 1000},
		{ID: 1, Parent: 0, Name: spanPass, StartNS: 100, EndNS: 900},
		// Two clients running side by side under the pass, overlapping
		// in [300, 500]: they cover [200, 700] once.
		{ID: 2, Parent: 1, Name: "serve.check", StartNS: 200, EndNS: 500},
		{ID: 3, Parent: 1, Name: "serve.check", StartNS: 300, EndNS: 700},
		// A child that outlives its parent is clipped at the parent's end.
		{ID: 4, Parent: 1, Name: "serve.sweep", StartNS: 800, EndNS: 950},
		// A grandchild comes off its parent, not its grandparent.
		{ID: 5, Parent: 2, Name: "episteme.check", StartNS: 250, EndNS: 450},
	}
	want := []int64{
		1000 - 800,      // workload minus the pass
		800 - 500 - 100, // pass minus [200,700] minus [800,900]
		300 - 200,       // first client minus its grandchild
		400,             // second client, no children
		150,             // outliving child keeps its own duration
		200,
	}
	got := selfTimes(spans)
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("selfTimes = %v; want %v", got, want)
	}
	ts := summarize(spans)
	if share := ts.phaseSumShare(); share != 1-200.0/800 {
		t.Errorf("phaseSumShare = %v; want %v", share, 1-200.0/800)
	}
	if per := ts.perPass("serve.check"); len(per) != 1 || per[0] != 500e-9 {
		t.Errorf("perPass(serve.check) = %v; want [5e-07]", per)
	}
	if n := len(ts.allUnder("", spanPass)); n != 4 {
		t.Errorf("%d spans under the pass; want 4", n)
	}

	// The untraced run's tracer is nil and must swallow everything.
	var off *tracer
	sp := off.start(noSpan, "x")
	sp.count("n", 1)
	sp.end()
	if off.snapshot() != nil {
		t.Error("nil tracer recorded spans")
	}
}

// TestOwnTime pins the steal arithmetic: a stolen CPU-second costs a
// serial stretch a second of wall and a two-way parallel stretch half a
// second, and without a steal clock the own wall is the wall.
func TestOwnTime(t *testing.T) {
	for _, tc := range []struct {
		t    ownTime
		want float64
	}{
		{ownTime{wall: 10, busy: 10, steal: 2}, 8},    // serial: one CPU busy
		{ownTime{wall: 10, busy: 20, steal: 4}, 8},    // both CPUs busy throughout
		{ownTime{wall: 10, busy: 15, steal: 3}, 8},    // half serial, half parallel
		{ownTime{wall: 10, busy: 4, steal: 1}, 9},     // mostly waiting: never fewer than one CPU
		{ownTime{wall: 10, busy: 0, steal: 0}, 10},    // no /proc/stat
		{ownTime{wall: 10, busy: 10, steal: 10}, 10},  // nothing but steal: keep the wall, never report 0
		{ownTime{wall: 0, busy: 0, steal: 0}, 0},      // nothing timed
		{ownTime{wall: 1, busy: 2, steal: 0.5}, 0.75}, // sub-second
		{ownTime{wall: 3, busy: 3, steal: 0}.plus(ownTime{wall: 1, busy: 2, steal: 1}), 3.2},
	} {
		if got := tc.t.own(); math.Abs(got-tc.want) > 1e-9 {
			t.Errorf("%+v.own() = %v; want %v", tc.t, got, tc.want)
		}
	}
	if got := (passTimes{{wall: 3}, {wall: 1}, {wall: 2, busy: 2, steal: 1}}).own(); got != 1 {
		t.Errorf("median own wall = %v; want 1", got)
	}
	sw := startStopwatch()
	if got := sw.stop(); got.wall < 0 || got.steal < 0 || got.busy < got.steal {
		t.Errorf("stopwatch read %+v", got)
	}
}

// mixSystem builds the serve mix's system directly, as the workload's
// set-up does.
func mixSystem(t *testing.T) *episteme.System {
	t.Helper()
	st, err := core.NewStack("fip", core.WithN(3), core.WithT(1))
	if err != nil {
		t.Fatal(err)
	}
	sys, err := episteme.BuildSystem(context.Background(), episteme.ContextFor(st), st.Action)
	if err != nil {
		t.Fatal(err)
	}
	return sys
}

// TestPlanFollowsSeed: equal seeds give the identical plan, different
// seeds a different one, and the mix keeps its 1:2:7 ratio either way.
func TestPlanFollowsSeed(t *testing.T) {
	sys := mixSystem(t)
	build := func(seed int64) []planned {
		plan, err := buildPlan(seed, 200, "fip", 1, 4, sys)
		if err != nil {
			t.Fatal(err)
		}
		return plan
	}
	a, b, c := build(7), build(7), build(8)
	if !reflect.DeepEqual(a, b) {
		t.Error("two plans from seed 7 differ")
	}
	if reflect.DeepEqual(a, c) {
		t.Error("plans from seeds 7 and 8 are identical")
	}
	for _, plan := range [][]planned{a, c} {
		kinds := map[string]int{}
		for _, p := range plan {
			kinds[p.kind]++
		}
		if kinds[kindSweep] != 20 || kinds[kindCheck] != 40 || kinds[kindKnowledge] != 140 {
			t.Errorf("mix = %v; want 20 sweeps, 40 checks, 140 knowledge queries", kinds)
		}
	}
}

// TestGoldenCountsMatchClosedForms: the committed counts are the ones
// the hand-checkable derivation in golden/counts.txt gives.
func TestGoldenCountsMatchClosedForms(t *testing.T) {
	g := committedGoldens()
	for _, n := range []int{3, 4, 5} {
		c, err := g.count(n, 1)
		if err != nil {
			t.Fatal(err)
		}
		if c.Runs != closedFormRuns(n, 3) || c.Reps != closedFormReps(n, 3) {
			t.Errorf("n=%d: golden %d runs / %d reps; closed form %d / %d", n, c.Runs, c.Reps, closedFormRuns(n, 3), closedFormReps(n, 3))
		}
	}
}

// smokeRun runs one workload at the smoke sizes in this process.
func smokeRun(t *testing.T, workload string, trace bool, gold *goldens) result {
	t.Helper()
	cfg := runConfig{
		workload: workload, seed: 3, seconds: 0.2, trace: trace, smoke: true,
		outDir: t.TempDir(), gold: gold, log: io.Discard,
	}
	res, err := runWorkload(cfg, false)
	if err != nil {
		t.Fatalf("%s (trace=%v): %v", workload, trace, err)
	}
	if trace {
		if _, err := os.Stat(cfg.outDir + "/trace-" + workload + ".json"); err != nil {
			t.Errorf("%s: no trace file: %v", workload, err)
		}
	}
	return res
}

// TestSmokeAllWorkloads runs all four workloads end to end against the
// goldens at n=3, untraced and traced, and checks the shape of what they
// report: every end-to-end metric, none of them 0, on the untraced run;
// every per-layer metric on the traced one.
func TestSmokeAllWorkloads(t *testing.T) {
	for _, w := range workloads {
		w := w
		t.Run(w.name, func(t *testing.T) {
			res := smokeRun(t, w.name, false, committedGoldens())
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Errorf("untraced: correct=%v failed=%d attempted=%d", res.Correct, res.Failed, res.Attempted)
			}
			if len(res.Metrics) != len(defsOf(classE2E)) {
				t.Errorf("untraced run reports %d metrics; want the %d end-to-end ones", len(res.Metrics), len(defsOf(classE2E)))
			}
			for _, d := range defsOf(classE2E) {
				if m, ok := res.Metrics[d.Name]; !ok || m.Value <= 0 || m.Unit != d.Unit {
					t.Errorf("untraced %s = %+v (present %v); want a positive value in %s", d.Name, m, ok, d.Unit)
				}
			}

			res = smokeRun(t, w.name, true, committedGoldens())
			if !res.Correct || res.Failed != 0 {
				t.Errorf("traced: correct=%v failed=%d", res.Correct, res.Failed)
			}
			want := len(defsOf(classWorkload)) + len(defsOf(classLayer))
			if len(res.Metrics) != want {
				t.Errorf("traced run reports %d metrics; want %d", len(res.Metrics), want)
			}
			if share := res.Metrics["harness.phase_sum_share"].Value; share < 0.5 || share > 1 {
				t.Errorf("harness.phase_sum_share = %v", share)
			}
		})
	}
}

// TestCorruptedGoldenFails: a golden that no longer matches must show up
// as failed operations, not pass silently.
func TestCorruptedGoldenFails(t *testing.T) {
	corrupt := fstest.MapFS{}
	err := fs.WalkDir(goldenFS, "golden", func(path string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return err
		}
		data, err := fs.ReadFile(goldenFS, path)
		if err != nil {
			return err
		}
		if path == "golden/verdict-fip-n3-t1-implements.txt" {
			data = append([]byte(nil), data...)
			data[len(data)-3] ^= 1 // "OK" -> "OJ"
		}
		corrupt[path] = &fstest.MapFile{Data: data}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	res := smokeRun(t, wlVerifyN5, false, &goldens{fsys: corrupt, root: "golden"})
	if res.Correct || res.Failed == 0 || float64(res.Failed)/float64(res.Attempted) <= 0 {
		t.Errorf("corrupted golden went unnoticed: correct=%v failed=%d of %d", res.Correct, res.Failed, res.Attempted)
	}
}

// TestBenchmarkJSONMatchesTable: BENCHMARK.json, which the driver reads,
// and the glossary in metrics.go, which the program reports from, name
// the same workloads and metrics with the same units, directions and
// bounds.
func TestBenchmarkJSONMatchesTable(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type metric struct {
		Name   string   `json:"name"`
		Unit   string   `json:"unit"`
		Better string   `json:"better"`
		Bound  *float64 `json:"bound"`
	}
	var file struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []struct {
			Name string `json:"name"`
			Why  string `json:"why"`
		} `json:"workloads"`
		EndToEnd []metric `json:"end_to_end"`
		PerLayer []metric `json:"per_layer"`
	}
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&file); err != nil {
		t.Fatal(err)
	}
	if file.RunSeconds != defaultSeconds {
		t.Errorf("run_seconds = %d; the program's default is %d", file.RunSeconds, defaultSeconds)
	}
	if len(file.Workloads) != len(workloads) {
		t.Fatalf("%d workloads in BENCHMARK.json; the program has %d", len(file.Workloads), len(workloads))
	}
	for i, w := range file.Workloads {
		if w.Name != workloads[i].name || w.Why == "" || len(w.Why) > 200 {
			t.Errorf("workload %d = %q (why: %d chars); want %q with a reason of at most 200", i, w.Name, len(w.Why), workloads[i].name)
		}
	}
	check := func(section string, got []metric, want []metricDef, bounded bool) {
		if len(got) != len(want) {
			t.Errorf("%s: %d metrics in BENCHMARK.json; the glossary has %d", section, len(got), len(want))
			return
		}
		for i, d := range want {
			g := got[i]
			if g.Name != d.Name || g.Unit != d.Unit || g.Better != d.Better {
				t.Errorf("%s[%d] = %+v; glossary says %s %s %s", section, i, g, d.Name, d.Unit, d.Better)
			}
			if bounded && (g.Bound == nil || *g.Bound != d.Bound || d.Bound > 0.25) {
				t.Errorf("%s: bound of %s does not match the glossary's %v (at most 0.25)", section, d.Name, d.Bound)
			}
			if !bounded && g.Bound != nil {
				t.Errorf("%s: %s carries a bound; per-layer metrics have none", section, d.Name)
			}
		}
	}
	check("end_to_end", file.EndToEnd, defsOf(classE2E), true)
	check("per_layer", file.PerLayer, append(defsOf(classWorkload), defsOf(classLayer)...), false)
}
