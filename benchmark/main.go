// Command benchmark is the repository's one benchmark: four workloads
// that between them cover the whole pipeline (source, engine, core,
// cache, episteme, fabric, serve), end-to-end metrics measured with
// tracing off, and a traced run that splits the same work by layer.
//
// One process runs one workload from a seed, checks every output against
// the committed goldens in golden/, and prints every metric by name with
// its unit, direction and regression bound; the last line of standard
// output is one JSON object in the shape BENCHMARK.json's contract
// prescribes:
//
//	go run ./benchmark --workload verify-n4-full --seed 1 --seconds 15 --trace 0
//	go run ./benchmark --workload serve-mixed --seed 7 --seconds 15 --trace 1
//	go run ./benchmark -aa            # every workload twice: do two runs of one code agree?
//	go run ./benchmark -list          # the metric glossary
//
// The layers are driven only through their exported functions; no file
// outside this directory knows the benchmark exists. README.md in this
// directory is the glossary: workloads, metrics, which layer row should
// move which end-to-end metric, and how to read trace-<workload>.json.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"

	"repro/internal/cache"
)

// result is the contract's last line.
type result struct {
	Correct   bool                  `json:"correct"`
	Attempted int64                 `json:"attempted"`
	Failed    int64                 `json:"failed"`
	Metrics   map[string]jsonMetric `json:"metrics"`
}

func main() {
	os.Exit(realMain(os.Args[1:], os.Stdout, os.Stderr))
}

func realMain(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		workload = fs.String("workload", "", "workload to run: verify-n4-full, verify-fip-n5, sweep-streams or serve-mixed")
		seed     = fs.Int64("seed", 1, "seed the workload's inputs are generated from")
		seconds  = fs.Float64("seconds", defaultSeconds, "measuring budget in seconds; seconds/15 is the iteration-scale constant")
		trace    = fs.String("trace", "0", "1 = traced run: per-layer metrics and trace-<workload>.json; 0 = end-to-end metrics, tracing off")
		smoke    = fs.Bool("smoke", false, "n=3 sizes everywhere (what the tests run)")
		all      = fs.Bool("all", false, "put every measured metric into the JSON line, not only the contract's class")
		aa       = fs.Bool("aa", false, "run every workload twice on the same code and seed and compare (plus a second seed)")
		list     = fs.Bool("list", false, "print the metric glossary and exit")
		outDir   = fs.String("out", filepath.Join("benchmark", "out"), "directory for trace files and temporary stores")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *trace != "0" && *trace != "1" {
		fmt.Fprintf(stderr, "benchmark: -trace takes 0 or 1, not %q\n", *trace)
		return 2
	}
	switch {
	case *list:
		printGlossary(stdout)
		return 0
	case *aa:
		return runAA(aaConfig{seed: *seed, seconds: *seconds, smoke: *smoke, outDir: *outDir}, stdout, stderr)
	}
	cfg := runConfig{
		workload: *workload, seed: *seed, seconds: *seconds, trace: *trace == "1",
		smoke: *smoke, outDir: *outDir, gold: committedGoldens(), log: stdout,
	}
	res, err := runWorkload(cfg, *all)
	if err != nil {
		fmt.Fprintln(stderr, "benchmark:", err)
		return 1
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(stderr, "benchmark:", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	if !res.Correct {
		return 3
	}
	return 0
}

// runWorkload runs one workload in this process and prints its report;
// the returned result is the contract's JSON line. Golden mismatches are
// not an error: the report and the line are complete, Correct is false.
func runWorkload(cfg runConfig, allMetrics bool) (result, error) {
	var res result
	var run func(*runState) error
	for _, w := range workloads {
		if w.name == cfg.workload {
			run = w.run
		}
	}
	if run == nil {
		return res, fmt.Errorf("unknown workload %q (see -list)", cfg.workload)
	}
	if cfg.seconds <= 0 {
		return res, fmt.Errorf("-seconds must be positive")
	}
	header := runHeader{
		Workload: cfg.workload, Seed: cfg.seed, Seconds: cfg.seconds, Scale: cfg.seconds / defaultSeconds,
		Trace: cfg.trace, Smoke: cfg.smoke, Commit: cache.Fingerprint(), GoVersion: runtime.Version(),
		NumCPU: runtime.NumCPU(), GoMaxProcs: runtime.GOMAXPROCS(0),
	}
	fmt.Fprintf(cfg.log, "benchmark: workload=%s seed=%d seconds=%g scale=%g trace=%v smoke=%v commit=%s %s nproc=%d GOMAXPROCS=%d\n",
		header.Workload, header.Seed, header.Seconds, header.Scale, header.Trace, header.Smoke,
		header.Commit, header.GoVersion, header.NumCPU, header.GoMaxProcs)

	rs, err := newRunState(cfg)
	if err != nil {
		return res, err
	}
	defer rs.close()
	if err := run(rs); err != nil {
		return res, err
	}

	fmt.Fprintf(cfg.log, "metrics (%s):\n", cfg.workload)
	rs.m.print(cfg.log, classE2E, classWorkload, classLayer)
	fmt.Fprintf(cfg.log, "  %-32s %16.6g %-6s (lower is better, must be 0): %d of %d operations\n",
		"failed_share", rs.chk.failedShare(), "ratio", rs.chk.failed, rs.chk.attempted)
	for _, d := range rs.chk.details {
		fmt.Fprintln(cfg.log, "  FAILED:", d)
	}
	if cfg.trace {
		path := filepath.Join(cfg.outDir, "trace-"+cfg.workload+".json")
		if err := writeTrace(path, header, rs.tr.snapshot()); err != nil {
			return res, err
		}
		fmt.Fprintf(cfg.log, "trace: %s (%d spans)\n", path, len(rs.tr.snapshot()))
	}
	// The contract's line: the end-to-end class untraced, the per-layer
	// classes traced.
	classes := []string{classE2E}
	switch {
	case allMetrics:
		classes = []string{classE2E, classWorkload, classLayer}
	case cfg.trace:
		classes = []string{classWorkload, classLayer}
	}
	return result{
		Correct:   rs.chk.failed == 0,
		Attempted: rs.chk.attempted,
		Failed:    rs.chk.failed,
		Metrics:   rs.m.jsonMetrics(classes...),
	}, nil
}

// printGlossary lists every metric with unit, direction, bound and what
// it should move.
func printGlossary(w io.Writer) {
	for _, class := range []string{classE2E, classWorkload, classLayer} {
		fmt.Fprintf(w, "%s:\n", class)
		for _, d := range defsOf(class) {
			bound := "-"
			if d.Bound > 0 {
				bound = fmt.Sprintf("%.0f%%", d.Bound*100)
			}
			fmt.Fprintf(w, "  %-32s %-6s %-6s %-4s %s\n", d.Name, d.Unit, d.Better, bound, d.Moves)
		}
	}
}
