package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"strconv"
)

// aaConfig is the -aa command line.
type aaConfig struct {
	seed    int64
	seconds float64
	smoke   bool
	outDir  string
}

// runChild runs one workload in a process of its own (so peak_rss_mb is
// the workload's) and decodes the JSON line it ends with.
func runChild(cfg aaConfig, workload string, seed int64, trace bool, stderr io.Writer) (result, error) {
	exe, err := os.Executable()
	if err != nil {
		return result{}, err
	}
	args := []string{
		"-workload", workload, "-seed", strconv.FormatInt(seed, 10),
		"-seconds", strconv.FormatFloat(cfg.seconds, 'g', -1, 64),
		"-trace", map[bool]string{false: "0", true: "1"}[trace],
		"-out", cfg.outDir, "-all",
	}
	if cfg.smoke {
		args = append(args, "-smoke")
	}
	cmd := exec.Command(exe, args...)
	cmd.Stderr = stderr
	out, runErr := cmd.Output()
	lines := bytes.Split(bytes.TrimSpace(out), []byte("\n"))
	var res result
	if err := json.Unmarshal(lines[len(lines)-1], &res); err != nil {
		if runErr != nil {
			return res, fmt.Errorf("%s: %w", workload, runErr)
		}
		return res, fmt.Errorf("%s: last line is not the result object: %w", workload, err)
	}
	// A child that printed its result and exited non-zero found golden
	// mismatches; the result says so.
	return res, nil
}

// relDiff is how much worse b is than a, as a share of a: positive when
// b is worse in the metric's direction.
func relDiff(d metricDef, a, b float64) float64 {
	if a == 0 {
		if b == 0 {
			return 0
		}
		return math.Inf(1)
	}
	if d.Better == higher {
		return (a - b) / a
	}
	return (b - a) / a
}

// runAA runs every workload twice on the same code and seed, untraced,
// and prints for every bounded metric both values, their relative
// difference, the bound and PASS or FAIL (a difference in either
// direction beyond the bound fails: the code did not change). It then
// runs each workload once traced for the harness rows, and serve-mixed
// and the seeded engine probe under a second seed to show that the plan
// follows the seed and the metrics do not.
func runAA(cfg aaConfig, stdout, stderr io.Writer) int {
	agree, err := compareRuns(cfg, stdout, stderr)
	switch {
	case err != nil:
		fmt.Fprintln(stderr, "benchmark:", err)
		return 1
	case !agree:
		return 3
	}
	return 0
}

// compareRuns does runAA's work; agree is false when a bounded metric
// differed by more than its bound or any operation failed.
func compareRuns(cfg aaConfig, stdout, stderr io.Writer) (agree bool, err error) {
	agree = true
	fmt.Fprintf(stdout, "A/A: every workload twice, seed %d, %g s budget\n", cfg.seed, cfg.seconds)
	untraced := make(map[string]result)
	for _, w := range workloads {
		var runs [2]result
		for i := range runs {
			res, err := runChild(cfg, w.name, cfg.seed, false, stderr)
			if err != nil {
				return false, err
			}
			runs[i] = res
		}
		untraced[w.name] = runs[0]
		fmt.Fprintf(stdout, "%s: failed %d of %d, then %d of %d\n", w.name, runs[0].Failed, runs[0].Attempted, runs[1].Failed, runs[1].Attempted)
		if runs[0].Failed+runs[1].Failed > 0 {
			agree = false
		}
		for _, d := range metricDefs {
			a, b := runs[0].Metrics[d.Name].Value, runs[1].Metrics[d.Name].Value
			if d.Bound == 0 || (a == 0 && b == 0) {
				continue
			}
			diff := relDiff(d, a, b)
			verdict := "PASS"
			if math.Abs(diff) > d.Bound {
				verdict = "FAIL"
				agree = false
			}
			fmt.Fprintf(stdout, "  %-28s %14.6g %14.6g %-6s %+7.2f%%  bound %2.0f%%  %s\n", d.Name, a, b, d.Unit, diff*100, d.Bound*100, verdict)
		}
	}

	fmt.Fprintln(stdout, "traced runs:")
	traced := make(map[string]result)
	for _, w := range workloads {
		res, err := runChild(cfg, w.name, cfg.seed, true, stderr)
		if err != nil {
			return false, err
		}
		traced[w.name] = res
		if res.Failed > 0 {
			agree = false
		}
		base := untraced[w.name].Metrics["verdict_s"].Value
		fmt.Fprintf(stdout, "  %-16s phase_sum_share %.3f  trace_overhead_share %.5f  traced/untraced verdict_s %.3f  failed %d of %d\n",
			w.name, res.Metrics["harness.phase_sum_share"].Value, res.Metrics["harness.trace_overhead_share"].Value,
			res.Metrics["verdict_s"].Value/base, res.Failed, res.Attempted)
	}

	second := cfg.seed + 1
	fmt.Fprintf(stdout, "second seed (%d):\n", second)
	res, err := runChild(cfg, wlServe, second, false, stderr)
	if err != nil {
		return false, err
	}
	if res.Failed > 0 {
		agree = false
	}
	for _, name := range []string{"serve_rps", "serve_check_p50_ms", "serve_knowledge_p50_ms", "serve_sweep_p50_ms"} {
		d, _ := defByName(name)
		a, b := untraced[wlServe].Metrics[name].Value, res.Metrics[name].Value
		fmt.Fprintf(stdout, "  %-28s %14.6g %14.6g %-6s %+7.2f%%\n", name, a, b, d.Unit, relDiff(d, a, b)*100)
	}
	probe, err := runChild(cfg, wlSweep, second, true, stderr)
	if err != nil {
		return false, err
	}
	const name = "engine.basic_n8_ns_per_run"
	d, _ := defByName(name)
	a, b := traced[wlSweep].Metrics[name].Value, probe.Metrics[name].Value
	fmt.Fprintf(stdout, "  %-28s %14.6g %14.6g %-6s %+7.2f%%\n", name, a, b, d.Unit, relDiff(d, a, b)*100)
	return agree, nil
}
