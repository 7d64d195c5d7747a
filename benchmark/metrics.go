package main

import (
	"fmt"
	"io"
)

// Metric classes. The builder's contract (BENCHMARK.json) requires every
// workload to report every end-to-end metric, never as 0, so the
// end-to-end class holds only metrics that mean something on all four
// workloads. The issue's workload-specific end-to-end metrics
// (serve_rps, warm_sweep_s, ...) are kept under their names as the
// "workload" class: measured the same way, bounded here and checked by
// -aa, but listed under per_layer in BENCHMARK.json because that is the
// only place the contract lets a metric apply to one workload.
const (
	classE2E      = "end_to_end"
	classWorkload = "workload"
	classLayer    = "per_layer"
)

// metricDef names one metric: unit, which direction is better, the
// regression bound (a share of the baseline median; 0 = unbounded), and
// which end-to-end metric an improvement in it should move.
type metricDef struct {
	Name   string
	Unit   string
	Better string // "lower" or "higher"
	Bound  float64
	Class  string
	Moves  string
}

const (
	lower  = "lower"
	higher = "higher"
)

// metricDefs is the benchmark's metric glossary, in report order.
// BENCHMARK.json is checked against it by TestBenchmarkJSONMatchesTable.
var metricDefs = []metricDef{
	// End to end: every workload reports all four. Times are own walls:
	// the wall with the CPU time the hypervisor's steal clock reports taken
	// out (ownTime in env.go; README, "Timing noise").
	{"setup_s", "s", lower, 0.25, classE2E, "input generation, goldens, temp stores, server and fleet start (own wall of the repeated set-ups over their number)"},
	{"verdict_s", "s", lower, 0.25, classE2E, "from nothing to the workload's verified result: median own wall of the timed passes"},
	{"verified_per_s", "1/s", higher, 0.25, classE2E, "verified units (runs checked, records streamed, requests answered) of one pass of every phase per second of those passes' own wall"},
	{"alloc_kb_per_verified", "KB", lower, 0.05, classE2E, "heap allocated per verified unit over the same phases: the one end-to-end cost timing noise cannot touch"},

	// Workload level: the issue's end-to-end metrics that exist on one
	// workload only, and peak_rss_mb, which every workload has but which
	// swings with the collector's timing (serve-mixed: 185-250 MB, 22%
	// between the quartiles of ten runs): the issue demotes an end-to-end
	// metric that does not hold its bound between runs of the same code.
	// Untraced runs print them; traced runs report them beside the
	// per-layer rows.
	{"peak_rss_mb", "MB", lower, 0.25, classWorkload, "every workload: VmHWM of the workload's own process"},
	{"fip_runs_per_s", "1/s", higher, 0.25, classWorkload, "sweep-streams (a): fip n=4 sweep, merge and verify, in process, no store"},
	{"min_runs_per_s", "1/s", higher, 0.25, classWorkload, "sweep-streams (b): min n=5 sweep to a file and verify"},
	{"warm_sweep_s", "s", lower, 0.25, classWorkload, "sweep-streams (c): median warm pass against the result cache"},
	{"fleet_sweep_s", "s", lower, 0.25, classWorkload, "sweep-streams (d): median loopback fabric job"},
	{"serve_rps", "1/s", higher, 0.25, classWorkload, "serve-mixed: requests per second over the closed-loop mix"},
	{"serve_check_p50_ms", "ms", lower, 0.25, classWorkload, "serve-mixed: median /v1/check latency"},
	{"serve_knowledge_p50_ms", "ms", lower, 0.25, classWorkload, "serve-mixed: median /v1/knowledge latency"},
	{"serve_sweep_p50_ms", "ms", lower, 0.25, classWorkload, "serve-mixed: median /v1/sweep latency"},
	{"serve_p99_ms", "ms", lower, 0.25, classWorkload, "serve-mixed: tail latency over all kinds (see serve.tail_percentile)"},
	{"serve_cold_check_s", "s", lower, 0.25, classWorkload, "serve-mixed: first /v1/check on a fresh server, median of the cold servers"},

	// Per layer, from the traced run. The note names the end-to-end or
	// workload metric the row should move.
	{"source.enumerate_s", "s", lower, 0, classLayer, "verdict_s on verify-fip-n5, min_runs_per_s"},
	{"source.scenarios", "count", lower, 0, classLayer, "exact count"},
	{"source.quotient_s", "s", lower, 0, classLayer, "verdict_s on verify-fip-n5"},
	{"source.representatives", "count", lower, 0, classLayer, "exact count"},

	{"engine.fip_ns_per_run", "ns", lower, 0, classLayer, "fip_runs_per_s, fleet_sweep_s"},
	{"engine.min_ns_per_run", "ns", lower, 0, classLayer, "min_runs_per_s"},
	{"engine.fip_allocs_per_run", "count", lower, 0, classLayer, "fip_runs_per_s"},
	{"engine.min_allocs_per_run", "count", lower, 0, classLayer, "min_runs_per_s"},
	{"engine.basic_n8_ns_per_run", "ns", lower, 0, classLayer, "none yet: the limited-exchange point at larger n"},
	{"exchange.fip_bits_per_run", "count", lower, 0, classLayer, "exact count (engine.Stats)"},
	{"exchange.min_bits_per_run", "count", lower, 0, classLayer, "exact count (engine.Stats)"},

	{"core.run_shard_fip_s", "s", lower, 0, classLayer, "fip_runs_per_s, verdict_s on sweep-streams"},
	{"core.run_shard_min_s", "s", lower, 0, classLayer, "min_runs_per_s"},
	{"core.merge_outcomes_s", "s", lower, 0, classLayer, "fip_runs_per_s"},
	{"core.verify_stream_s", "s", lower, 0, classLayer, "min_runs_per_s, serve_sweep_p50_ms"},
	{"core.records", "count", higher, 0, classLayer, "exact count"},
	{"core.stream_bytes", "count", lower, 0, classLayer, "exact count"},
	{"core.executed", "count", lower, 0, classLayer, "exact count"},
	{"core.cache_hits", "count", higher, 0, classLayer, "exact count"},

	{"cache.open_s", "s", lower, 0, classLayer, "warm_sweep_s"},
	{"cache.put_us", "us", lower, 0, classLayer, "warm_sweep_s (cold pass)"},
	{"cache.get_us", "us", lower, 0, classLayer, "warm_sweep_s"},
	{"cache.seal_s", "s", lower, 0, classLayer, "warm_sweep_s (cold pass)"},
	{"cache.reopen_verify_s", "s", lower, 0, classLayer, "warm_sweep_s"},
	{"cache.cold_overhead_s", "s", lower, 0, classLayer, "cold pass with a store minus the pass without one"},
	{"cache.hits", "count", higher, 0, classLayer, "exact count"},
	{"cache.misses", "count", lower, 0, classLayer, "exact count"},
	{"cache.puts", "count", lower, 0, classLayer, "exact count"},
	{"cache.bytes_written", "count", lower, 0, classLayer, "exact count"},
	{"cache.bytes_served", "count", lower, 0, classLayer, "exact count"},
	{"cache.hit_ratio", "ratio", higher, 0, classLayer, "hits over probes"},

	{"episteme.build_shard_index_s", "s", lower, 0, classLayer, "verdict_s on verify-fip-n5, serve_cold_check_s"},
	{"episteme.write_shard_index_s", "s", lower, 0, classLayer, "verdict_s on verify-*"},
	{"episteme.read_shard_index_s", "s", lower, 0, classLayer, "verdict_s on verify-*"},
	{"episteme.shard_index_bytes", "count", lower, 0, classLayer, "exact count"},
	{"episteme.merge_systems_s", "s", lower, 0, classLayer, "verdict_s on verify-*"},
	{"episteme.expand_quotient_s", "s", lower, 0, classLayer, "verdict_s and peak_rss_mb on verify-fip-n5"},
	{"episteme.cn_condense_s", "s", lower, 0, classLayer, "verdict_s on verify-fip-n5"},
	{"episteme.check_implements_s", "s", lower, 0, classLayer, "verdict_s on verify-fip-n5, serve_cold_check_s"},
	{"episteme.check_safety_s", "s", lower, 0, classLayer, "verdict_s on verify-n4-full only"},
	{"episteme.check_optimality_s", "s", lower, 0, classLayer, "verdict_s on verify-n4-full, serve_check_p50_ms, serve_rps"},
	{"episteme.runs", "count", lower, 0, classLayer, "exact count"},
	{"episteme.rep_runs", "count", lower, 0, classLayer, "exact count"},
	{"episteme.knows_ck_us", "us", lower, 0, classLayer, "serve_knowledge_p50_ms"},
	{"episteme.knows_exists_us", "us", lower, 0, classLayer, "serve_knowledge_p50_ms"},

	{"fabric.write_verdicts_s", "s", lower, 0, classLayer, "verdict_s on verify-n4-full (the basic stack's whole verdict block)"},
	{"fabric.loopback_sweep_s", "s", lower, 0, classLayer, "fleet_sweep_s"},
	{"fabric.overhead_ratio", "ratio", lower, 0, classLayer, "loopback job over the in-process sweep (a)"},
	{"fabric.stripes_leased", "count", lower, 0, classLayer, "exact count (Coordinator.Status)"},
	{"fabric.lease_expirations", "count", lower, 0, classLayer, "exact count (Coordinator.Status)"},

	{"serve.check_ms", "ms", lower, 0, classLayer, "serve_check_p50_ms"},
	{"serve.knowledge_ms", "ms", lower, 0, classLayer, "serve_knowledge_p50_ms"},
	{"serve.sweep_ms", "ms", lower, 0, classLayer, "serve_sweep_p50_ms"},
	{"serve.inproc_check_ms", "ms", lower, 0, classLayer, "serve_check_p50_ms (handler only, no socket)"},
	{"serve.inproc_knowledge_us", "us", lower, 0, classLayer, "serve_knowledge_p50_ms (handler only, no socket)"},
	{"serve.build_s", "s", lower, 0, classLayer, "serve_cold_check_s"},
	{"serve.requests", "count", higher, 0, classLayer, "scraped from /metrics"},
	{"serve.retried_429", "count", lower, 0, classLayer, "admission bounces absorbed by the clients"},
	{"serve.lru_hits", "count", higher, 0, classLayer, "scraped from /metrics"},
	{"serve.lru_misses", "count", lower, 0, classLayer, "scraped from /metrics"},
	{"serve.tail_percentile", "pct", higher, 0, classLayer, "the percentile serve_p99_ms reports: 99 when at least 10 samples lie beyond it"},

	{"harness.warmup_s", "s", lower, 0, classLayer, "untimed warm-up, not part of setup_s"},
	{"harness.trace_overhead_share", "ratio", lower, 0, classLayer, "spans recorded x calibrated cost per span over the timed wall"},
	{"harness.phase_sum_share", "ratio", higher, 0, classLayer, "layer self times inside timed passes over the passes' wall"},
	{"harness.passes", "count", higher, 0, classLayer, "timed passes of the headline phase"},
}

// defsOf returns the definitions of one class, in table order.
func defsOf(class string) []metricDef {
	var out []metricDef
	for _, d := range metricDefs {
		if d.Class == class {
			out = append(out, d)
		}
	}
	return out
}

func defByName(name string) (metricDef, bool) {
	for _, d := range metricDefs {
		if d.Name == name {
			return d, true
		}
	}
	return metricDef{}, false
}

// metricSet collects measured values by name.
type metricSet map[string]float64

// set records a value; recording a name the glossary does not hold is a
// bug in the harness.
func (m metricSet) set(name string, v float64) {
	if _, ok := defByName(name); !ok {
		panic("benchmark: metric " + name + " is not in the glossary")
	}
	m[name] = v
}

// print writes every recorded metric of the classes, in glossary order,
// as "name value unit (better, bound)".
func (m metricSet) print(w io.Writer, classes ...string) {
	for _, class := range classes {
		for _, d := range defsOf(class) {
			v, ok := m[d.Name]
			if !ok {
				continue
			}
			bound := "no bound"
			if d.Bound > 0 {
				bound = fmt.Sprintf("bound %.0f%%", d.Bound*100)
			}
			fmt.Fprintf(w, "  %-32s %16.6g %-6s (%s is better, %s)\n", d.Name, v, d.Unit, d.Better, bound)
		}
	}
}

// jsonMetrics renders the classes as the contract's metrics object. A
// metric of the class the workload did not measure is reported as 0:
// the layer did no work on this workload.
func (m metricSet) jsonMetrics(classes ...string) map[string]jsonMetric {
	out := make(map[string]jsonMetric)
	for _, class := range classes {
		for _, d := range defsOf(class) {
			out[d.Name] = jsonMetric{Value: m[d.Name], Unit: d.Unit}
		}
	}
	return out
}

type jsonMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}
