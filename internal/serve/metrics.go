package serve

import (
	"fmt"
	"io"
	"math"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	rescache "repro/internal/cache"
)

// Request kinds, the label every per-request metric carries.
const (
	kindSweep     = "sweep"
	kindCheck     = "check"
	kindKnowledge = "knowledge"
)

// kinds in render order (sorted, as Prometheus convention prefers).
var kinds = []string{kindCheck, kindKnowledge, kindSweep}

// metrics is the server's instrumentation: lock-free counters on the
// hot path, a locked histogram per latency series, rendered on demand
// in the Prometheus text exposition format by render.
type metrics struct {
	start time.Time

	requests map[string]*atomic.Int64 // served, by kind
	rejects  map[string]*atomic.Int64 // 429s, by kind
	inflight map[string]*atomic.Int64 // gauge, by kind
	latency  map[string]*histogram    // seconds, by kind
	drained  atomic.Int64             // 503s while draining

	sweepRecords   atomic.Int64 // outcome records streamed
	sweepCacheHits atomic.Int64 // sweep records restored from the result cache
	sweepRelabeled atomic.Int64 // sweep records relabeled from an orbit member's run

	// System-LRU traffic: hits (cached System reused), misses (a build
	// ran), coalesced (waited on another request's in-flight build),
	// evictions.
	lruHits, lruMisses, lruCoalesced, lruEvictions atomic.Int64
	checkMemoHits                                  atomic.Int64 // checks answered by a memoized verdict block

	buildSeconds *histogram // System build latency
}

func newMetrics() *metrics {
	m := &metrics{
		start:        time.Now(),
		requests:     map[string]*atomic.Int64{},
		rejects:      map[string]*atomic.Int64{},
		inflight:     map[string]*atomic.Int64{},
		latency:      map[string]*histogram{},
		buildSeconds: newHistogram(),
	}
	for _, k := range kinds {
		m.requests[k] = new(atomic.Int64)
		m.rejects[k] = new(atomic.Int64)
		m.inflight[k] = new(atomic.Int64)
		m.latency[k] = newHistogram()
	}
	return m
}

func (m *metrics) started(kind string)  { m.requests[kind].Add(1); m.inflight[kind].Add(1) }
func (m *metrics) rejected(kind string) { m.rejects[kind].Add(1) }
func (m *metrics) finished(kind string, seconds float64) {
	m.inflight[kind].Add(-1)
	m.latency[kind].observe(seconds)
}
func (m *metrics) observeCacheHits(hits int64) { m.sweepCacheHits.Add(hits) }

// render writes the Prometheus text exposition. inflightTotal is the
// admission pool's occupancy; cache is the result cache's counters when
// the store reports them (nil otherwise).
func (m *metrics) render(w io.Writer, inflightTotal int, cache *rescache.Stats) {
	gauge := func(name, help string, v float64) {
		fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s gauge\n%s %g\n", name, help, name, name, v)
	}
	counter := func(name, help string, v int64) {
		fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s counter\n%s %d\n", name, help, name, name, v)
	}
	byKind := func(name, help string, vals map[string]*atomic.Int64, typ string) {
		fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s %s\n", name, help, name, typ)
		for _, k := range kinds {
			fmt.Fprintf(w, "%s{kind=%q} %d\n", name, k, vals[k].Load())
		}
	}

	uptime := time.Since(m.start).Seconds()
	gauge("eba_uptime_seconds", "Seconds since the server started.", uptime)

	byKind("eba_requests_total", "Work requests served, by kind.", m.requests, "counter")
	byKind("eba_requests_rejected_total", "Work requests refused with 429, by kind.", m.rejects, "counter")
	byKind("eba_inflight_requests", "Work requests currently being served, by kind.", m.inflight, "gauge")
	counter("eba_requests_drained_total", "Work requests refused with 503 while draining.", m.drained.Load())
	gauge("eba_inflight_total", "Admission pool occupancy across all kinds.", float64(inflightTotal))

	var total int64
	for _, k := range kinds {
		total += m.requests[k].Load()
	}
	rps := 0.0
	if uptime > 0 {
		rps = float64(total) / uptime
	}
	gauge("eba_requests_per_second", "Served requests over uptime.", rps)

	counter("eba_sweep_records_total", "Outcome records streamed by sweep requests.", m.sweepRecords.Load())
	counter("eba_sweep_result_cache_hits_total", "Sweep records restored from the result cache.", m.sweepCacheHits.Load())
	counter("eba_sweep_relabeled_total", "Sweep records relabeled from the run of another member of their agent-permutation orbit.", m.sweepRelabeled.Load())

	hits, misses := m.lruHits.Load(), m.lruMisses.Load()
	counter("eba_system_lru_hits_total", "Queries answered by a cached System.", hits)
	counter("eba_system_lru_misses_total", "Queries that triggered a System build.", misses)
	counter("eba_system_lru_coalesced_total", "Queries that joined another request's in-flight build.", m.lruCoalesced.Load())
	counter("eba_system_lru_evictions_total", "Systems evicted from the LRU.", m.lruEvictions.Load())
	gauge("eba_system_lru_hit_ratio", "Hits over probes of the System LRU.", ratio(hits, hits+misses+m.lruCoalesced.Load()))
	counter("eba_check_memo_hits_total", "Checks answered by the verdict block memoized on their cached System.", m.checkMemoHits.Load())

	if cache != nil {
		counter("eba_result_cache_hits_total", "Result cache hits.", cache.Hits)
		counter("eba_result_cache_misses_total", "Result cache misses.", cache.Misses)
		counter("eba_result_cache_puts_total", "Result cache writes.", cache.Puts)
		counter("eba_result_cache_bytes_served_total", "Result cache payload bytes served.", cache.BytesServed)
		counter("eba_result_cache_bytes_written_total", "Result cache payload bytes written.", cache.BytesWritten)
		gauge("eba_result_cache_hit_ratio", "Hits over probes of the result cache.", ratio(cache.Hits, cache.Hits+cache.Misses))
	}

	m.buildSeconds.render(w, "eba_build_seconds", "System build latency in seconds.")
	for _, k := range kinds {
		m.latency[k].render(w, "eba_request_seconds_"+k, "Request latency in seconds for kind "+k+".")
	}
}

// ratio guards the num/den division against an empty denominator.
func ratio(num, den int64) float64 {
	if den == 0 {
		return 0
	}
	return float64(num) / float64(den)
}

// histogramBuckets are the latency bucket upper bounds in seconds
// (+Inf implied). Spans sub-millisecond knowledge hits to multi-minute
// cold builds.
var histogramBuckets = []float64{
	0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1,
	0.25, 0.5, 1, 2.5, 5, 10, 30, 60, 120,
}

// sampleRing bounds the memory a histogram spends on exact quantiles.
const sampleRing = 1024

// histogram is a locked latency histogram: cumulative bucket counts for
// the Prometheus exposition plus a bounded ring of raw samples for
// exact-enough p50/p99 gauges (exact until the ring wraps; the sliding
// window of the last sampleRing observations after).
type histogram struct {
	mu      sync.Mutex
	buckets []int64 // one per bound, plus +Inf last
	sum     float64
	count   int64
	ring    [sampleRing]float64
}

func newHistogram() *histogram {
	return &histogram{buckets: make([]int64, len(histogramBuckets)+1)}
}

func (h *histogram) observe(v float64) {
	h.mu.Lock()
	defer h.mu.Unlock()
	i := sort.SearchFloat64s(histogramBuckets, v)
	h.buckets[i]++
	h.sum += v
	h.ring[h.count%sampleRing] = v
	h.count++
}

// quantile returns the q-quantile of the retained samples (0 when
// empty).
func (h *histogram) quantile(q float64) float64 {
	h.mu.Lock()
	n := min(h.count, sampleRing)
	samples := make([]float64, n)
	copy(samples, h.ring[:n])
	h.mu.Unlock()
	if n == 0 {
		return 0
	}
	sort.Float64s(samples)
	i := int(math.Ceil(q*float64(n))) - 1
	if i < 0 {
		i = 0
	}
	return samples[i]
}

// render writes the histogram in the Prometheus text format, plus _p50
// and _p99 gauges computed from the sample ring.
func (h *histogram) render(w io.Writer, name, help string) {
	h.mu.Lock()
	var cum int64
	fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s histogram\n", name, help, name)
	for i, le := range histogramBuckets {
		cum += h.buckets[i]
		fmt.Fprintf(w, "%s_bucket{le=%q} %d\n", name, fmt.Sprintf("%g", le), cum)
	}
	cum += h.buckets[len(histogramBuckets)]
	fmt.Fprintf(w, "%s_bucket{le=\"+Inf\"} %d\n", name, cum)
	fmt.Fprintf(w, "%s_sum %g\n", name, h.sum)
	fmt.Fprintf(w, "%s_count %d\n", name, h.count)
	h.mu.Unlock()
	fmt.Fprintf(w, "# HELP %s_p50 Median of recent %s samples.\n# TYPE %s_p50 gauge\n%s_p50 %g\n", name, name, name, name, h.quantile(0.50))
	fmt.Fprintf(w, "# HELP %s_p99 99th percentile of recent %s samples.\n# TYPE %s_p99 gauge\n%s_p99 %g\n", name, name, name, name, h.quantile(0.99))
}
