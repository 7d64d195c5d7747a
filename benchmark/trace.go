package main

import (
	"encoding/json"
	"os"
	"sort"
	"sync"
	"time"
)

// span is one traced call across a layer boundary. The harness records
// spans from outside the program under test: every span brackets a call
// into an exported function of one layer (or a harness phase such as a
// timed pass), so the program itself runs unmodified.
type span struct {
	ID       int              `json:"id"`
	Parent   int              `json:"parent"` // -1 for the root
	Name     string           `json:"name"`
	Workload string           `json:"workload"`
	StartNS  int64            `json:"start_ns"` // since the trace began
	EndNS    int64            `json:"end_ns"`
	Counters map[string]int64 `json:"counters,omitempty"`
}

// tracer keeps spans in memory until the run ends. A nil *tracer is the
// untraced run: every method is a no-op, so the end-to-end measurements
// pay nothing for the instrumentation.
type tracer struct {
	workload string
	t0       time.Time

	mu    sync.Mutex
	spans []span
}

func newTracer(workload string) *tracer {
	return &tracer{workload: workload, t0: time.Now()}
}

// spanRef names an open (or finished) span; the zero value with a nil
// tracer is what the untraced run passes around.
type spanRef struct {
	t  *tracer
	id int
}

// noSpan is the parent of root spans.
var noSpan = spanRef{id: -1}

// start opens a span under parent. Spans may be opened and closed from
// several goroutines at once (the closed-loop serve clients do).
func (t *tracer) start(parent spanRef, name string) spanRef {
	if t == nil {
		return spanRef{id: -1}
	}
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	id := len(t.spans)
	t.spans = append(t.spans, span{ID: id, Parent: parent.id, Name: name, Workload: t.workload, StartNS: now, EndNS: -1})
	t.mu.Unlock()
	return spanRef{t: t, id: id}
}

// end closes the span.
func (s spanRef) end() {
	if s.t == nil {
		return
	}
	now := time.Since(s.t.t0).Nanoseconds()
	s.t.mu.Lock()
	s.t.spans[s.id].EndNS = now
	s.t.mu.Unlock()
}

// count attaches a counter read at the span's boundary.
func (s spanRef) count(name string, v int64) {
	if s.t == nil {
		return
	}
	s.t.mu.Lock()
	sp := &s.t.spans[s.id]
	if sp.Counters == nil {
		sp.Counters = make(map[string]int64)
	}
	sp.Counters[name] += v
	s.t.mu.Unlock()
}

// snapshot returns the finished spans.
func (t *tracer) snapshot() []span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}

// selfTimes returns each span's self time in nanoseconds: its duration
// minus the part of its interval that its child spans cover. Children
// running concurrently are counted once (the union of their intervals,
// clipped to the parent), so a parent waiting on two parallel clients is
// not charged a negative self time.
func selfTimes(spans []span) []int64 {
	children := make(map[int][]int, len(spans))
	for i, sp := range spans {
		if sp.Parent >= 0 {
			children[sp.Parent] = append(children[sp.Parent], i)
		}
	}
	self := make([]int64, len(spans))
	for i, sp := range spans {
		dur := sp.EndNS - sp.StartNS
		if dur < 0 {
			dur = 0
		}
		kids := children[sp.ID]
		if len(kids) == 0 {
			self[i] = dur
			continue
		}
		type iv struct{ lo, hi int64 }
		ivs := make([]iv, 0, len(kids))
		for _, k := range kids {
			lo, hi := spans[k].StartNS, spans[k].EndNS
			if lo < sp.StartNS {
				lo = sp.StartNS
			}
			if hi > sp.EndNS {
				hi = sp.EndNS
			}
			if hi > lo {
				ivs = append(ivs, iv{lo, hi})
			}
		}
		sort.Slice(ivs, func(a, b int) bool { return ivs[a].lo < ivs[b].lo })
		var covered, curLo, curHi int64
		open := false
		for _, v := range ivs {
			switch {
			case !open:
				curLo, curHi, open = v.lo, v.hi, true
			case v.lo <= curHi:
				if v.hi > curHi {
					curHi = v.hi
				}
			default:
				covered += curHi - curLo
				curLo, curHi = v.lo, v.hi
			}
		}
		if open {
			covered += curHi - curLo
		}
		self[i] = dur - covered
	}
	return self
}

// traceSummary aggregates a finished trace by span name.
type traceSummary struct {
	spans []span
	self  []int64
}

func summarize(spans []span) *traceSummary {
	return &traceSummary{spans: spans, self: selfTimes(spans)}
}

// perPass returns, for every span named pass that has descendants named
// name, the summed self time in seconds of those descendants — one value
// per timed pass, so callers report the median pass.
func (ts *traceSummary) perPass(name string) []float64 {
	var out []float64
	for _, p := range ts.spans {
		if p.Name != spanPass {
			continue
		}
		var sum int64
		found := false
		for i, sp := range ts.spans {
			if sp.Name == name && ts.under(i, p.ID) {
				sum += ts.self[i]
				found = true
			}
		}
		if found {
			out = append(out, float64(sum)/1e9)
		}
	}
	return out
}

// all returns the self times in seconds of every span with the name.
func (ts *traceSummary) all(name string) []float64 {
	var out []float64
	for i, sp := range ts.spans {
		if sp.Name == name {
			out = append(out, float64(ts.self[i])/1e9)
		}
	}
	return out
}

// allUnder returns the self times in seconds of every span with the
// name (any name when empty) that has an ancestor named ancestor.
func (ts *traceSummary) allUnder(name, ancestor string) []float64 {
	var out []float64
	for i, sp := range ts.spans {
		if name != "" && sp.Name != name {
			continue
		}
		for p := sp.Parent; p >= 0; p = ts.spans[p].Parent {
			if ts.spans[p].Name == ancestor {
				out = append(out, float64(ts.self[i])/1e9)
				break
			}
		}
	}
	return out
}

// counter sums a counter over every span with the name.
func (ts *traceSummary) counter(name, counter string) int64 {
	var sum int64
	for _, sp := range ts.spans {
		if sp.Name == name {
			sum += sp.Counters[counter]
		}
	}
	return sum
}

// under reports whether span i is a strict descendant of ancestor.
func (ts *traceSummary) under(i, ancestor int) bool {
	for p := ts.spans[i].Parent; p >= 0; p = ts.spans[p].Parent {
		if p == ancestor {
			return true
		}
	}
	return false
}

// phaseSumShare is the share of the timed passes' wall that the spans
// inside them cover: one minus the passes' own self time over their
// duration. What is left over is harness glue between the calls.
func (ts *traceSummary) phaseSumShare() float64 {
	var passNS, selfNS int64
	for i, sp := range ts.spans {
		if sp.Name == spanPass {
			passNS += sp.EndNS - sp.StartNS
			selfNS += ts.self[i]
		}
	}
	if passNS == 0 {
		return 0
	}
	return 1 - float64(selfNS)/float64(passNS)
}

// Harness span names. Everything else is "<layer>.<call>".
const (
	spanWorkload = "harness.workload"
	spanSetup    = "harness.setup"
	spanWarmup   = "harness.warmup"
	spanPass     = "harness.pass"
	spanProbe    = "harness.probe"
)

// spanCostNS calibrates what recording one span costs, by timing a burst
// of empty spans on a scratch tracer. The harness's tracing overhead is
// then spans recorded × this cost: the program under test carries no
// instrumentation, so the tracer's own bookkeeping is the whole of it.
func spanCostNS() float64 {
	const burst = 20000
	t := newTracer("calibration")
	root := t.start(noSpan, spanWorkload)
	t0 := time.Now()
	for i := 0; i < burst; i++ {
		t.start(root, spanProbe).end()
	}
	return float64(time.Since(t0).Nanoseconds()) / burst
}

// writeTrace writes the spans as trace-<workload>.json.
func writeTrace(path string, header runHeader, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	enc.SetIndent("", " ")
	err = enc.Encode(struct {
		Header runHeader `json:"header"`
		Spans  []span    `json:"spans"`
	}{header, spans})
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}
