// Source-driven execution: StreamFrom pulls scenarios lazily from a
// Source and fans them out over the Runner's worker pool, so exhaustive
// and randomized sweeps run at O(window) memory instead of materializing
// a scenario slice. Stream and RunBatch are thin layers over the same
// machinery.

package core

import (
	"context"
	"fmt"
	"slices"
	"sync"

	"repro/internal/engine"
)

// Source is a pull-style stream of scenarios, the lazy counterpart of a
// []Scenario. Next returns the next scenario, or false when the source is
// exhausted. Count returns the total number of scenarios the source will
// produce and whether that total is known (unbounded or unrepresentable
// sources report false). Sources need not be safe for concurrent use: the
// Runner pulls from a single goroutine.
//
// internal/source provides generators (exhaustive SO/crash sweeps, seeded
// random scenarios) and combinators (CrossInits, Limit, Filter,
// FromSlice) producing Sources.
type Source interface {
	Next() (Scenario, bool)
	Count() (int64, bool)
}

// ErrorSource is an optional Source extension for sources that can fail
// mid-stream — a shard reader whose pipe breaks, a decoder hitting
// corrupt input. Such a source ends the stream by returning false from
// Next and reports why through Err (nil means ordinary exhaustion).
// StreamFrom checks Err when the source ends: a non-nil error cancels the
// stream's work with that error as the context cause (the fail-fast
// semantics RunBatch and RunSource already have) and the stream's final
// outcome carries it — Index -1, Err set.
type ErrorSource interface {
	Source
	Err() error
}

// FromScenarios adapts an eager scenario slice to the Source interface —
// the bridge from the batch world into the streaming one (Stream is
// StreamFrom over it).
func FromScenarios(scenarios []Scenario) Source {
	return &sliceSource{scenarios: scenarios}
}

// sliceSource adapts an eager scenario slice to the Source interface.
type sliceSource struct {
	scenarios []Scenario
	next      int
}

func (s *sliceSource) Next() (Scenario, bool) {
	if s.next >= len(s.scenarios) {
		return Scenario{}, false
	}
	sc := s.scenarios[s.next]
	s.next++
	return sc, true
}

func (s *sliceSource) Count() (int64, bool) { return int64(len(s.scenarios)), true }

const (
	// windowPerWorker sizes the reordering window of a stream: at most
	// windowPerWorker scenarios per worker are in flight — dispatched but
	// not yet emitted — at any moment, so the re-sequencing buffer stays
	// that small no matter how long the head scenario runs. The window
	// pays for itself by amortising hand-offs (see chunksPerWorker), and
	// costs memory: docs/architecture.md, "Stream cost model", records the
	// sweep of 2, 8, 32 and 128 per worker that chose it.
	windowPerWorker = 32
	// chunksPerWorker is how many hand-offs a window's worth of scenarios
	// is cut into per worker: scenarios reach a worker, and outcomes come
	// back, a chunk at a time, so a channel rendezvous and its goroutine
	// wake-up are paid once per chunk. Four chunks per worker keep every
	// worker fed while the head chunk waits to be emitted.
	chunksPerWorker = 4
	// chunk is the number of consecutive scenarios in one hand-off.
	chunk = windowPerWorker / chunksPerWorker
)

// Stream executes the scenarios over the worker pool and emits outcomes
// on the returned channel in scenario order. The channel closes when
// every outcome has been emitted or the context is cancelled; the
// consumer must drain the channel or cancel the context to release the
// workers. Unlike RunBatch, a per-scenario error does not stop the
// stream: the outcome carries it and later scenarios still run.
func (r *Runner) Stream(ctx context.Context, scenarios []Scenario) <-chan RunOutcome {
	return r.StreamFrom(ctx, &sliceSource{scenarios: scenarios})
}

// StreamFrom pulls scenarios lazily from the source, executes them over
// the worker pool, and emits outcomes on the returned channel in scenario
// order through a bounded reordering window (windowPerWorker). The stream
// is bit-identical to the eager Stream/RunBatch paths over the same
// scenarios; memory stays bounded by the window regardless of the
// source's size, so exhaustive sweeps can run without materializing.
// The channel closes when the source is exhausted and every outcome has
// been emitted, or when the context is cancelled; the consumer must drain
// the channel or cancel the context to release the workers. A
// per-scenario error does not stop the stream.
func (r *Runner) StreamFrom(ctx context.Context, src Source) <-chan RunOutcome {
	out := make(chan RunOutcome)
	go func() {
		defer close(out)
		// sctx carries stream-internal failure: when the source itself
		// fails mid-stream (ErrorSource), outstanding work is cancelled
		// with the source's error as the cause, and outcomes produced
		// after the failure carry it — context.Cause, never a bare
		// context.Canceled, matching the Runner's fail-fast semantics.
		sctx, fail := context.WithCancelCause(ctx)
		defer fail(nil)
		// The channel closes only after every worker has returned: a
		// cancelled stream leaves no scenario running behind it.
		r.pool(sctx, src, fail, func(outs []RunOutcome) bool {
			for _, o := range outs {
				select {
				case out <- o:
				case <-ctx.Done():
					return false
				}
			}
			return true
		})
		// A stream-internal failure (a failed source) surfaces as the
		// stream's final outcome: Index -1, Err the cancellation cause.
		// External cancellation is the caller's own context; they hold its
		// cause already, so nothing is appended for it.
		if cause := context.Cause(sctx); cause != nil && ctx.Err() == nil {
			select {
			case out <- RunOutcome{Index: -1, Err: cause}:
			case <-ctx.Done():
			}
		}
	}()
	return out
}

// pool runs the source's scenarios on the runner's workers a chunk at a
// time and hands emit the chunks in scenario order. A chunk travels as
// the outcomes it will become: the dispatcher fills in index and
// scenario, a worker the rest. A source that fails mid-stream is reported
// to fail. pool returns once every worker has; the dispatcher may be
// blocked in the source's Next and is not waited for.
func (r *Runner) pool(ctx context.Context, src Source, fail func(error), emit func([]RunOutcome) bool) {
	workers := r.parallelism
	if c, ok := src.Count(); ok && int64(workers) > c {
		workers = int(c)
	}
	if workers < 1 {
		workers = 1
	}
	inOrder(ctx.Done(), workers, chunksPerWorker*workers, func(outs *[]RunOutcome, i int) bool {
		*outs = slices.Grow((*outs)[:0], chunk)
		for idx := i * chunk; len(*outs) < chunk; idx++ {
			sc, ok := src.Next()
			if !ok {
				// A source that failed mid-stream (rather than running
				// dry) cancels outstanding work with its error as the
				// cause, so in-flight outcomes carry it.
				if es, isErrSource := src.(ErrorSource); isErrSource && es.Err() != nil {
					fail(es.Err())
				}
				return false
			}
			*outs = append(*outs, RunOutcome{Index: idx, Scenario: sc})
		}
		return true
	}, func() func(*[]RunOutcome) {
		buf := engine.NewBuffers()
		orbit := r.exec
		if r.memo != nil {
			orbit = r.memo.executor(r.exec)
		}
		return func(outs *[]RunOutcome) {
			for i, jb := range *outs {
				exec := orbit
				if jb.Scenario.Weight != 0 {
					exec = r.exec
				}
				(*outs)[i] = r.runOne(ctx, jb.Index, jb.Scenario, exec, buf)
			}
		}
	}, func(outs *[]RunOutcome) bool { return emit(*outs) })
}

// inOrder is the pipeline under StreamFrom, RunShard and readChunks.
// produce fills the i-th chunk on a goroutine of its own, one of workers
// goroutines processes it (work makes one worker's step), and emit takes
// the chunks back on the calling goroutine in the order they were
// produced. window chunks exist, and each is refilled
// only after emit has had it, so at most window are in flight and their
// buffers are recycled, never regrown. produce reports false with its
// last chunk; emit false stops early, as does closing done. inOrder
// returns once every worker has; the channel it returns closes once the
// producer has, which can take until the produce in progress returns.
func inOrder[C any](done <-chan struct{}, workers, window int, produce func(c *C, i int) bool, work func() func(*C), emit func(*C) bool) <-chan struct{} {
	type slot struct {
		c           C
		last, ready bool // ready is the calling goroutine's alone
	}
	slots := make([]slot, window)
	permits := make(chan struct{}, window)
	// One queued chunk per worker: a worker finds its next chunk waiting.
	jobs, results := make(chan *slot, workers), make(chan *slot, window)
	stop, produced := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(produced)
		for i := 0; ; i++ {
			select {
			case permits <- struct{}{}:
			case <-stop:
				return
			}
			s := &slots[i%window]
			s.last = !produce(&s.c, i)
			select {
			case jobs <- s:
			case <-stop:
				return
			}
			if s.last {
				return
			}
		}
	}()
	var wg sync.WaitGroup
	defer func() {
		close(stop)
		wg.Wait()
	}()
	for range workers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			step := work()
			for {
				select {
				case s := <-jobs:
					step(&s.c)
					results <- s // never blocks: it has room for every slot
				case <-stop:
					return
				}
			}
		}()
	}
	for i := 0; ; i++ {
		s := &slots[i%window]
		for !s.ready {
			select {
			case r := <-results:
				r.ready = true
			case <-done:
				return produced
			}
		}
		s.ready = false
		if !emit(&s.c) || s.last {
			return produced
		}
		<-permits
	}
}

// RunSource executes every scenario the source produces over the worker
// pool and returns the results in scenario order, like RunBatch without
// the scenario slice: result k corresponds to the source's k-th scenario.
// The first execution error, specification violation, or context
// cancellation aborts the run: outstanding work is cancelled with that
// first error as the context cause, so in-flight scenarios stop promptly
// and nothing further is pulled from the source.
func (r *Runner) RunSource(ctx context.Context, src Source) ([]*engine.Result, error) {
	ctx, cancel := context.WithCancelCause(ctx)
	defer cancel(nil)

	var out []*engine.Result
	if c, ok := src.Count(); ok && c >= 0 {
		// Cap the preallocation: a representable count can still exceed
		// what make can allocate; append grows past the cap as needed.
		if c > 1<<20 {
			c = 1 << 20
		}
		out = make([]*engine.Result, 0, c)
	}
	for oc := range r.StreamFrom(ctx, src) {
		if oc.Err != nil {
			cancel(oc.Err)
			return nil, oc.Err
		}
		out = append(out, oc.Result)
	}
	if err := ctx.Err(); err != nil {
		return nil, context.Cause(ctx)
	}
	if c, ok := src.Count(); ok && int64(len(out)) != c {
		return nil, fmt.Errorf("runner: source run ended after %d of %d scenarios", len(out), c)
	}
	return out, nil
}
