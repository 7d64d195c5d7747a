package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"sync"
	"time"

	"repro/internal/cache"
	"repro/internal/core"
	"repro/internal/fabric"
	"repro/internal/spec"
)

// sweeper runs one stack's exhaustive sweep the way ebashard does: spec
// check on, buffer reuse on, the worker budget given.
type sweeper struct {
	rs    *runState
	stack core.Stack
	gold  streamGolden
}

// newSweeper resolves the stack and the golden its stream must hash to:
// the whole merged sweep for goldStripes == 1, else stripe 0 of that
// many.
func (rs *runState) newSweeper(stackName string, n, goldStripes int) (*sweeper, error) {
	st, err := rs.stack(stackName, n)
	if err != nil {
		return nil, err
	}
	g, err := rs.cfg.gold.stream(stackName, n, rs.sz.T, goldStripes)
	if err != nil {
		return nil, err
	}
	return &sweeper{rs: rs, stack: st, gold: g}, nil
}

// runner builds the Runner ebashard builds; store may be nil.
func (sw *sweeper) runner(parallelism int, store core.ResultCache) *core.Runner {
	opts := []core.RunnerOption{
		core.WithParallelism(parallelism),
		core.WithBufferReuse(),
		core.WithSpecCheck(spec.Options{RoundBound: sw.stack.Horizon(), ValidityAllAgents: true}),
	}
	if store != nil {
		opts = append(opts, core.WithResultCache(store, "benchmark"))
	}
	return core.NewRunner(sw.stack, opts...)
}

// stripe runs stripe index of count into w under a span named call.
func (sw *sweeper) stripe(ctx context.Context, parent spanRef, call string, index, count int, store core.ResultCache, w io.Writer) (*core.ShardSummary, error) {
	src, err := soSource(sw.stack)
	if err != nil {
		return nil, err
	}
	sp := sw.rs.tr.start(parent, call)
	sum, err := sw.runner(sw.rs.procs, store).RunShard(ctx, src, index, count, w)
	if err == nil {
		sp.count("records", sum.Records)
		sp.count("executed", sum.Executed)
		sp.count("cache_hits", sum.CacheHits)
	}
	sp.end()
	return sum, err
}

// striped runs the sweep as stripes stripes, merges them and verifies
// the merged stream: `ebashard` x stripes, `ebashard -merge`, and the
// check every consumer applies. The merged bytes must hash to the
// golden.
func (sw *sweeper) striped(ctx context.Context, parent spanRef, stripes int, store core.ResultCache) (executed, hits int64, err error) {
	streams := make([]io.Reader, stripes)
	for i := range streams {
		var buf bytes.Buffer
		sum, err := sw.stripe(ctx, parent, "core.run_shard_fip", i, stripes, store, &buf)
		if err != nil {
			return 0, 0, err
		}
		executed += sum.Executed
		hits += sum.CacheHits
		streams[i] = &buf
	}
	var merged bytes.Buffer
	sp := sw.rs.tr.start(parent, "core.merge_outcomes")
	_, err = core.MergeOutcomes(&merged, streams...)
	sp.count("bytes", int64(merged.Len()))
	sp.end()
	if err != nil {
		return 0, 0, err
	}
	sw.checkMerged(parent, merged.Bytes())
	return executed, hits, nil
}

// checkMerged verifies a merged stream end to end and compares it with
// the golden digest.
func (sw *sweeper) checkMerged(parent spanRef, merged []byte) {
	sp := sw.rs.tr.start(parent, "core.verify_stream")
	sum, err := core.VerifyOutcomeStream(bytes.NewReader(merged))
	sp.end()
	what := "merged " + sw.stack.Name + " stream"
	if !sw.rs.chk.ok(err == nil, "%s does not verify: %v", what, err) {
		return
	}
	digest := sha256.Sum256(merged)
	sw.rs.chk.ok(hex.EncodeToString(digest[:]) == sw.gold.SHA256 && sum.Records == sw.gold.Records && int64(len(merged)) == sw.gold.Bytes,
		"%s: %d records, %d bytes, sha256 %x; golden says %d, %d, %s", what, sum.Records, len(merged), digest, sw.gold.Records, sw.gold.Bytes, sw.gold.SHA256)
}

// toFile runs stripe 0 of stripes into a file, then reads the file back
// through the verifier, hashing what it reads.
func (sw *sweeper) toFile(ctx context.Context, parent spanRef, stripes int, path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	_, err = sw.stripe(ctx, parent, "core.run_shard_min", 0, stripes, nil, f)
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return err
	}
	f, err = os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	info, err := f.Stat()
	if err != nil {
		return err
	}
	h := sha256.New()
	sp := sw.rs.tr.start(parent, "core.verify_stream")
	sum, err := core.VerifyOutcomeStream(io.TeeReader(f, h))
	sp.count("bytes", info.Size())
	sp.end()
	what := sw.stack.Name + " stream file"
	if !sw.rs.chk.ok(err == nil, "%s does not verify: %v", what, err) {
		return nil
	}
	digest := hex.EncodeToString(h.Sum(nil))
	sw.rs.chk.ok(digest == sw.gold.SHA256 && sum.Records == sw.gold.Records && info.Size() == sw.gold.Bytes,
		"%s: %d records, %d bytes, sha256 %s; golden says %d, %d, %s", what, sum.Records, info.Size(), digest, sw.gold.Records, sw.gold.Bytes, sw.gold.SHA256)
	return nil
}

// fleet runs the sweep as a loopback fabric job: a coordinator on a
// loopback listener and as many workers as processors, each running its
// stripes single-threaded, all in this process.
func (sw *sweeper) fleet(ctx context.Context, parent spanRef, stripes int, spool string) error {
	coord, err := fabric.NewCoordinator(fabric.CoordinatorConfig{
		Job: fabric.JobSpec{
			Kind: fabric.SweepJob, Stack: sw.stack.Name, N: sw.stack.N, T: sw.stack.T,
			Stripes: stripes, SpecCheck: true,
		},
		SpoolDir:    spool,
		Parallelism: sw.rs.procs,
	})
	if err != nil {
		return err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	hs := &http.Server{Handler: coord.Handler()}
	served := make(chan error, 1)
	go func() { served <- hs.Serve(ln) }()
	defer func() {
		sctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		hs.Shutdown(sctx)
		<-served
	}()

	workers := make([]*fabric.Worker, sw.rs.procs)
	for i := range workers {
		workers[i], err = fabric.NewWorker(fabric.WorkerConfig{
			Coordinator:  "http://" + ln.Addr().String(),
			ID:           fmt.Sprintf("w%d", i),
			Parallelism:  1,
			PollInterval: 10 * time.Millisecond,
		})
		if err != nil {
			return err
		}
	}
	// A worker that gives up must not leave the coordinator waiting for
	// its stripes forever.
	ctx, cancel := context.WithCancelCause(ctx)
	defer cancel(nil)

	sp := sw.rs.tr.start(parent, "fabric.loopback_sweep")
	coordDone := make(chan error, 1)
	go func() { coordDone <- coord.Run(ctx) }()
	var wg sync.WaitGroup
	for _, w := range workers {
		wg.Add(1)
		go func(w *fabric.Worker) {
			defer wg.Done()
			if _, err := w.Run(ctx); err != nil {
				cancel(err)
			}
		}(w)
	}
	wg.Wait()
	err = <-coordDone
	status := coord.Status()
	sp.count("stripes_leased", status.Counters.Leases)
	sp.count("lease_expirations", status.Counters.Expirations)
	sp.end()
	if err != nil {
		return err
	}
	merged, err := os.ReadFile(coord.MergedPath())
	if err != nil {
		return err
	}
	sw.checkMerged(parent, merged)
	return nil
}

// cachedPass is what one pass of the cached sweep leaves behind: what it
// executed, what it restored, and the store's counters at its close.
type cachedPass struct {
	executed, hits int64
	stats          cache.Stats
}

// runSweepStreams is the sweep-streams workload: four phases, one layer
// dominating each.
func runSweepStreams(rs *runState) error {
	ctx := context.Background()
	var fip, minSweep *sweeper
	err := rs.repeatSetup(func() error {
		var err error
		if fip, err = rs.newSweeper("fip", rs.sz.SweepFipN, 1); err != nil {
			return err
		}
		if minSweep, err = rs.newSweeper("min", rs.sz.SweepMinN, rs.sz.MinStripes); err != nil {
			return err
		}
		if err := rs.checkEnumeration(fip.stack); err != nil {
			return err
		}
		for _, dir := range []string{"store", "spool"} {
			if err := os.MkdirAll(rs.tempPath(dir), 0o755); err != nil {
				return err
			}
		}
		return nil
	}, func() {
		os.RemoveAll(rs.tempPath("store"))
		os.RemoveAll(rs.tempPath("spool"))
	})
	if err != nil {
		return err
	}
	rs.warmup(nil)

	budget := rs.cfg.seconds
	// (a) fip sweep in process, no store: engine, exchange and graph.
	a, err := rs.timedPasses("(a) fip sweep", 0.3*budget, 3, fip.gold.Records, func(sp spanRef) error {
		_, _, err := fip.striped(ctx, sp, rs.sz.SweepStripes, nil)
		return err
	})
	if err != nil {
		return err
	}
	rs.m.set("fip_runs_per_s", float64(fip.gold.Records)/median(a.walls()))

	// (b) one stripe of the min sweep to a file: every scenario is
	// enumerated, one in MinStripes is run, written and verified.
	b, err := rs.timedPasses("(b) min to file", 0.3*budget, 1, minSweep.gold.Records, func(sp spanRef) error {
		return minSweep.toFile(ctx, sp, rs.sz.MinStripes, rs.tempPath("min.jsonl"))
	})
	if err != nil {
		return err
	}
	rs.m.set("min_runs_per_s", float64(minSweep.gold.Records)/median(b.walls()))

	// (c) the (a) sweep against a fresh store: cold once, then warm, the
	// store opened before and sealed after every pass as ebashard does.
	var cold, warm cachedPass
	cachedSweep := func(into *cachedPass) func(spanRef) error {
		return func(sp spanRef) error {
			osp := rs.tr.start(sp, "cache.open")
			store, err := cache.Open(rs.tempPath("store"))
			osp.end()
			if err != nil {
				return err
			}
			into.executed, into.hits, err = fip.striped(ctx, sp, rs.sz.SweepStripes, store)
			into.stats = store.Stats()
			csp := rs.tr.start(sp, "cache.seal")
			cerr := store.Close()
			csp.end()
			if err == nil {
				err = cerr
			}
			return err
		}
	}
	coldPass, err := rs.timedPasses("(c) cold store", 0, 1, fip.gold.Records, cachedSweep(&cold))
	if err != nil {
		return err
	}
	rs.chk.equalInt(cold.executed, fip.gold.Records, "runs executed by the cold cached sweep")
	warmPasses, err := rs.timedPasses("(c) warm store", 0.2*budget, 2, fip.gold.Records, cachedSweep(&warm))
	if err != nil {
		return err
	}
	rs.chk.equalInt(warm.executed, 0, "runs executed by the warm cached sweep")
	rs.m.set("warm_sweep_s", median(warmPasses.walls()))

	// (d) the (a) sweep as a loopback fabric job.
	fleetRuns := 0
	d, err := rs.timedPasses("(d) loopback fleet", 0.2*budget, 2, fip.gold.Records, func(sp spanRef) error {
		fleetRuns++
		return fip.fleet(ctx, sp, rs.sz.FleetStripes, rs.tempPath(fmt.Sprintf("spool/%d", fleetRuns)))
	})
	if err != nil {
		return err
	}
	rs.m.set("fleet_sweep_s", median(d.walls()))

	if rs.tr != nil {
		if err := rs.engineProbe(fip.stack); err != nil {
			return err
		}
		if err := rs.cacheProbe(fip.stack); err != nil {
			return err
		}
	}
	ts := rs.finish(a)
	if ts == nil {
		return nil
	}
	// Per-stripe and per-call medians, so the rows do not depend on how
	// many passes the time budget allowed.
	rs.m.set("core.run_shard_fip_s", median(ts.all("core.run_shard_fip"))*float64(rs.sz.SweepStripes))
	rs.m.set("core.run_shard_min_s", median(ts.all("core.run_shard_min")))
	rs.m.set("core.merge_outcomes_s", median(ts.all("core.merge_outcomes")))
	rs.m.set("core.verify_stream_s", median(ts.all("core.verify_stream")))
	rs.m.set("core.records", float64(fip.gold.Records+minSweep.gold.Records))
	rs.m.set("core.stream_bytes", float64(fip.gold.Bytes+minSweep.gold.Bytes))
	rs.m.set("core.executed", float64(cold.executed))
	rs.m.set("core.cache_hits", float64(warm.hits))
	rs.m.set("cache.open_s", median(ts.all("cache.open")))
	rs.m.set("cache.seal_s", median(ts.all("cache.seal")))
	rs.m.set("cache.cold_overhead_s", coldPass[0].wall-median(a.walls()))
	rs.m.set("cache.hits", float64(warm.stats.Hits))
	rs.m.set("cache.misses", float64(cold.stats.Misses))
	rs.m.set("cache.puts", float64(cold.stats.Puts))
	rs.m.set("cache.bytes_written", float64(cold.stats.BytesWritten))
	rs.m.set("cache.bytes_served", float64(warm.stats.BytesServed))
	if probes := warm.stats.Hits + warm.stats.Misses; probes > 0 {
		rs.m.set("cache.hit_ratio", float64(warm.stats.Hits)/float64(probes))
	}
	rs.m.set("fabric.loopback_sweep_s", median(ts.all("fabric.loopback_sweep")))
	rs.m.set("fabric.overhead_ratio", median(d.walls())/median(a.walls()))
	fleets := float64(len(d))
	rs.m.set("fabric.stripes_leased", float64(ts.counter("fabric.loopback_sweep", "stripes_leased"))/fleets)
	rs.m.set("fabric.lease_expirations", float64(ts.counter("fabric.loopback_sweep", "lease_expirations"))/fleets)
	return nil
}
