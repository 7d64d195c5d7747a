package main

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"repro/internal/cache"
	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/source"
)

// The probes below run after the timed passes of a traced run. Each
// measures one layer alone through its exported functions, so that a
// later change to that layer has a number of its own to move.

// sourceProbe drains the stack's enumeration alone, then through the
// symmetry quotient; the quotient's row is what the canonicalization
// adds on top of the enumeration it wraps.
func (rs *runState) sourceProbe(st core.Stack) error {
	sp := rs.tr.start(rs.root, spanProbe)
	defer sp.end()
	src, err := soSource(st)
	if err != nil {
		return err
	}
	esp := rs.tr.start(sp, "source.enumerate")
	t0 := time.Now()
	scenarios := drain(src)
	enumerate := time.Since(t0).Seconds()
	esp.count("scenarios", scenarios)
	esp.end()

	src, err = soSource(st)
	if err != nil {
		return err
	}
	qsp := rs.tr.start(sp, "source.quotient")
	t0 = time.Now()
	reps := drain(source.Quotient(src))
	through := time.Since(t0).Seconds()
	qsp.count("representatives", reps)
	qsp.end()

	counts, err := rs.cfg.gold.count(st.N, st.T)
	if err != nil {
		return err
	}
	rs.chk.equalInt(scenarios, int64(counts.Runs), "scenarios enumerated by the source")
	rs.chk.equalInt(reps, int64(counts.Reps), "representatives kept by the quotient")
	rs.m.set("source.enumerate_s", enumerate)
	rs.m.set("source.scenarios", float64(scenarios))
	quotient := through - enumerate
	if quotient < 0 {
		quotient = 0
	}
	rs.m.set("source.quotient_s", quotient)
	rs.m.set("source.representatives", float64(reps))
	return nil
}

// engineRun is one single-goroutine sweep of pre-collected scenarios
// through engine.RunBuffered with arena buffers (what WithBufferReuse
// gives every Runner worker).
type engineRun struct {
	nsPerRun, allocsPerRun, bitsPerRun float64
}

func runEngine(st core.Stack, scenarios []core.Scenario) (engineRun, error) {
	buf := engine.NewArenaBuffers()
	runtime.GC()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	var bits int64
	t0 := time.Now()
	for _, sc := range scenarios {
		res, err := engine.RunBuffered(st.Config(sc.Pattern, sc.Inits), buf)
		if err != nil {
			return engineRun{}, err
		}
		bits += res.Stats.BitsSent
	}
	elapsed := time.Since(t0)
	runtime.ReadMemStats(&m1)
	runs := float64(len(scenarios))
	return engineRun{
		nsPerRun:     float64(elapsed.Nanoseconds()) / runs,
		allocsPerRun: float64(m1.Mallocs-m0.Mallocs) / runs,
		bitsPerRun:   float64(bits) / runs,
	}, nil
}

// engineProbe runs fip and min over the same pre-collected scenarios
// (graph has no outside boundary: its cost is the fip row minus the min
// row) and basic over seeded random SO(2) scenarios at n=8, the
// limited-exchange-at-larger-n point of the paper.
func (rs *runState) engineProbe(fip core.Stack) error {
	sp := rs.tr.start(rs.root, spanProbe)
	defer sp.end()
	src, err := soSource(fip)
	if err != nil {
		return err
	}
	scenarios, err := source.Collect(src)
	if err != nil {
		return err
	}
	minStack, err := rs.stack("min", fip.N)
	if err != nil {
		return err
	}
	for _, row := range []struct {
		name  string
		stack core.Stack
	}{{"fip", fip}, {"min", minStack}} {
		esp := rs.tr.start(sp, "engine.run_buffered_"+row.name)
		r, err := runEngine(row.stack, scenarios)
		esp.count("runs", int64(len(scenarios)))
		esp.end()
		if err != nil {
			return err
		}
		rs.m.set("engine."+row.name+"_ns_per_run", r.nsPerRun)
		rs.m.set("engine."+row.name+"_allocs_per_run", r.allocsPerRun)
		rs.m.set("exchange."+row.name+"_bits_per_run", r.bitsPerRun)
	}

	const bigT = 2
	basic, err := core.NewStack("basic", core.WithN(rs.sz.BasicBigN), core.WithT(bigT))
	if err != nil {
		return err
	}
	rng := rand.New(rand.NewSource(rs.cfg.seed))
	big, err := source.Collect(source.RandomScenarios(rng, basic.N, basic.T, basic.Horizon(), 0.4, int64(rs.scaled(rs.sz.BigScenarios, 100))))
	if err != nil {
		return err
	}
	esp := rs.tr.start(sp, "engine.run_buffered_basic_big")
	r, err := runEngine(basic, big)
	esp.count("runs", int64(len(big)))
	esp.end()
	if err != nil {
		return err
	}
	rs.m.set("engine.basic_n8_ns_per_run", r.nsPerRun)
	return nil
}

// cacheProbe times the store alone: puts and gets of run-payload-sized
// entries, the seal, and the verifying rescan a reopen falls back to
// when it cannot trust the index.
func (rs *runState) cacheProbe(st core.Stack) error {
	sp := rs.tr.start(rs.root, spanProbe)
	defer sp.end()

	// The payload is a real cached run: the first scenario of the sweep.
	src, err := soSource(st)
	if err != nil {
		return err
	}
	sc, _ := src.Next()
	res, err := engine.Run(st.Config(sc.Pattern, sc.Inits))
	if err != nil {
		return err
	}
	cr, err := core.NewCachedRun(res, false)
	if err != nil {
		return err
	}
	payload, err := json.Marshal(cr)
	if err != nil {
		return err
	}
	entries := rs.scaled(rs.sz.CacheEntries, 100)
	keys := make([]string, entries)
	version := st.VersionDigest("benchmark-probe")
	for i := range keys {
		keys[i] = cache.Key(version, core.CacheKindRun, fmt.Sprintf("%032x", i))
	}

	dir := rs.tempPath("probe-store")
	store, err := cache.Open(dir)
	if err != nil {
		return err
	}
	psp := rs.tr.start(sp, "cache.put")
	t0 := time.Now()
	for _, k := range keys {
		if err := store.Put(k, payload); err != nil {
			return err
		}
	}
	put := time.Since(t0)
	psp.count("entries", int64(entries))
	psp.end()
	if err := store.Close(); err != nil {
		return err
	}

	// Without its index the store must rescan and verify every record.
	if err := os.Remove(filepath.Join(dir, "index.json")); err != nil {
		return err
	}
	rsp := rs.tr.start(sp, "cache.reopen_verify")
	t0 = time.Now()
	store, err = cache.Open(dir)
	reopen := time.Since(t0)
	rsp.end()
	if err != nil {
		return err
	}
	defer store.Close()
	gsp := rs.tr.start(sp, "cache.get")
	var missing int64
	t0 = time.Now()
	for _, k := range keys {
		if _, ok := store.Get(k); !ok {
			missing++
		}
	}
	get := time.Since(t0)
	gsp.count("entries", int64(entries))
	gsp.end()
	rs.chk.equalInt(missing, 0, "probe entries missing after the verifying reopen")

	rs.m.set("cache.put_us", float64(put.Nanoseconds())/1e3/float64(entries))
	rs.m.set("cache.get_us", float64(get.Nanoseconds())/1e3/float64(entries))
	rs.m.set("cache.reopen_verify_s", reopen.Seconds())
	return nil
}
