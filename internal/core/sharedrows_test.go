package core

import (
	"context"
	"testing"

	"repro/internal/adversary"
	"repro/internal/engine"
	"repro/internal/model"
	"repro/internal/runtime"
)

// TestSharedInitRowsNeverWritten runs the n=3 sweep, whose scenarios
// share their inits rows as source.CrossInits's do, through every
// executor a Runner can hold — the sequential engine, the concurrent
// runtime, the orbit memo's relabeling and a result-cache hit — writes
// into every Result.Inits, and drains the scenarios again: each row must
// still be the init vector of its ordinal.
func TestSharedInitRowsNeverWritten(t *testing.T) {
	const n, tf = 3, 1
	st := MustStack("fip", WithN(n), WithT(tf))
	pats, err := adversary.NewSOPatterns(n, tf, st.Horizon(), adversary.Options{})
	if err != nil {
		t.Fatal(err)
	}
	src := &crossSource{pats: pats, n: n}
	var scenarios []Scenario
	for sc, ok := src.Next(); ok; sc, ok = src.Next() {
		scenarios = append(scenarios, sc)
	}

	relabel := NewRunner(st, WithParallelism(2))
	relabel.memo = &orbitCall{OrbitMemo: NewOrbitMemo(st)}
	store := newMapStore()
	cached := func() *Runner { return NewRunner(st, WithParallelism(2), WithResultCache(store, "shared-rows")) }
	drain(t, cached(), scenarios) // fills the store: the pass below hits
	hits := cached()
	for _, pass := range []struct {
		name string
		r    *Runner
	}{
		{"engine.Sequential", NewRunner(st, WithExecutor(engine.Sequential{}), WithParallelism(2))},
		{"runtime.Concurrent", NewRunner(st, WithExecutor(runtime.Concurrent{}), WithParallelism(2))},
		{"orbit memo", relabel},
		{"cache hit", hits},
	} {
		drain(t, pass.r, scenarios)
		for k, sc := range scenarios {
			for i, v := range sc.Inits {
				if want := model.Value(k >> i & 1); v != want {
					t.Fatalf("%s: after writing into the results, scenario %d's inits read %v", pass.name, k, sc.Inits)
				}
			}
		}
	}
	if relabel.memo.relabeled.Load() == 0 {
		t.Fatal("the orbit memo relabeled no run")
	}
	if c := hits.exec.(*CachingExecutor).Counters(); c.Hits != int64(len(scenarios)) || c.Misses != 0 {
		t.Fatalf("the cached pass hit %d and missed %d of %d", c.Hits, c.Misses, len(scenarios))
	}
}

// drain runs the scenarios and overwrites every result's inits.
func drain(t *testing.T, r *Runner, scenarios []Scenario) {
	t.Helper()
	for oc := range r.StreamFrom(context.Background(), FromScenarios(scenarios)) {
		if oc.Err != nil {
			t.Fatal(oc.Err)
		}
		for i := range oc.Result.Inits {
			oc.Result.Inits[i] = model.None
		}
	}
}
