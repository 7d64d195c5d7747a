package source

import (
	"math/rand"
	"testing"

	"repro/internal/core"
	"repro/internal/model"
)

// drain pulls the source dry, returning scenarios. (scenarioKey and
// soSweep are shared with shard_test.go.)
func drain(src Source) []core.Scenario {
	var out []core.Scenario
	for sc, ok := src.Next(); ok; sc, ok = src.Next() {
		out = append(out, sc)
	}
	return out
}

func TestQuotientWeightsCoverFullSweep(t *testing.T) {
	for _, cfg := range []struct{ n, t int }{{3, 1}, {4, 1}, {3, 2}} {
		horizon := cfg.t + 2
		full := drain(soSweep(t, cfg.n, cfg.t, horizon))
		reps := drain(Quotient(soSweep(t, cfg.n, cfg.t, horizon)))

		var weighted int64
		repKeys := make(map[string]bool, len(reps))
		for _, sc := range reps {
			if sc.Weight < 1 {
				t.Fatalf("n=%d t=%d: representative without weight: %+v", cfg.n, cfg.t, sc)
			}
			weighted += sc.Weight
			repKeys[scenarioKey(sc)] = true
		}
		if weighted != int64(len(full)) {
			t.Errorf("n=%d t=%d: quotient weights sum to %d, full sweep has %d scenarios",
				cfg.n, cfg.t, weighted, len(full))
		}
		if len(repKeys) != len(reps) {
			t.Errorf("n=%d t=%d: duplicate representatives", cfg.n, cfg.t)
		}

		// Every full-sweep scenario's canonical form must be among the
		// representatives (the quotient is a full set of orbit reps).
		// The weighted-total check above already pins the big sweep;
		// canonicalizing every one of its scenarios again is test budget.
		if len(full) > 100_000 {
			continue
		}
		for _, sc := range full {
			rep, repInits, _ := model.CanonicalizeScenario(sc.Pattern, sc.Inits)
			if !repKeys[scenarioKey(core.Scenario{Pattern: rep, Inits: repInits})] {
				t.Fatalf("n=%d t=%d: scenario %s canonicalizes outside the representative set",
					cfg.n, cfg.t, scenarioKey(sc))
			}
		}
	}
}

// TestQuotientReduction pins the ISSUE's acceptance bar: the quotiented
// n=4,t=1 fip-shaped sweep must execute at least 4× fewer scenarios than
// the full 32,784.
func TestQuotientReduction(t *testing.T) {
	full := drain(soSweep(t, 4, 1, 3))
	if len(full) != 32784 {
		t.Fatalf("full n=4,t=1 sweep has %d scenarios, want 32784", len(full))
	}
	reps := drain(Quotient(soSweep(t, 4, 1, 3)))
	if 4*len(reps) > len(full) {
		t.Errorf("quotient kept %d of %d scenarios; want at least a 4x reduction", len(reps), len(full))
	}
	t.Logf("n=4,t=1: %d representatives for %d scenarios (%.1fx reduction)",
		len(reps), len(full), float64(len(full))/float64(len(reps)))
}

// TestQuotientComposesWithStride checks the sharding contract: striding
// the quotient partitions the representative enumeration exactly, with
// weights intact.
func TestQuotientComposesWithStride(t *testing.T) {
	for _, cfg := range []struct {
		n, t, horizon int
		ks            []int
	}{
		{3, 1, 3, []int{1, 2, 3}},
		{4, 1, 3, []int{1, 3, 7}},
	} {
		whole := drain(Quotient(soSweep(t, cfg.n, cfg.t, cfg.horizon)))
		for _, k := range cfg.ks {
			var merged []core.Scenario
			stripes := make([][]core.Scenario, k)
			for i := 0; i < k; i++ {
				stripe, err := Stride(Quotient(soSweep(t, cfg.n, cfg.t, cfg.horizon)), i, k)
				if err != nil {
					t.Fatal(err)
				}
				stripes[i] = drain(stripe)
			}
			// Round-robin re-interleave in ordinal order.
			for pos := 0; ; pos++ {
				i, j := pos%k, pos/k
				if j >= len(stripes[i]) {
					break
				}
				merged = append(merged, stripes[i][j])
			}
			if len(merged) != len(whole) {
				t.Fatalf("n=%d K=%d: stripes merge to %d scenarios, quotient has %d", cfg.n, k, len(merged), len(whole))
			}
			for idx := range whole {
				if scenarioKey(merged[idx]) != scenarioKey(whole[idx]) || merged[idx].Weight != whole[idx].Weight {
					t.Fatalf("n=%d K=%d: merged ordinal %d differs from unsharded quotient", cfg.n, k, idx)
				}
			}
		}
	}
}

func TestQuotientCountUnknown(t *testing.T) {
	if _, ok := Quotient(soSweep(t, 3, 1, 3)).Count(); ok {
		t.Fatal("quotient source reported a known count; representative counts are discovered")
	}
}

// TestQuotientOverSourcesThatNeverRepeatPatterns runs Quotient where its
// canonicalizer's per-pattern memo never pays — a filtered sweep, a
// shuffled slice, random scenarios (fresh pattern every time, incoming
// weights above 1) — and over the exhaustive CrossInits products, where
// Quotient drops whole patterns before crossing them with inits. Either
// way the survivors, their order and their weights must be a
// scenario-by-scenario filter through the one-shot
// model.IsCanonicalScenario.
func TestQuotientOverSourcesThatNeverRepeatPatterns(t *testing.T) {
	shuffled := drain(soSweep(t, 3, 1, 3))
	rng := rand.New(rand.NewSource(23))
	rng.Shuffle(len(shuffled), func(i, j int) { shuffled[i], shuffled[j] = shuffled[j], shuffled[i] })
	for i := range shuffled {
		shuffled[i].Weight = int64(1 + i%3)
	}
	odd := func() func(core.Scenario) bool {
		k := 0
		return func(core.Scenario) bool { k++; return k%2 == 1 }
	}
	crash := func(n, tf int) Source {
		pats, err := Crash(n, tf, tf+2)
		if err != nil {
			t.Fatal(err)
		}
		src, err := CrossInits(pats, n)
		if err != nil {
			t.Fatal(err)
		}
		return src
	}
	sources := map[string]func() Source{
		"filter":      func() Source { return Filter(soSweep(t, 3, 1, 3), odd()) },
		"slice":       func() Source { return FromSlice(shuffled) },
		"random":      func() Source { return RandomScenarios(rand.New(rand.NewSource(29)), 4, 2, 3, 0.4, 2000) },
		"random-5":    func() Source { return RandomScenarios(rand.New(rand.NewSource(31)), 5, 1, 3, 0.2, 2000) },
		"so-n3-t1":    func() Source { return soSweep(t, 3, 1, 3) },
		"so-n4-t1":    func() Source { return soSweep(t, 4, 1, 3) },
		"so-n5-t1":    func() Source { return soSweep(t, 5, 1, 3) },
		"so-n3-t2":    func() Source { return soSweep(t, 3, 2, 4) },
		"crash-n3-t2": func() Source { return crash(3, 2) },
		"crash-n4-t2": func() Source { return crash(4, 2) },
	}
	if raceEnabled {
		// 2.2M one-shot canonicalizations on one goroutine: ≈90 s under
		// the detector, which has nothing to watch here. Plain runs keep them.
		delete(sources, "so-n5-t1")
		delete(sources, "so-n3-t2")
	}
	for name, mk := range sources {
		// The filter streams beside the quotient: the largest products
		// hold 1.6M scenarios.
		got, full := Quotient(mk()), mk()
		var gotKey, wantKey []byte
		kept := 0
		for sc, ok := full.Next(); ok; sc, ok = full.Next() {
			orbit, canonical := model.IsCanonicalScenario(sc.Pattern, sc.Inits)
			if !canonical {
				continue
			}
			g, ok := got.Next()
			if !ok {
				t.Fatalf("%s: quotient ended after %d survivors, the one-shot filter keeps more", name, kept)
			}
			gotKey = model.AppendScenarioKey(gotKey[:0], g.Pattern, g.Inits)
			wantKey = model.AppendScenarioKey(wantKey[:0], sc.Pattern, sc.Inits)
			if string(gotKey) != string(wantKey) || g.Weight != sc.EffectiveWeight()*orbit {
				t.Fatalf("%s: survivor %d is %s weight %d, want %s weight %d", name, kept,
					gotKey, g.Weight, wantKey, sc.EffectiveWeight()*orbit)
			}
			kept++
		}
		if g, ok := got.Next(); ok {
			t.Fatalf("%s: the one-shot filter keeps %d scenarios, the quotient more: %s", name, kept,
				model.AppendScenarioKey(nil, g.Pattern, g.Inits))
		}
		if kept == 0 {
			t.Fatalf("%s: no survivors", name)
		}
	}
}
