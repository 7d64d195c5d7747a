package source

import (
	"context"
	"math/rand"
	"testing"

	"repro/internal/adversary"
	"repro/internal/core"
	"repro/internal/model"
)

// collectAll drains a source without the Collect bound check, for tests.
func collectAll(t *testing.T, src Source) []core.Scenario {
	t.Helper()
	var out []core.Scenario
	for sc, ok := src.Next(); ok; sc, ok = src.Next() {
		out = append(out, sc)
	}
	return out
}

// eagerSOScenarios is the eager-slice generation the sources replace:
// every SO pattern × every init vector, materialized up front.
func eagerSOScenarios(n, t, horizon int) []core.Scenario {
	var out []core.Scenario
	pats, err := adversary.NewSOPatterns(n, t, horizon, adversary.Options{})
	if err != nil {
		panic(err)
	}
	for pat, ok := pats.Next(); ok; pat, ok = pats.Next() {
		p := pat.Clone()
		iv, err := adversary.NewInitVectors(n)
		if err != nil {
			panic(err)
		}
		for inits, ok2 := iv.Next(); ok2; inits, ok2 = iv.Next() {
			out = append(out, core.Scenario{Pattern: p, Inits: append([]model.Value(nil), inits...)})
		}
	}
	return out
}

// TestCrossInitsMatchesEagerEnumeration checks the streaming product
// yields exactly the eager slice: same scenarios, same order, correct
// count.
func TestCrossInitsMatchesEagerEnumeration(t *testing.T) {
	n, tf, horizon := 3, 1, 2
	want := eagerSOScenarios(n, tf, horizon)

	pats, err := SO(n, tf, horizon, adversary.Options{})
	if err != nil {
		t.Fatal(err)
	}
	src, err := CrossInits(pats, n)
	if err != nil {
		t.Fatal(err)
	}
	if c, ok := src.Count(); !ok || c != int64(len(want)) {
		t.Fatalf("Count = %d/%v, want %d/true", c, ok, len(want))
	}
	got := collectAll(t, src)
	if len(got) != len(want) {
		t.Fatalf("source yielded %d scenarios, eager slice has %d", len(got), len(want))
	}
	for k := range want {
		if got[k].Pattern.Key() != want[k].Pattern.Key() {
			t.Fatalf("scenario %d: patterns differ", k)
		}
		for i := range want[k].Inits {
			if got[k].Inits[i] != want[k].Inits[i] {
				t.Fatalf("scenario %d: inits differ at agent %d", k, i)
			}
		}
	}
}

// TestCrossInitsClonesPatterns checks scenarios stay valid after the
// underlying iterator has moved on — the retention bug lazy pattern reuse
// would otherwise cause.
func TestCrossInitsClonesPatterns(t *testing.T) {
	pats, err := SO(3, 1, 2, adversary.Options{})
	if err != nil {
		t.Fatal(err)
	}
	src, err := CrossInits(pats, 3)
	if err != nil {
		t.Fatal(err)
	}
	scenarios := collectAll(t, src)
	keys := make(map[string]bool)
	for _, sc := range scenarios {
		keys[sc.Pattern.Key()] = true
	}
	// 49 distinct patterns (see the adversary tests), each appearing for
	// 2^3 init vectors.
	if len(keys) != 49 || len(scenarios) != 49*8 {
		t.Fatalf("%d distinct patterns over %d scenarios, want 49 over %d", len(keys), len(scenarios), 49*8)
	}
}

// TestRandomScenariosMatchesEagerLoop checks the lazy random source draws
// from the rng exactly as the experiments' eager loops do.
func TestRandomScenariosMatchesEagerLoop(t *testing.T) {
	n, tf, horizon, drop, count := 5, 2, 4, 0.45, 20

	eagerRng := rand.New(rand.NewSource(99))
	var want []core.Scenario
	for k := 0; k < count; k++ {
		pat := adversary.RandomSO(eagerRng, n, tf, horizon, drop)
		inits := make([]model.Value, n)
		for i := range inits {
			inits[i] = model.Value(eagerRng.Intn(2))
		}
		want = append(want, core.Scenario{Pattern: pat, Inits: inits})
	}

	lazyRng := rand.New(rand.NewSource(99))
	got := collectAll(t, RandomScenarios(lazyRng, n, tf, horizon, drop, int64(count)))
	if len(got) != count {
		t.Fatalf("source yielded %d scenarios, want %d", len(got), count)
	}
	for k := range want {
		if got[k].Pattern.Key() != want[k].Pattern.Key() {
			t.Fatalf("scenario %d: patterns differ", k)
		}
		for i := range want[k].Inits {
			if got[k].Inits[i] != want[k].Inits[i] {
				t.Fatalf("scenario %d: inits differ at agent %d", k, i)
			}
		}
	}
}

// TestLimitAndUnbounded checks Limit bounds an unbounded generator and
// fixes up counts.
func TestLimitAndUnbounded(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	unbounded := RandomScenarios(rng, 4, 1, 3, 0.3, -1)
	if _, ok := unbounded.Count(); ok {
		t.Fatal("unbounded source claims a count")
	}
	limited := Limit(unbounded, 7)
	// The truncated count stays unknown: an unknown-size source may end
	// before the limit (e.g. under Filter), so Limit cannot promise 7.
	if c, ok := limited.Count(); ok {
		t.Fatalf("Limit over unknown-size source claims count %d", c)
	}
	if got := collectAll(t, limited); len(got) != 7 {
		t.Fatalf("limited source yielded %d scenarios, want 7", len(got))
	}
	// Limit of a shorter bounded source reports the smaller count.
	short := Limit(FromSlice(make([]core.Scenario, 3)), 10)
	if c, ok := short.Count(); !ok || c != 3 {
		t.Fatalf("Limit over short slice count = %d/%v, want 3/true", c, ok)
	}
	// A negative limit is an empty source, never a negative count.
	empty := Limit(FromSlice(make([]core.Scenario, 3)), -1)
	if c, ok := empty.Count(); !ok || c != 0 {
		t.Fatalf("Limit(-1) count = %d/%v, want 0/true", c, ok)
	}
	if scs, err := Collect(empty); err != nil || len(scs) != 0 {
		t.Fatalf("Collect(Limit(-1)) = %d scenarios, err %v", len(scs), err)
	}
	// Count is the immutable total, not the remaining budget: it must not
	// shrink as the source drains (RunSource re-checks it after draining).
	drained := Limit(FromSlice(make([]core.Scenario, 9)), 5)
	for _, ok := drained.Next(); ok; _, ok = drained.Next() {
	}
	if c, ok := drained.Count(); !ok || c != 5 {
		t.Fatalf("Count after draining = %d/%v, want 5/true", c, ok)
	}
}

// TestFilter keeps only failure-free scenarios and checks the count is
// reported unknown.
func TestFilter(t *testing.T) {
	pats, err := SO(3, 1, 2, adversary.Options{})
	if err != nil {
		t.Fatal(err)
	}
	src, err := CrossInits(pats, 3)
	if err != nil {
		t.Fatal(err)
	}
	filtered := Filter(src, func(sc core.Scenario) bool { return sc.Pattern.NumFaulty() == 0 })
	if _, ok := filtered.Count(); ok {
		t.Fatal("filtered source claims a count")
	}
	got := collectAll(t, filtered)
	// Only the failure-free pattern survives: 2^3 init vectors.
	if len(got) != 8 {
		t.Fatalf("filter kept %d scenarios, want 8", len(got))
	}
}

// TestCollect checks round-tripping through Collect/FromSlice and the
// unbounded refusal.
func TestCollect(t *testing.T) {
	pats, err := Crash(3, 1, 2)
	if err != nil {
		t.Fatal(err)
	}
	src := WithInits(pats, adversary.UniformInits(3, model.One))
	scenarios, err := Collect(src)
	if err != nil {
		t.Fatal(err)
	}
	if len(scenarios) != 22 {
		t.Fatalf("collected %d crash scenarios, want 22", len(scenarios))
	}
	replay := collectAll(t, FromSlice(scenarios))
	for k := range scenarios {
		if replay[k].Pattern != scenarios[k].Pattern {
			t.Fatalf("FromSlice reordered scenario %d", k)
		}
	}
	if _, err := Collect(RandomScenarios(rand.New(rand.NewSource(1)), 3, 1, 2, 0.5, -1)); err == nil {
		t.Fatal("Collect accepted an unbounded source")
	}
}

// TestSourceDrivesRunner is the integration check at the package level: a
// lazy exhaustive sweep through Runner.StreamFrom equals the eager
// RunBatch over the same scenarios.
func TestSourceDrivesRunner(t *testing.T) {
	n, tf := 3, 1
	st := core.MustStack("min", core.WithN(n), core.WithT(tf))
	runner := core.NewRunner(st, core.WithParallelism(4))

	eager := eagerSOScenarios(n, tf, st.Horizon())
	want, err := runner.RunBatch(context.Background(), eager)
	if err != nil {
		t.Fatal(err)
	}

	pats, err := SO(n, tf, st.Horizon(), adversary.Options{})
	if err != nil {
		t.Fatal(err)
	}
	src, err := CrossInits(pats, n)
	if err != nil {
		t.Fatal(err)
	}
	got, err := runner.RunSource(context.Background(), src)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("source run returned %d results, batch %d", len(got), len(want))
	}
	for k := range want {
		if want[k].Stats != got[k].Stats {
			t.Fatalf("result %d: stats differ", k)
		}
		for i := range want[k].Decision {
			if want[k].Decision[i] != got[k].Decision[i] || want[k].DecisionRound[i] != got[k].DecisionRound[i] {
				t.Fatalf("result %d: decision ledger differs for agent %d", k, i)
			}
		}
	}
}
