package episteme

import (
	"context"
	"fmt"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/action"
	"repro/internal/exchange"
	"repro/internal/model"
)

// The tests below pin the time-Horizon layer's deferral (index.go,
// lastLayer) and pass 1's parallel batches (quotient.go, mapOrbits).

// TestLastLayerInternedOnceOnFirstRead: the index kernel asks a producer
// for its time-Horizon slots only when something reads one, and then once,
// however many readers race to it.
func TestLastLayerInternedOnceOnFirstRead(t *testing.T) {
	const n, horizon, nRuns = 3, 2, 40
	var asked [(horizon + 1) * n]atomic.Int32
	sys, err := literalSystem(n, horizon, nRuns, 2).indexed(context.Background(), &indexFrame{}, func(slot int) slotRows {
		asked[slot].Add(1)
		return perRow(nRuns, func(g int) (string, error) { return fmt.Sprint(slot/n, g%(slot+2)), nil })
	})
	if err != nil {
		t.Fatal(err)
	}
	for slot := range asked {
		want := int32(0)
		if slot < horizon*n {
			want = 1
		}
		if got := asked[slot].Load(); got != want {
			t.Fatalf("slot %d: producer asked %d times before any read, want %d", slot, got, want)
		}
	}
	var wg sync.WaitGroup
	for k := 0; k < 8; k++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			i := model.AgentID(k % n)
			if got, want := sys.Key(i, Point{Run: k, Time: horizon}), fmt.Sprint(horizon, k%(horizon*n+int(i)+2)); got != want {
				t.Errorf("Key(%d, run %d, time Horizon) = %q, want %q", i, k, got, want)
			}
		}()
	}
	wg.Wait()
	for slot := range asked {
		if got := asked[slot].Load(); got != 1 {
			t.Errorf("slot %d: producer asked %d times, want once", slot, got)
		}
	}
	if indexOf(sys).lastRows != nil {
		t.Error("the producer's rows outlive the layer they describe")
	}
}

// expandFIP4 builds fip n=4,t=1 through the quotient over ex, whose key
// rewrites it may count.
func expandFIP4(t *testing.T, ex model.Exchange, par int) *System {
	t.Helper()
	sys, err := BuildSystem(context.Background(), Context{Exchange: ex, T: 1}, action.NewOpt(1), WithParallelism(par))
	if err != nil {
		t.Fatal(err)
	}
	return sys
}

// TestExpandedLastLayerDeferred: Theorem A.21's check on fip n=4 never
// reads the time-Horizon layer, so after ExpandQuotient and
// CheckImplements(P1) it is not interned. Eight goroutines then make first
// reads at time Horizon — Knows, KnowsCK, Key and CheckSafety — and the
// layer is built once: it takes exactly the key rewrites a lone reader's
// build takes. The system is then the per-run build's.
func TestExpandedLastLayerDeferred(t *testing.T) {
	ctx := context.Background()
	c := Context{Exchange: exchange.NewFIP(4), T: 1}
	want, err := BuildSystem(ctx, perRunContext(c), action.NewOpt(1), WithParallelism(2))
	if err != nil {
		t.Fatal(err)
	}
	wantSafety := checkSafety(t, want, 20)

	lone := &countingPermuter{FIP: exchange.NewFIP(4)}
	ref := expandFIP4(t, lone, 2)
	before := lone.rewrites.Load()
	indexOf(ref).lastLayer()
	once := lone.rewrites.Load() - before
	if once == 0 {
		t.Fatal("interning the last layer rewrote no key; the count cannot tell one build from two")
	}

	ex := &countingPermuter{FIP: exchange.NewFIP(4)}
	sys := expandFIP4(t, ex, 2)
	if ms := checkImplements(t, sys, P1, 5); len(ms) != 0 {
		t.Fatalf("CheckImplements(P1) = %v", ms)
	}
	for slot := sys.Horizon * sys.N; slot < len(indexOf(sys).slots); slot++ {
		if indexOf(sys).slots[slot].ids.words != nil || indexOf(sys).slots[slot].keys.off != nil || indexOf(sys).lastRows == nil {
			t.Fatalf("slot %d is interned after ExpandQuotient and CheckImplements(P1)", slot)
		}
	}

	before = ex.rewrites.Load()
	var wg sync.WaitGroup
	for k := 0; k < 8; k++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			i := model.AgentID(k % sys.N)
			p := Point{Run: k * 4099 % len(sys.Runs), Time: sys.Horizon}
			switch k % 4 {
			case 0:
				phi := func(q Point) bool { return q.Run != p.Run+1 }
				if got, w := sys.Knows(i, p, phi), want.Knows(i, p, phi); got != w {
					t.Errorf("Knows(%d, %v) = %v, per-run build %v", i, p, got, w)
				}
			case 1:
				if got, w := sys.KnowsCK(i, p, model.One), want.KnowsCK(i, p, model.One); got != w {
					t.Errorf("KnowsCK(%d, %v) = %v, per-run build %v", i, p, got, w)
				}
			case 2:
				if got, w := sys.Key(i, p), want.Key(i, p); got != w {
					t.Errorf("Key(%d, %v) = %q, per-run build %q", i, p, got, w)
				}
			case 3:
				got, err := sys.CheckSafety(ctx, 20)
				if err != nil || !slices.Equal(got, wantSafety) {
					t.Errorf("CheckSafety = %v, %v; per-run build %v", got, err, wantSafety)
				}
			}
		}()
	}
	wg.Wait()
	if got := ex.rewrites.Load() - before; got != once {
		t.Errorf("eight first readers made %d key rewrites, one build makes %d", got, once)
	}
	compareSystems(t, "fip n=4", sys, want)
}

// TestExpandQuotientRefusesDoctoredLastKey: a representative time-Horizon
// class key that is not a key of the exchange is refused by ExpandQuotient
// itself, with the same error at every worker count, although the slice it
// would land in is interned only on first read.
func TestExpandQuotientRefusesDoctoredLastKey(t *testing.T) {
	ctx := context.Background()
	c := Context{Exchange: exchange.NewFIP(4), T: 1}
	idx, err := BuildShardIndex(ctx, c, action.NewOpt(1), 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	var want string
	for _, par := range []int{1, 2, 7} {
		rep, err := MergeSystems(ctx, []*ShardIndex{idx}, WithParallelism(par))
		if err != nil {
			t.Fatal(err)
		}
		indexOf(rep).lastLayer()
		doctored := &indexOf(rep).slots[rep.Horizon*rep.N+1].keys
		keys := stringsOf(*doctored)
		keys[0] = "doctored"
		*doctored = slabOf(keys)
		sys, err := ExpandQuotient(ctx, rep, c)
		if sys != nil || err == nil || !strings.HasPrefix(err.Error(), `episteme: expanding quotiented keys: graph: malformed key "doctored"`) {
			t.Fatalf("parallelism %d: ExpandQuotient of a doctored time-Horizon key = (system: %v, %v), want only the rewrite error", par, sys != nil, err)
		}
		if par == 1 {
			want = err.Error()
		} else if err.Error() != want {
			t.Fatalf("parallelism %d reports %q, parallelism 1 %q", par, err, want)
		}
	}
}

// TestExpandQuotientSameAtEveryParallelism: pass 1 canonicalizes and
// synthesizes over the representative system's workers in ordinal chunks;
// at 1, 2 and 7 workers the expansion is the same system, unit for unit,
// and a mismatched context is refused with the same error — the crash
// representatives expanded under SO(1) meet a scenario outside their set,
// the SO representatives expanded under crash count short.
func TestExpandQuotientSameAtEveryParallelism(t *testing.T) {
	ctx := context.Background()
	so := Context{Exchange: exchange.NewFIP(4), T: 1}
	crash := so
	crash.Crash = true
	act := action.NewOpt(1)
	var (
		want     *System
		wantErrs [2]string
	)
	for _, par := range []int{1, 2, 7} {
		sys := expandFIP4(t, so.Exchange, par)
		if want == nil {
			want = sys
		} else {
			compareSystems(t, fmt.Sprintf("parallelism %d", par), sys, want)
			if got, w := indexOf(sys).units, indexOf(want).units; !slices.Equal(got.prefix, w.prefix) || !slices.Equal(got.pats.rows, w.pats.rows) || !slices.Equal(got.pats.off, w.pats.off) {
				t.Fatalf("parallelism %d numbers the prefix units differently", par)
			}
		}
		for k, tc := range []struct {
			built, expanded Context
			prefix          string
		}{
			{crash, so, "episteme: scenario "},
			{so, crash, "episteme: representative "},
		} {
			idx, err := BuildShardIndex(ctx, tc.built, act, 0, 1)
			if err != nil {
				t.Fatal(err)
			}
			rep, err := MergeSystems(ctx, []*ShardIndex{idx}, WithParallelism(par))
			if err != nil {
				t.Fatal(err)
			}
			sys, err := ExpandQuotient(ctx, rep, tc.expanded)
			if sys != nil || err == nil || !strings.HasPrefix(err.Error(), tc.prefix) || !strings.HasSuffix(err.Error(), "(context mismatch?)") {
				t.Fatalf("parallelism %d, case %d: ExpandQuotient = (system: %v, %v), want only a context-mismatch error starting %q", par, k, sys != nil, err, tc.prefix)
			}
			if par == 1 {
				wantErrs[k] = err.Error()
			} else if err.Error() != wantErrs[k] {
				t.Fatalf("parallelism %d, case %d reports %q, parallelism 1 %q", par, k, err, wantErrs[k])
			}
		}
	}
}
