package episteme

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"runtime"
	"slices"
	"strings"
	"sync/atomic"
	"testing"
	"unsafe"

	"repro/internal/action"
	"repro/internal/engine"
	"repro/internal/exchange"
	"repro/internal/model"
)

// compareSystems fails the test unless the two systems are structurally
// identical: shapes, every run's ledger read through the labelling, and
// the full interned index
// (class ids, member lists, keys). Field-by-field
// rather than fingerprint strings so the n=4 comparison (32,784 runs)
// stays cheap. Class ids and member lists are read run by run through
// the accessors, so a time-layered system and a per-run one compare equal
// exactly when they answer alike. Both systems' time-Horizon layers are
// interned first, so the tables compared are whole.
func compareSystems(t *testing.T, label string, got, want *System) {
	t.Helper()
	indexOf(got).lastLayer()
	indexOf(want).lastLayer()
	if got.N != want.N || got.T != want.T || got.Horizon != want.Horizon {
		t.Fatalf("%s: shape (%d,%d,%d), want (%d,%d,%d)", label, got.N, got.T, got.Horizon, want.N, want.T, want.Horizon)
	}
	if len(got.Runs) != len(want.Runs) {
		t.Fatalf("%s: %d runs, want %d", label, len(got.Runs), len(want.Runs))
	}
	var g, w engine.Result
	for r := range got.Runs {
		got.Ledger(r, &g)
		want.Ledger(r, &w)
		if g.Pattern.Key() != w.Pattern.Key() {
			t.Fatalf("%s: run %d patterns differ", label, r)
		}
		if !slices.Equal(g.Inits, w.Inits) || !slices.Equal(g.Decision, w.Decision) ||
			!slices.Equal(g.DecisionRound, w.DecisionRound) || !slices.EqualFunc(g.Actions, w.Actions, slices.Equal) ||
			g.Stats != w.Stats {
			t.Fatalf("%s: run %d ledgers differ", label, r)
		}
	}
	gotKeys, wantKeys := keysOf(got), keysOf(want)
	if len(gotKeys) != len(wantKeys) {
		t.Fatalf("%s: %d index slots, want %d", label, len(gotKeys), len(wantKeys))
	}
	for slot := range wantKeys {
		if len(gotKeys[slot]) != len(wantKeys[slot]) {
			t.Fatalf("%s: slot %d has %d classes, want %d", label, slot, len(gotKeys[slot]), len(wantKeys[slot]))
		}
		for c := range wantKeys[slot] {
			if gotKeys[slot][c] != wantKeys[slot][c] {
				t.Fatalf("%s: slot %d class %d key differs:\n got %q\nwant %q",
					label, slot, c, gotKeys[slot][c], wantKeys[slot][c])
			}
		}
		i, m := model.AgentID(slot%want.N), slot/want.N
		for r := range want.Runs {
			if g, w := got.classAt(i, m, r), want.classAt(i, m, r); g != w {
				t.Fatalf("%s: slot %d run %d class %d, want %d", label, slot, r, g, w)
			}
		}
		for c := range wantKeys[slot] {
			gr, wr := got.runsOfClass(i, m, int32(c)), want.runsOfClass(i, m, int32(c))
			if len(gr) != len(wr) {
				t.Fatalf("%s: slot %d class %d has %d members, want %d", label, slot, c, len(gr), len(wr))
			}
			for k := range wr {
				if gr[k] != wr[k] {
					t.Fatalf("%s: slot %d class %d member %d is run %d, want %d", label, slot, c, k, gr[k], wr[k])
				}
			}
		}
	}
}

// buildMergedQuotient builds the K shard indexes of an exchange the
// checker quotients, round-trips each through its JSON serialization,
// merges, and expands.
func buildMergedQuotient(t *testing.T, c Context, act model.ActionProtocol, k int) *System {
	t.Helper()
	shards := make([]*ShardIndex, k)
	for i := 0; i < k; i++ {
		idx, err := BuildShardIndex(context.Background(), c, act, i, k, WithParallelism(2))
		if err != nil {
			t.Fatalf("BuildShardIndex %d/%d: %v", i, k, err)
		}
		if !idx.Quotient {
			t.Fatalf("BuildShardIndex %d/%d: an unquotiented index over a KeyPermuter exchange", i, k)
		}
		var buf bytes.Buffer
		if err := WriteShardIndex(&buf, idx); err != nil {
			t.Fatal(err)
		}
		rt, err := ReadShardIndex(&buf)
		if err != nil {
			t.Fatal(err)
		}
		if rt.Digest() != idx.Digest() {
			t.Fatalf("shard %d/%d: serialization round-trip changed the digest", i, k)
		}
		shards[(i+1)%k] = rt
	}
	rep, err := MergeSystems(context.Background(), shards, WithParallelism(2))
	if err != nil {
		t.Fatalf("MergeSystems k=%d: %v", k, err)
	}
	if !rep.Quotiented() {
		t.Fatalf("k=%d: merge of quotiented shards is not quotiented", k)
	}
	sys, err := ExpandQuotient(context.Background(), rep, c)
	if err != nil {
		t.Fatalf("ExpandQuotient k=%d: %v", k, err)
	}
	return sys
}

// TestQuotientSystemBitIdentical is the tentpole acceptance bar for the
// model checker: for every exchange it quotients — fip against P1, min and
// basic against P0 — at n=3 and n=4 (t=1), the quotiented build —
// unsharded (BuildSystem) and sharded K ∈ {1,2,3} (BuildShardIndex +
// MergeSystems + ExpandQuotient) — yields a System whose runs, interned
// index, and every verdict are bit-identical to the per-run build's: the
// same exchange with its KeyPermuter hidden, every scenario executed. The
// n=2 rows are min's and basic's n−t = 1 boundary, where P0 is not
// implemented: the quotient must list the per-run build's mismatches.
func TestQuotientSystemBitIdentical(t *testing.T) {
	type stack struct {
		name string
		ex   func(n int) model.Exchange
		act  func(n, t int) model.ActionProtocol
		prog Program
	}
	fip := stack{"fip", func(n int) model.Exchange { return exchange.NewFIP(n) },
		func(_, t int) model.ActionProtocol { return action.NewOpt(t) }, P1}
	min := stack{"min", func(n int) model.Exchange { return exchange.NewMin(n) },
		func(_, t int) model.ActionProtocol { return action.NewMin(t) }, P0}
	basic := stack{"basic", func(n int) model.Exchange { return exchange.NewBasic(n) },
		func(n, _ int) model.ActionProtocol { return action.NewBasic(n) }, P0}
	naive := stack{"naive", func(n int) model.Exchange { return exchange.NewFIP(n) },
		func(_, t int) model.ActionProtocol { return action.NewNaive(t) }, P1}
	for _, tc := range []struct {
		stack
		n int
		// The protocol does not implement prog: at the n−t = 1 boundary it
		// decides a round late, and naive implements no program.
		fails bool
	}{
		{fip, 3, false}, {fip, 4, false},
		{min, 2, true}, {min, 3, false}, {min, 4, false},
		{basic, 2, true}, {basic, 3, false}, {basic, 4, false},
		{naive, 3, true},
	} {
		n := tc.n
		// fip's rows keep the names they had when only fip quotiented.
		name := fmt.Sprintf("n%d", n)
		if tc.name != "fip" {
			name = tc.name + "-" + name
		}
		t.Run(name, func(t *testing.T) {
			c := Context{Exchange: tc.ex(n), T: 1}
			act := tc.act(n, 1)
			full, err := BuildSystem(context.Background(), perRunContext(c), act, WithParallelism(2))
			if err != nil {
				t.Fatalf("per-run BuildSystem: %v", err)
			}
			if indexOf(full).units != nil {
				t.Fatal("the reference build went through the quotient")
			}
			wantImpl := checkImplements(t, full, tc.prog, 50)
			if (len(wantImpl) != 0) != tc.fails {
				t.Fatalf("the per-run build lists %d mismatches against %v, want mismatches %v", len(wantImpl), tc.prog, tc.fails)
			}
			wantSafety := checkSafety(t, full, 50)
			// CheckOptimalityFIP costs ~30s per n=4 system (⊡-reachability
			// over 32,784 runs); compareSystems below pins the runs and the
			// full interned index bit-identical, and every checker is a pure
			// function of those, so running it at n=3 plus the two cheap
			// checkers at both sizes keeps the differential complete without
			// the 30s-per-variant bill.
			checkOpt := tc.prog == P1 && n <= 3
			var wantOpt []string
			if checkOpt {
				wantOpt = checkOptimality(t, full, -1, 50)
			}

			systems := map[string]*System{
				"quotient-unsharded": nil,
			}
			quot, err := BuildSystem(context.Background(), c, act, WithParallelism(2))
			if err != nil {
				t.Fatalf("BuildSystem: %v", err)
			}
			if indexOf(quot).units == nil {
				t.Fatalf("BuildSystem over %s did not go through the quotient", tc.name)
			}
			systems["quotient-unsharded"] = quot
			for k := 1; k <= 3; k++ {
				systems[fmt.Sprintf("quotient-k%d", k)] = buildMergedQuotient(t, c, act, k)
			}

			for label, sys := range systems {
				compareSystems(t, label, sys, full)
				if gotImpl := checkImplements(t, sys, tc.prog, 50); fmt.Sprint(gotImpl) != fmt.Sprint(wantImpl) {
					t.Fatalf("%s: CheckImplements differs:\n got %v\nwant %v", label, gotImpl, wantImpl)
				}
				if gotSafety := checkSafety(t, sys, 50); fmt.Sprint(gotSafety) != fmt.Sprint(wantSafety) {
					t.Fatalf("%s: CheckSafety differs:\n got %v\nwant %v", label, gotSafety, wantSafety)
				}
				if checkOpt {
					if gotOpt := checkOptimality(t, sys, -1, 50); fmt.Sprint(gotOpt) != fmt.Sprint(wantOpt) {
						t.Fatalf("%s: CheckOptimalityFIP differs:\n got %v\nwant %v", label, gotOpt, wantOpt)
					}
				}
			}
		})
	}
}

// startCounter counts the runs an exchange is asked to start.
type startCounter struct {
	model.Exchange
	starts atomic.Int64
}

func (e *startCounter) Initial(i model.AgentID, init model.Value) model.State {
	e.starts.Add(1)
	return e.Exchange.Initial(i, init)
}

// TestQuotientRequiresKeyPermuter: an exchange without model.KeyPermuter
// — here min and basic with the method hidden by startCounter, which
// embeds only model.Exchange — has keys the expansion cannot carry across
// an agent relabeling, so every builder, cached or not, runs its sweep
// scenario by scenario — the stripes hold all 1,544 runs of n=3,t=1
// between them, not the 276 orbit representatives, the index says so on
// the wire, and nothing needs expanding — while ExpandQuotient, handed
// such a context, still refuses with the KeyPermuter sentence rather than
// mis-intern.
func TestQuotientRequiresKeyPermuter(t *testing.T) {
	const scenarios = 1544
	for _, tc := range []struct {
		name string
		ex   model.Exchange
		act  model.ActionProtocol
	}{
		{"min", exchange.NewMin(3), action.NewMin(1)},
		{"basic", exchange.NewBasic(3), action.NewBasic(3)},
	} {
		name, act := tc.name, tc.act
		counted := &startCounter{Exchange: tc.ex}
		c := Context{Exchange: counted, T: 1}
		_, err := ExpandQuotient(context.Background(), &System{weights: []int64{}}, c)
		if err == nil || !strings.Contains(err.Error(), "does not implement model.KeyPermuter") {
			t.Fatalf("%s: ExpandQuotient refuses with %v", name, err)
		}
		if n := counted.starts.Load(); n != 0 {
			t.Errorf("%s: %d agent states were initialised before the refusal", name, n)
		}

		store := newTestStore()
		for _, cached := range []bool{false, true} {
			label, opts := "", []Option(nil)
			if cached {
				label, opts = " with a cache", []Option{WithCache(store, "fp")}
			}
			runs := 0
			for i := 0; i < 2; i++ {
				idx, err := BuildShardIndex(context.Background(), c, act, i, 2, opts...)
				if err != nil {
					t.Fatalf("%s, BuildShardIndex%s: %v", name, label, err)
				}
				var wire bytes.Buffer
				if err := WriteShardIndex(&wire, idx); err != nil {
					t.Fatal(err)
				}
				if idx.Quotient || idx.Mults != nil || bytes.Contains(wire.Bytes(), []byte(`"quotient"`)) {
					t.Errorf("%s, BuildShardIndex%s: stripe %d/2 is quotiented", name, label, i)
				}
				runs += len(idx.Runs)
			}
			if runs != scenarios {
				t.Errorf("%s, BuildShardIndex%s: the stripes hold %d runs, the sweep has %d", name, label, runs, scenarios)
			}
			sys, err := BuildSystem(context.Background(), c, act, opts...)
			if err != nil {
				t.Fatalf("%s, BuildSystem%s: %v", name, label, err)
			}
			if sys.Quotiented() || indexOf(sys).units != nil || len(sys.Runs) != scenarios {
				t.Errorf("%s, BuildSystem%s: %d runs (quotiented %v, layered %v), want %d per-run",
					name, label, len(sys.Runs), sys.Quotiented(), indexOf(sys).units != nil, scenarios)
			}
		}
		for key, val := range store.m {
			if bytes.Contains(val, []byte(`"quotient"`)) {
				t.Errorf("%s: cache entry %s holds a quotiented index", name, key)
			}
		}
	}
}

// TestCheckersRefuseQuotientedSystem: an unexpanded representative
// system must not be checkable — its verdicts would quantify over one
// run per orbit.
func TestCheckersRefuseQuotientedSystem(t *testing.T) {
	c := fipContext31()
	act := action.NewOpt(1)
	idx, err := BuildShardIndex(context.Background(), c, act, 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := MergeSystems(context.Background(), []*ShardIndex{idx})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := rep.CheckImplements(context.Background(), P1, 1); err == nil {
		t.Error("CheckImplements ran on a quotiented system")
	}
	if _, err := rep.CheckSafety(context.Background(), 1); err == nil {
		t.Error("CheckSafety ran on a quotiented system")
	}
	if _, err := rep.CheckOptimalityFIP(context.Background(), -1, 1); err == nil {
		t.Error("CheckOptimalityFIP ran on a quotiented system")
	}
}

// TestExpandQuotientRejects pins the expansion's guard rails: expanding
// a non-quotiented system, expanding under a mismatched context, and
// expanding representatives the table cannot hold all fail loudly.
func TestExpandQuotientRejects(t *testing.T) {
	c := fipContext31()
	act := action.NewOpt(1)
	full, err := BuildSystem(context.Background(), c, act)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ExpandQuotient(context.Background(), full, c); err == nil {
		t.Error("ExpandQuotient accepted a non-quotiented system")
	}

	idx, err := BuildShardIndex(context.Background(), c, act, 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := MergeSystems(context.Background(), []*ShardIndex{idx})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ExpandQuotient(context.Background(), rep, Context{Exchange: exchange.NewFIP(4), T: 1}); err == nil {
		t.Error("ExpandQuotient accepted a context with the wrong n")
	}
	if _, err := ExpandQuotient(context.Background(), rep, Context{Exchange: exchange.NewFIP(3), T: 2}); err == nil {
		t.Error("ExpandQuotient accepted a context with the wrong t")
	}

	// The representative table refuses a representative listed twice,
	// before any scenario is read.
	refuses := func(label, want string, rep *System, c Context) {
		t.Helper()
		if sys, err := ExpandQuotient(context.Background(), rep, c); err == nil || !strings.Contains(err.Error(), want) {
			t.Errorf("%s: ExpandQuotient returned a system %v and error %v, want only an error containing %q", label, sys != nil, err, want)
		}
	}
	second := rep.Runs[1]
	rep.Runs[1] = rep.Runs[0]
	refuses("a representative twice", "carries representative", rep, c)
	rep.Runs[1] = second

	// The crash system's representatives are crash patterns, so the first
	// SO scenario that is none has no representative pattern in the table.
	crash := Context{Exchange: exchange.NewFIP(3), T: 1, Crash: true}
	idx, err = BuildShardIndex(context.Background(), crash, act, 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	crashRep, err := MergeSystems(context.Background(), []*ShardIndex{idx})
	if err != nil {
		t.Fatal(err)
	}
	refuses("an SO scenario over crash representatives", "canonicalizes outside the representative set", crashRep, c)
}

// TestMapOrbitsMatchesOneShot holds pass 1's representative table to the
// definition it replaced: for every ordinal g of SO n=3,4 t=1, SO n=3,t=2
// (197,377 patterns, many chunks per worker) and crash n=3,4 t=2, at
// parallelism 1, 2 and 7, mapOrbits' representative and relabeling of g
// (orbitMap.rep) are what the one-shot model.CanonicalizeScenarioPerm and
// a lookup of the representative's scenario fingerprint give, and its run
// holds g's own pattern and inits. SO n=3,t=2 is skipped under -short and
// -race.
func TestMapOrbitsMatchesOneShot(t *testing.T) {
	ctx := context.Background()
	for _, c := range []Context{
		{Exchange: exchange.NewFIP(3), T: 1},
		{Exchange: exchange.NewFIP(4), T: 1},
		{Exchange: exchange.NewMin(3), T: 2},
		{Exchange: exchange.NewFIP(3), T: 2, Crash: true},
		{Exchange: exchange.NewFIP(4), T: 2, Crash: true},
	} {
		n := c.Exchange.N()
		if n == 3 && c.T == 2 && !c.Crash && (testing.Short() || raceEnabled) {
			continue
		}
		act := model.ActionProtocol(action.NewOpt(c.T))
		if c.Exchange.Name() == "Emin" {
			act = action.NewMin(c.T)
		}
		idx, err := BuildShardIndex(ctx, c, act, 0, 1)
		if err != nil {
			t.Fatal(err)
		}
		rep, err := MergeSystems(ctx, []*ShardIndex{idx})
		if err != nil {
			t.Fatal(err)
		}
		repOf := make(map[string]int32, len(rep.Runs))
		for r, res := range rep.Runs {
			repOf[string(model.AppendScenarioKey(nil, res.Pattern, initsOf(rep, r)))] = int32(r)
		}
		// The one-shot answer for each ordinal, its relabeling packed four
		// bits an agent, and each pattern's key.
		type answer struct{ r, bits, perm int32 }
		pack := func(perm []model.AgentID) (code int32) {
			for _, a := range perm {
				code = code<<4 | int32(a)
			}
			return code
		}
		var want []answer
		var keys []string
		src, err := c.scenarioSource(n, rep.Horizon)
		if err != nil {
			t.Fatal(err)
		}
		for sc, more := src.Next(); more; sc, more = src.Next() {
			repPat, repInits, _, perm := model.CanonicalizeScenarioPerm(sc.Pattern, sc.Inits)
			r, known := repOf[string(model.AppendScenarioKey(nil, repPat, repInits))]
			if !known {
				t.Fatalf("scenario %d has no representative", len(want))
			}
			bits, _ := initsBits(sc.Inits)
			if bits == 0 {
				keys = append(keys, sc.Pattern.Key())
			}
			want = append(want, answer{r, int32(bits), pack(perm)})
		}
		for _, par := range []int{1, 2, 7} {
			label := fmt.Sprintf("n=%d t=%d crash=%v parallelism %d", n, c.T, c.Crash, par)
			rep.par = par // pass 1's worker count
			om, err := mapOrbits(ctx, rep, c)
			if err != nil {
				t.Fatalf("%s: %v", label, err)
			}
			if len(om.code) != len(want) || len(om.runs) != len(want) {
				t.Fatalf("%s: the source has %d scenarios, the orbit map %d", label, len(want), len(om.code))
			}
			for g, w := range want {
				if gr, pid := om.rep(g); gr != w.r || pack(om.perms[pid]) != w.perm {
					t.Fatalf("%s: scenario %d maps to representative %d under %v, the one-shot search to %d under %x",
						label, g, gr, om.perms[pid], w.r, w.perm)
				}
				if run := om.runs[g]; run.inits != uint64(w.bits) || w.bits == 0 && run.Pattern.Key() != keys[g>>n] {
					t.Fatalf("%s: run %d holds pattern %s and inits %b, its scenario %s and %b", label, g, run.Pattern.Key(), run.inits, keys[g>>n], w.bits)
				}
			}
		}
	}
}

// cancelOnNthErr is a context that cancels itself, with a cause, the nth
// time something asks it whether it is done — a deterministic stand-in
// for a client that disconnects while the expansion is under way.
type cancelOnNthErr struct {
	context.Context
	cancel context.CancelCauseFunc
	cause  error
	left   atomic.Int32
}

func (c *cancelOnNthErr) Err() error {
	if c.left.Add(-1) == 0 {
		c.cancel(c.cause)
	}
	return c.Context.Err() //eba:ctxcause-ok this IS the context's Err method; callers read the cause through context.Cause
}

// countingPermuter counts the key rewrites of the wrapped exchange:
// ExpandQuotient only rewrites keys in pass 2.
type countingPermuter struct {
	*exchange.FIP
	rewrites atomic.Int64
}

func (e *countingPermuter) AppendPermuteKey(dst []byte, key []byte, perm []model.AgentID) ([]byte, error) {
	e.rewrites.Add(1)
	return e.FIP.AppendPermuteKey(dst, key, perm)
}

// TestExpandQuotientCancelsDuringEnumeration cancels the context while
// pass 1 is re-enumerating the n=4 sweep (at its second look, one
// 64-pattern chunk of 2,049 in): the expansion must stop there with the
// cause, without ever reaching pass 2's key rewriting.
func TestExpandQuotientCancelsDuringEnumeration(t *testing.T) {
	c := Context{Exchange: exchange.NewFIP(4), T: 1}
	idx, err := BuildShardIndex(context.Background(), c, action.NewOpt(1), 0, 1, WithParallelism(1))
	if err != nil {
		t.Fatal(err)
	}
	rep, err := MergeSystems(context.Background(), []*ShardIndex{idx}, WithParallelism(1))
	if err != nil {
		t.Fatal(err)
	}

	cause := errors.New("client went away")
	inner, cancel := context.WithCancelCause(context.Background())
	defer cancel(nil)
	ctx := &cancelOnNthErr{Context: inner, cancel: cancel, cause: cause}
	ctx.left.Store(2)
	ex := &countingPermuter{FIP: exchange.NewFIP(4)}

	sys, err := ExpandQuotient(ctx, rep, Context{Exchange: ex, T: 1})
	if !errors.Is(err, cause) || sys != nil {
		t.Fatalf("ExpandQuotient under a cancelled context = (%v, %v), want the cancellation cause", sys, err)
	}
	if n := ex.rewrites.Load(); n != 0 {
		t.Fatalf("expansion went on to rewrite %d keys after its context was cancelled mid-enumeration", n)
	}
}

// refusingPermuter fails every rewrite of one chosen key, naming the call
// in its error.
type refusingPermuter struct {
	*exchange.FIP
	refuse   string
	refusals atomic.Int64
}

func (e *refusingPermuter) AppendPermuteKey(dst []byte, key []byte, perm []model.AgentID) ([]byte, error) {
	if string(key) == e.refuse {
		e.refusals.Add(1)
		return dst, fmt.Errorf("refusing to rewrite %q under %v", key, perm)
	}
	return e.FIP.AppendPermuteKey(dst, key, perm)
}

// TestExpandQuotientReportsLowestFailingSlot: pass 2 shards over (time,
// agent) slots, and a key rewrite that fails in several of them must come
// back as one error — the lowest failing slot's first failure, wrapped,
// whatever the worker count — with no half-interned System beside it.
func TestExpandQuotientReportsLowestFailingSlot(t *testing.T) {
	c := Context{Exchange: exchange.NewFIP(4), T: 1}
	idx, err := BuildShardIndex(context.Background(), c, action.NewOpt(1), 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	// A time-1 key of agent 1: every relabeling that moves an agent onto 1
	// rewrites it, so the slots of several agents fail.
	var refuse string
	{
		rep, err := MergeSystems(context.Background(), []*ShardIndex{idx})
		if err != nil {
			t.Fatal(err)
		}
		refuse = string(indexOf(rep).slots[1*rep.N+1].keys.at(0))
	}
	var want string
	for _, par := range []int{1, 2, 7} {
		rep, err := MergeSystems(context.Background(), []*ShardIndex{idx}, WithParallelism(par))
		if err != nil {
			t.Fatal(err)
		}
		ex := &refusingPermuter{FIP: exchange.NewFIP(4), refuse: refuse}
		sys, err := ExpandQuotient(context.Background(), rep, Context{Exchange: ex, T: 1})
		if err == nil || sys != nil {
			t.Fatalf("parallelism %d: ExpandQuotient = (%v, %v), want only an error", par, sys, err)
		}
		if !strings.HasPrefix(err.Error(), "episteme: expanding quotiented keys: refusing to rewrite ") {
			t.Fatalf("parallelism %d: error %q is not the wrapped rewrite failure", par, err)
		}
		if par == 1 {
			// A slot stops at its first failure, so each refusal is a slot.
			if k := ex.refusals.Load(); k < 2 {
				t.Fatalf("%d slots failed; want several, so that which one is reported is a choice", k)
			}
			// The slot-by-slot serial pass defines the answer; the map-keyed
			// pass it replaced, failing on the same key, agrees.
			want = err.Error()
			om, err := mapOrbits(context.Background(), rep, c)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := oracleIntern(context.Background(), om, rep, ex); err == nil || err.Error() != want {
				t.Fatalf("the triple-map pass reports %v, the dense pass %q", err, want)
			}
		} else if err.Error() != want {
			t.Fatalf("parallelism %d reports %q, parallelism 1 %q", par, err, want)
		}
	}
}

// TestExpandedRunsOwnTheirInits: every run of an expanded fip n=3 system
// holds its own scenario's initial preferences, not its representative's,
// and the representatives read as before once expanded.
func TestExpandedRunsOwnTheirInits(t *testing.T) {
	c := Context{Exchange: exchange.NewFIP(3), T: 1}
	rep, err := buildStripe(context.Background(), c, action.NewOpt(1), 0, 1, buildOptions(c, []Option{WithParallelism(2)}))
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Quotiented() {
		t.Fatal("fip n=3 built unquotiented")
	}
	before := make([]string, len(rep.Runs))
	for r := range rep.Runs {
		before[r] = runLedger(rep, r)
	}
	sys, err := ExpandQuotient(context.Background(), rep, c)
	if err != nil {
		t.Fatal(err)
	}
	src, err := c.scenarioSource(sys.N, sys.Horizon)
	if err != nil {
		t.Fatal(err)
	}
	g := 0
	for sc, more := src.Next(); more; sc, more = src.Next() {
		if got := initsOf(sys, g); !slices.Equal(got, sc.Inits) {
			t.Fatalf("run %d holds inits %v, its scenario %v", g, got, sc.Inits)
		}
		g++
	}
	for r := range rep.Runs {
		if got := runLedger(rep, r); got != before[r] {
			t.Fatalf("representative %d reads %s after the expansion, %s before", r, got, before[r])
		}
	}
}

// fipN4Expander returns a function that expands fip n=4,t=1's 1,637
// representatives into a fresh 32,784-run System, once they have been
// expanded once: the first expansion interns the representatives' last
// layer.
func fipN4Expander(t *testing.T) func() *System {
	return n4Expander(t, exchange.NewFIP(4), action.NewOpt(1))
}

// n4Expander is fipN4Expander over any exchange with model.KeyPermuter
// and action protocol at n=4,t=1.
func n4Expander(t *testing.T, ex model.Exchange, act model.ActionProtocol) func() *System {
	t.Helper()
	c := Context{Exchange: ex, T: 1}
	ctx := context.Background()
	idx, err := BuildShardIndex(ctx, c, act, 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := MergeSystems(ctx, []*ShardIndex{idx}, WithParallelism(2))
	if err != nil {
		t.Fatal(err)
	}
	expand := func() *System {
		sys, err := ExpandQuotient(ctx, rep, c)
		if err != nil || len(sys.Runs) != 32784 {
			t.Fatalf("expanded %v runs, error %v; want 32784 runs", sys != nil && len(sys.Runs) == 32784, err)
		}
		return sys
	}
	expand()
	return expand
}

// bytesPerRun is what f allocates, over 32,784 runs.
func bytesPerRun(f func()) float64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	f()
	runtime.ReadMemStats(&after)
	return float64(after.TotalAlloc-before.TotalAlloc) / 32784
}

// TestExpandQuotientAllocCeiling holds the bytes one ExpandQuotient of fip
// n=4,t=1 allocates per expanded run, the first read of its last layer
// left out. An expanded run is three words (Run) over a ledger shared by
// content, its unit's class ids are packed at the bits their slot's class
// count needs, its member lists are made on first read, a slot's keys are
// one exact-sized slab found through the kernel's own key table, and pass
// 1 reads patterns, not scenarios, into no per-scenario buffer: 55–58 B.
// The ceiling sits about 12 % above that and below the ≈65 B a run cost
// with pass 1's scenario chunks and relabeling map, the ≈75 B with a key
// map and a string per class, and the ≈87 B with int32 class ids and
// member lists packed at every build, so that none can come back
// unnoticed. Lower the ceiling when a change earns it.
func TestExpandQuotientAllocCeiling(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's instrumentation allocates on its own")
	}
	const ceiling = 64 // bytes per expanded run
	expand := fipN4Expander(t)
	if per := bytesPerRun(func() { expand() }); per > ceiling {
		t.Errorf("ExpandQuotient allocates %.1f bytes per expanded run, ceiling %d", per, ceiling)
	}
}

// TestLastLayerAllocCeiling holds the bytes the first read of a fresh
// n=4,t=1 expansion's last layer allocates per run: its slots' packed
// class ids and each slot's keys in one exact-sized slab, about 98 B for
// fip and 13.5 B for min, 8 B when the kernel's scratch is left from the
// expansion. Each ceiling sits about 12 % above the larger reading. Fip's
// is below the ≈186 B a run cost with a key map and a string per class,
// and the ≈200 B with int32 ids, eager member lists and a key map presized
// to half the codes; min's is below the ≈66 B it cost then, the ≈39 B
// with that presized map alone and the ≈31 B with eager member lists
// alone, so that none can come back unnoticed.
func TestLastLayerAllocCeiling(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's instrumentation allocates on its own")
	}
	for _, tc := range []struct {
		name    string
		ex      model.Exchange
		act     model.ActionProtocol
		ceiling float64 // bytes per run
	}{
		{"fip", exchange.NewFIP(4), action.NewOpt(1), 110},
		{"min", exchange.NewMin(4), action.NewMin(1), 15},
	} {
		sys := n4Expander(t, tc.ex, tc.act)()
		if per := bytesPerRun(indexOf(sys).lastLayer); per > tc.ceiling {
			t.Errorf("%s: the last layer's first read allocates %.1f bytes per run, ceiling %.0f", tc.name, per, tc.ceiling)
		}
	}
}

// TestStripeBuildAllocCeiling holds the bytes BuildShardIndex allocates
// per representative for stripe 0 of 4 of fip and min n=4,t=1, 410
// representatives each: executing them through the round memo, indexing
// their states and exporting the stripe. A stripe's memo holds a few
// hundred edges and nodes, and the keys are appended straight into the
// index kernel's buffer: about 3,880 B for fip and 1,590 B for min. Each
// ceiling sits about 12 % above, and below what a stripe costs with the
// memo's maps presized to 1,024 entries (≈4,580 and ≈2,880 B), so those
// hints cannot come back unnoticed.
func TestStripeBuildAllocCeiling(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's instrumentation allocates on its own")
	}
	for _, tc := range []struct {
		name    string
		ex      model.Exchange
		act     model.ActionProtocol
		ceiling float64 // bytes per representative
	}{
		{"fip", exchange.NewFIP(4), action.NewOpt(1), 4350},
		{"min", exchange.NewMin(4), action.NewMin(1), 1780},
	} {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		idx, err := BuildShardIndex(context.Background(), Context{Exchange: tc.ex, T: 1}, tc.act, 0, 4, WithParallelism(2))
		runtime.ReadMemStats(&after)
		if err != nil {
			t.Fatal(err)
		}
		if len(idx.Runs) != 410 {
			t.Fatalf("%s: stripe 0/4 holds %d representatives, want 410", tc.name, len(idx.Runs))
		}
		if per := float64(after.TotalAlloc-before.TotalAlloc) / 410; per > tc.ceiling {
			t.Errorf("%s: BuildShardIndex allocates %.0f bytes per representative, ceiling %.0f", tc.name, per, tc.ceiling)
		}
	}
}

// TestRunSize pins a Run at three words: its pattern and its stats, each
// a pointer, and its initial preferences as bits. A run is the one
// per-run record an expanded System keeps, so a word more is 5 MB at
// n=5,t=1 and 10 MB at crash n=5,t=2.
func TestRunSize(t *testing.T) {
	if size := unsafe.Sizeof(Run{}); size != 24 {
		t.Errorf("a Run is %d bytes, want 24", size)
	}
}
