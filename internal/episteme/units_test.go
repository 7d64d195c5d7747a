package episteme

import (
	"context"
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"repro/internal/action"
	"repro/internal/adversary"
	"repro/internal/engine"
	"repro/internal/exchange"
	"repro/internal/model"
)

// The bit-identity tests compare tables; the tests below compare answers,
// run by run, between a time-layered system (ExpandQuotient's: index rows
// before the horizon are prefix units) and the directly built per-run
// system of the same sweep (perRunContext: the same exchange, not
// quotiented because its KeyPermuter is hidden).

// sortedCopy returns the runs in ascending order without disturbing the
// (shared, cached) slice it was handed.
func sortedCopy(runs []int) []int {
	out := slices.Clone(runs)
	slices.Sort(out)
	return out
}

// pointDiffer compares the two systems' answers at one (run, time, agent)
// after another, remembering which pairs of reachability closures it has
// already compared (closures are cached per component and shared).
type pointDiffer struct {
	t           *testing.T
	label       string
	got, want   *System
	firstOfUnit func(Point) bool
	reachSame   map[[2]*int]bool
	// knowsTrue and knowsFalse count the outcomes of the run-ordinal
	// predicate, so a vacuous comparison is caught.
	knowsTrue, knowsFalse, later int
}

func newPointDiffer(t *testing.T, label string, got, want *System) *pointDiffer {
	if indexOf(got).units == nil || indexOf(want).units != nil {
		t.Fatalf("%s: want a layered system against a per-run one", label)
	}
	return &pointDiffer{
		t: t, label: label, got: got, want: want,
		// "q is the lowest run of its prefix unit" depends on the run
		// ordinal alone, and is false exactly at the runs an evaluator that
		// asked each unit's first run only would never ask.
		firstOfUnit: func(q Point) bool { u := indexOf(got).units; return u.first(u.row(q.Run)) == q.Run },
		reachSame:   make(map[[2]*int]bool),
	}
}

func (d *pointDiffer) at(i model.AgentID, p Point) {
	t, got, want := d.t, d.got, d.want
	t.Helper()
	if !d.firstOfUnit(p) {
		d.later++
	}
	if g, w := got.Key(i, p), want.Key(i, p); g != w {
		t.Fatalf("%s: Key(%d, %v) = %q, direct build %q", d.label, i, p, g, w)
	}
	if g, w := got.classAt(i, p.Time, p.Run), want.classAt(i, p.Time, p.Run); g != w {
		t.Fatalf("%s: class of agent %d at %v is %d, direct build %d", d.label, i, p, g, w)
	}
	gc, wc := got.Class(i, p), want.Class(i, p)
	if !slices.Equal(gc, wc) {
		t.Fatalf("%s: Class(%d, %v) has %d points, direct build %d; or they differ in order", d.label, i, p, len(gc), len(wc))
	}
	if !slices.IsSortedFunc(gc, func(a, b Point) int { return a.Run - b.Run }) {
		t.Fatalf("%s: Class(%d, %v) is not in run order", d.label, i, p)
	}
	for name, phi := range map[string]func(Point) bool{
		"first of its unit":  d.firstOfUnit,
		"ordinal not 2 of 5": func(q Point) bool { return q.Run%5 != 2 },
		"ordinal above p's":  func(q Point) bool { return q.Run >= p.Run },
		// True sometimes even where classes span most of the sweep (min
		// and basic at t=2): it fails only at p's predecessor.
		"ordinal not p's − 1": func(q Point) bool { return q.Run != p.Run-1 },
	} {
		g, w := got.Knows(i, p, phi), want.Knows(i, p, phi)
		if g != w {
			t.Fatalf("%s: Knows(%d, %v, %s) = %v, direct build %v", d.label, i, p, name, g, w)
		}
		if g {
			d.knowsTrue++
		} else {
			d.knowsFalse++
		}
	}
	for _, v := range []model.Value{model.Zero, model.One} {
		if g, w := got.KnowsCK(i, p, v), want.KnowsCK(i, p, v); g != w {
			t.Fatalf("%s: KnowsCK(%d, %v, %v) = %v, direct build %v", d.label, i, p, v, g, w)
		}
		if g, w := got.CKTFaulty(p, v), want.CKTFaulty(p, v); g != w {
			t.Fatalf("%s: CKTFaulty(%v, %v) = %v, direct build %v", d.label, p, v, g, w)
		}
	}
	gr, wr := got.CNReachable(p), want.CNReachable(p)
	if len(gr) == 0 || len(gr) != len(wr) {
		t.Fatalf("%s: CNReachable(%v) has %d runs, direct build %d", d.label, p, len(gr), len(wr))
	}
	pair := [2]*int{&gr[0], &wr[0]}
	if !d.reachSame[pair] {
		if !slices.Equal(sortedCopy(gr), sortedCopy(wr)) {
			t.Fatalf("%s: CNReachable(%v) is a different set of runs from the direct build's", d.label, p)
		}
		d.reachSame[pair] = true
	}
}

// done fails the test when the comparison could not have caught an
// evaluator that asked each unit's first run only: the predicates must
// come out both ways and a fair share of the points (crash units are
// small) must lie on later members.
func (d *pointDiffer) done(points int) {
	d.t.Helper()
	if d.knowsTrue == 0 || d.knowsFalse == 0 {
		d.t.Fatalf("%s: the run-ordinal predicates came out true %d times and false %d times; the comparison is vacuous", d.label, d.knowsTrue, d.knowsFalse)
	}
	if 5*d.later < points {
		d.t.Fatalf("%s: only %d of %d points lie on a run that is not its unit's first", d.label, d.later, points)
	}
}

// TestLayeredSystemAnswersLikeDirect: an expanded system and the directly
// built one are the same system (compareSystems) and give the same answer
// to every question at every (run, time, agent) — all of them at the small
// shapes, a seeded sample at the large ones — including at time Horizon,
// where rows are runs again. The shapes cover units that are 2^(n−1)
// copies (SO, t=1), units of uneven size (crash), no round before the last
// (horizon 1: a unit is inits × faulty set), and two drop bits per
// recipient (t=2; the theorems fail there — ROADMAP's n−t=1 item — but
// the systems must still be identical), over fip's graph keys and over
// the min and basic tuples, which name no agent.
func TestLayeredSystemAnswersLikeDirect(t *testing.T) {
	fip := func(n int) model.Exchange { return exchange.NewFIP(n) }
	min, basic := exchange.NewMin(3), exchange.NewBasic(3)
	cases := []struct {
		name   string
		c      Context
		act    model.ActionProtocol
		sample int // 0 = every point
		units  int // 0 = not pinned
	}{
		{name: "fip n=3", c: Context{Exchange: fip(3), T: 1}, act: action.NewOpt(1), units: 392},
		{name: "fip n=4", c: Context{Exchange: fip(4), T: 1}, act: action.NewOpt(1), sample: 20000, units: 4112},
		{name: "fip n=4 crash", c: Context{Exchange: fip(4), T: 1, Crash: true}, act: action.NewOpt(1), sample: 20000},
		{name: "fip n=3 horizon 1", c: Context{Exchange: fip(3), T: 1, Horizon: 1}, act: action.NewOpt(1), units: 8 * 4},
		{name: "fip n=3 t=2 horizon 3", c: Context{Exchange: fip(3), T: 2, Horizon: 3}, act: action.NewOpt(2), sample: 4000},
		{name: "fip n=3 self-drops", c: Context{Exchange: fip(3), T: 1, Options: adversary.Options{IncludeSelfDrops: true}}, act: action.NewOpt(1), sample: 20000},
		{name: "fip n=3 crash self-drops", c: Context{Exchange: fip(3), T: 1, Crash: true, Options: adversary.Options{IncludeSelfDrops: true}}, act: action.NewOpt(1)},
		{name: "min n=3", c: Context{Exchange: min, T: 1}, act: action.NewMin(1), units: 392},
		{name: "min n=3 crash", c: Context{Exchange: min, T: 1, Crash: true}, act: action.NewMin(1)},
		{name: "min n=3 self-drops", c: Context{Exchange: min, T: 1, Options: adversary.Options{IncludeSelfDrops: true}}, act: action.NewMin(1), sample: 5000},
		{name: "min n=3 t=2 horizon 3", c: Context{Exchange: min, T: 2, Horizon: 3}, act: action.NewMin(2), sample: 1000},
		{name: "basic n=3", c: Context{Exchange: basic, T: 1}, act: action.NewBasic(3), units: 392},
		{name: "basic n=3 crash", c: Context{Exchange: basic, T: 1, Crash: true}, act: action.NewBasic(3)},
		{name: "basic n=3 self-drops", c: Context{Exchange: basic, T: 1, Options: adversary.Options{IncludeSelfDrops: true}}, act: action.NewBasic(3), sample: 5000},
		{name: "basic n=3 t=2 horizon 3", c: Context{Exchange: basic, T: 2, Horizon: 3}, act: action.NewBasic(3), sample: 1000},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			sample := tc.sample
			if raceEnabled {
				sample /= 10
			}
			ctx := context.Background()
			want, err := BuildSystem(ctx, perRunContext(tc.c), tc.act, WithParallelism(2))
			if err != nil {
				t.Fatal(err)
			}
			got, err := BuildSystem(ctx, tc.c, tc.act, WithParallelism(2))
			if err != nil {
				t.Fatal(err)
			}
			if units := indexOf(got).units.n; units >= len(got.Runs) || (tc.units != 0 && units != tc.units) {
				t.Fatalf("%d units for %d runs, want %d (0: fewer than runs)", units, len(got.Runs), tc.units)
			}
			compareSystems(t, tc.name, got, want)

			d := newPointDiffer(t, tc.name, got, want)
			points := 0
			if sample == 0 {
				got.Points(-1, func(p Point) {
					for i := 0; i < got.N; i++ {
						d.at(model.AgentID(i), p)
						points++
					}
				})
			} else {
				rng := rand.New(rand.NewSource(18))
				for ; points < sample; points++ {
					p := Point{Run: rng.Intn(len(got.Runs)), Time: rng.Intn(got.Horizon + 1)}
					d.at(model.AgentID(rng.Intn(got.N)), p)
				}
			}
			d.done(points)
		})
	}
}

// TestLayeredVerdictsListSameRuns: the systems that have mismatches and
// clause violations report them at the same run ordinals, in the same
// order and with the same truncation counts, through an expanded system
// as through a direct one.
func TestLayeredVerdictsListSameRuns(t *testing.T) {
	for _, act := range []model.ActionProtocol{lateZeroAction{}, slowFIPAction{}} {
		c := Context{Exchange: exchange.NewFIP(3), T: 1}
		ctx := context.Background()
		direct, err := BuildSystem(ctx, perRunContext(c), act)
		if err != nil {
			t.Fatal(err)
		}
		if indexOf(direct).units != nil {
			t.Fatal("the reference build went through the quotient")
		}
		for _, par := range []int{1, 2, 7} {
			sys, err := BuildSystem(ctx, c, act, WithParallelism(par))
			if err != nil {
				t.Fatal(err)
			}
			label := fmt.Sprintf("fip+%s parallelism %d", act.Name(), par)
			for _, max := range []int{0, 3} {
				want := checkImplements(t, direct, P1, max)
				if len(want) == 0 {
					t.Fatalf("%s: the direct build has no mismatches; the comparison is vacuous", label)
				}
				if got := checkImplements(t, sys, P1, max); !slices.Equal(got, want) {
					t.Errorf("%s: CheckImplements(max %d) lists %v, direct build %v", label, max, got, want)
				}
				if got, want := checkSafety(t, sys, max), checkSafety(t, direct, max); len(want) == 0 || !slices.Equal(got, want) {
					t.Errorf("%s: CheckSafety(max %d) lists %d violations, direct build %d: %s", label, max, len(got), len(want), firstDiff(got, want))
				}
				if got, want := checkOptimality(t, sys, -1, max), checkOptimality(t, direct, -1, max); len(want) == 0 || !slices.Equal(got, want) {
					t.Errorf("%s: CheckOptimalityFIP(max %d) lists %d violations, direct build %d: %s", label, max, len(got), len(want), firstDiff(got, want))
				}
			}
		}
	}
}

// TestExpandQuotientRefusesDoctoredLedger: a unit's ledger is its
// representative's labels, relabeled, and the index kernel refuses a
// class whose units act differently. A representative label changed after
// the build — agent 0's time-0 action on its first class — sets the units
// that read it apart from their class's others; the expansion must refuse,
// naming the time-0 slot, in the same words whatever the worker count of
// the system it expands.
func TestExpandQuotientRefusesDoctoredLedger(t *testing.T) {
	c := Context{Exchange: exchange.NewFIP(4), T: 1}
	ctx := context.Background()
	idx, err := BuildShardIndex(ctx, c, action.NewOpt(1), 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	var first string
	for _, par := range []int{1, 2, 7} {
		rep, err := MergeSystems(ctx, []*ShardIndex{idx}, WithParallelism(par))
		if err != nil {
			t.Fatal(err)
		}
		acts := rep.labels.acts[0]
		if acts[0] == model.Noop {
			acts[0] = model.Decide0
		} else {
			acts[0] = model.Noop
		}
		sys, err := ExpandQuotient(ctx, rep, c)
		if sys != nil || err == nil || !strings.Contains(err.Error(), "at time 0") || !strings.Contains(err.Error(), "not a function of the key") {
			t.Fatalf("parallelism %d: ExpandQuotient of a doctored representative = (system: %v, %v), want only the refusal of a time-0 class",
				par, sys != nil, err)
		}
		if par == 1 {
			first = err.Error()
		} else if err.Error() != first {
			t.Fatalf("parallelism %d reports %q, parallelism 1 %q", par, err, first)
		}
	}
}

// TestExpandedRunsShareUnitLedgers pins how an expanded system reads its
// runs: each run's pattern, stats and ledger equal the per-run build's,
// the runs of one prefix unit read one ledger — units being exactly the
// runs whose initial preferences, faulty set and drops before the last
// round agree — and the distinct ledgers number as pinned.
func TestExpandedRunsShareUnitLedgers(t *testing.T) {
	type stack struct {
		name string
		ex   func(n int) model.Exchange
		act  func(n, t int) model.ActionProtocol
		// ledgers is the distinct ledger count of each cell below.
		ledgers [4]int
	}
	stacks := []stack{
		{"fip", func(n int) model.Exchange { return exchange.NewFIP(n) }, func(_, t int) model.ActionProtocol { return action.NewOpt(t) }, [4]int{23, 58, 33, 197}},
		{"min", func(n int) model.Exchange { return exchange.NewMin(n) }, func(_, t int) model.ActionProtocol { return action.NewMin(t) }, [4]int{17, 44, 26, 98}},
		{"basic", func(n int) model.Exchange { return exchange.NewBasic(n) }, func(n, _ int) model.ActionProtocol { return action.NewBasic(n) }, [4]int{23, 58, 50, 184}},
	}
	cells := []struct {
		n, t  int
		crash bool
		units int // 0 = not pinned
	}{
		{3, 1, false, 392}, {4, 1, false, 4112}, {3, 2, true, 0}, {4, 2, true, 0},
	}
	ctx := context.Background()
	for _, st := range stacks {
		for ci, cell := range cells {
			kind := "SO"
			if cell.crash {
				kind = "crash"
			}
			t.Run(fmt.Sprintf("%s %s n=%d t=%d", st.name, kind, cell.n, cell.t), func(t *testing.T) {
				if raceEnabled && cell.n > 3 {
					t.Skip("n=4 outlasts the race detector's budget; n=3 covers the layout")
				}
				c := Context{Exchange: st.ex(cell.n), T: cell.t, Crash: cell.crash}
				want, err := BuildSystem(ctx, perRunContext(c), st.act(cell.n, cell.t), WithParallelism(2))
				if err != nil {
					t.Fatal(err)
				}
				got, err := BuildSystem(ctx, c, st.act(cell.n, cell.t), WithParallelism(2))
				if err != nil {
					t.Fatal(err)
				}
				units := indexOf(got).units
				if units == nil || len(got.Runs) != len(want.Runs) {
					t.Fatalf("expanded %d runs (layered %v), the per-run build %d", len(got.Runs), units != nil, len(want.Runs))
				}
				// The units as the per-run build's scenarios define them.
				unitOfPrefix := make(map[string]int)
				ledgers := make(map[string]bool)
				var key []byte
				var res engine.Result
				for g := range got.Runs {
					if gf, wf := runLedger(got, g), runLedger(want, g); gf != wf {
						t.Fatalf("run %d: expanded\n%sper-run\n%s", g, gf, wf)
					}
					w := want.Runs[g]
					key = fmt.Appendf(w.Pattern.AppendPrefixKey(key[:0], got.Horizon-1), "/%v", initsOf(want, g))
					u, seen := unitOfPrefix[string(key)]
					if !seen {
						u = len(unitOfPrefix)
						unitOfPrefix[string(key)] = u
					}
					if units.row(g) != u {
						t.Fatalf("run %d is in unit %d, its prefix in unit %d", g, units.row(g), u)
					}
					got.Ledger(g, &res)
					content := ledgerContent(&res)
					if got.Ledger(units.first(u), &res); ledgerContent(&res) != content {
						t.Fatalf("run %d reads ledger %s, its unit's first run %d %s", g, content, units.first(u), ledgerContent(&res))
					}
					ledgers[content] = true
				}
				if units.n != len(unitOfPrefix) || (cell.units != 0 && units.n != cell.units) {
					t.Fatalf("%d units in the system, %d prefix units in the sweep; want %d (0: not pinned)",
						units.n, len(unitOfPrefix), cell.units)
				}
				if len(ledgers) != st.ledgers[ci] {
					t.Fatalf("%d distinct ledgers over %d units, want %d", len(ledgers), units.n, st.ledgers[ci])
				}
			})
		}
	}
}
