package episteme

import (
	"context"
	"fmt"
	"hash/fnv"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/action"
	"repro/internal/engine"
	"repro/internal/exchange"
	"repro/internal/model"
)

// naiveFrame is the reference frame: built from a traced sweep with one
// key → class map per slot, no index kernel and no units. Every row is a
// run, at every time.
type naiveFrame struct {
	rows     layout   // every row a run
	masks    []uint64 // run r's faulty set
	classOf  [][]int32
	ids      []classIDs // classOf packed
	lists    []members
	classKey [][]string
	slabs    []classKeys // classKey in slabs
}

func newNaiveFrame(traced []*engine.Result) *naiveFrame {
	f := &naiveFrame{rows: layout{n: len(traced)}, masks: make([]uint64, len(traced))}
	n, horizon := traced[0].N, traced[0].Horizon
	for r, res := range traced {
		for i := range model.AgentID(n) {
			if res.Pattern.Faulty(i) {
				f.masks[r] |= 1 << uint(i)
			}
		}
	}
	for slot := 0; slot < (horizon+1)*n; slot++ {
		m, i := slot/n, slot%n
		byKey := make(map[string]int32)
		var keys []string
		var lists [][]int32
		classOf := make([]int32, len(traced))
		for r, res := range traced {
			key := string(res.States[m][i].AppendKey(nil))
			c, ok := byKey[key]
			if !ok {
				c = int32(len(keys))
				byKey[key] = c
				keys = append(keys, key)
				lists = append(lists, nil)
			}
			classOf[r] = c
			lists[c] = append(lists[c], int32(r))
		}
		ms := members{off: []int32{0}}
		for _, l := range lists {
			ms.rows = append(ms.rows, l...)
			ms.off = append(ms.off, int32(len(ms.rows)))
		}
		f.classOf, f.ids = append(f.classOf, classOf), append(f.ids, packClassIDs(classOf, len(keys)))
		f.lists, f.classKey, f.slabs = append(f.lists, ms), append(f.classKey, keys), append(f.slabs, slabOf(keys))
	}
	return f
}

func (f *naiveFrame) layout(int) *layout        { return &f.rows }
func (f *naiveFrame) faulty(int) []uint64       { return f.masks }
func (f *naiveFrame) classes(slot int) classIDs { return f.ids[slot] }
func (f *naiveFrame) members(slot int) members  { return f.lists[slot] }
func (f *naiveFrame) keys(slot int) classKeys   { return f.slabs[slot] }

// naiveLabels is the reference labelling: each run's own ledger, as the
// engine recorded it, with no class and no first-decide rule — every row
// a run, its decisions the engine's Decision and DecisionRound.
func naiveLabels(traced []*engine.Result) *labels {
	n := traced[0].N
	lb := &labels{n: n, rows: &layout{n: len(traced)}, decided: make([]firstDecide, len(traced)*n),
		act: func(i model.AgentID, m, run int) model.Action { return traced[run].Actions[m][i] }}
	for r, res := range traced {
		for i := range n {
			lb.decided[r*n+i] = firstDecide{res.Decision[i], uint8(res.DecisionRound[i])}
		}
	}
	return lb
}

// onFrame returns a System of sys's shape over runs that reads f and lb,
// with its own worker count and C_N cache.
func onFrame(sys *System, runs []Run, f frame, lb *labels, par int) *System {
	return &System{N: sys.N, T: sys.T, Horizon: sys.Horizon, Runs: runs, par: par, frame: f, labels: lb}
}

// naiveRuns is the runs of a traced sweep as a System holds them.
func naiveRuns(traced []*engine.Result) []Run {
	runs := make([]Run, len(traced))
	for r, res := range traced {
		bits, _ := initsBits(res.Inits)
		runs[r] = Run{res.Pattern, &res.Stats, uint64(bits)}
	}
	return runs
}

// frameCases is every oracle case plus crash fip n=3,t=2.
func frameCases() []oracleCase {
	return append(oracleCases(), oracleCase{name: "crash fip+Popt n=3 t=2",
		c: Context{Exchange: exchange.NewFIP(3), T: 2, Crash: true}, act: action.NewOpt(2)})
}

// oracleSet is one frame case's sweep three ways: as the engine records
// it (tracedSweep), as the per-run build and as the build every
// front-end gets (for fip, the expanded one), both on one worker.
type oracleSet struct {
	traced   []*engine.Result
	ref, sys *System
}

// oracleBuilds holds each frame case's oracleSet, made once per test
// binary and shared by the tests that compare checkers over them.
var oracleBuilds = map[string]oracleSet{}

// oracleBuild returns tc's oracleSet.
func oracleBuild(t *testing.T, tc oracleCase) oracleSet {
	t.Helper()
	if b, ok := oracleBuilds[tc.name]; ok {
		return b
	}
	ctx := context.Background()
	b := oracleSet{traced: tracedSweep(t, tc.c, tc.act)}
	var err error
	if b.ref, err = BuildSystem(ctx, perRunContext(tc.c), tc.act, WithParallelism(1)); err != nil {
		t.Fatal(err)
	}
	if b.sys, err = BuildSystem(ctx, tc.c, tc.act, WithParallelism(1)); err != nil {
		t.Fatal(err)
	}
	oracleBuilds[tc.name] = b
	return b
}

// frameReport renders every checker's verdict on s: implements (P0 and
// P1), safety, Thm 7.5, the ⊡-components of both indexical sets, every
// synthesized slice, and the point queries at sampled points.
func frameReport(t *testing.T, s *System) []string {
	t.Helper()
	var out []string
	for _, prog := range []Program{P0, P1} {
		for _, m := range checkImplements(t, s, prog, 0) {
			out = append(out, fmt.Sprintf("%v: %v", prog, m))
		}
		table := make(map[string]model.Action)
		for m := 0; m < s.Horizon; m++ {
			if err := s.synthesizeSlice(context.Background(), prog, m, table); err != nil {
				t.Fatal(err)
			}
		}
		var entries []string
		for k, a := range table {
			entries = append(entries, fmt.Sprintf("synth(%v) %s: %v", prog, k, a))
		}
		slices.Sort(entries)
		out = append(out, entries...)
	}
	out = append(out, checkSafety(t, s, 0)...)
	out = append(out, checkOptimality(t, s, -1, 0)...)
	for _, v := range []model.Value{model.Zero, model.One} {
		out = append(out, labelStrings(partitionLabels(s.BoxComponents(s.memberNAndDecided(v))))...)
	}
	// digest names a run list by its length and hash.
	digest := func(runs []int) string {
		h := fnv.New64a()
		for _, r := range runs {
			fmt.Fprintf(h, "%d,", r)
		}
		return fmt.Sprintf("%d runs %x", len(runs), h.Sum64())
	}
	rng := rand.New(rand.NewSource(55))
	for k := 0; k < 200; k++ {
		i, v := model.AgentID(rng.Intn(s.N)), model.Value(rng.Intn(2))
		p := Point{Run: rng.Intn(len(s.Runs)), Time: rng.Intn(s.Horizon + 1)}
		exists := func(q Point) bool { return s.Exists(v, q) }
		// Not a row function: every run of every row must be asked.
		odd := func(q Point) bool { return s.Exists(v, q) || q.Run%5 == 0 }
		class := make([]int, 0)
		for _, q := range s.Class(i, p) {
			class = append(class, q.Run)
		}
		reach := slices.Clone(s.CNReachable(p))
		slices.Sort(reach) // its order is the condensation's, not part of its answer
		out = append(out, fmt.Sprintf("agent %d at %v, v=%v: key %s, class %s, Knows ∃v %v, Knows odd %v, KnowsCK %v, CNReachable %s, K CN ∃v %v",
			i, p, v, s.Key(i, p), digest(class), s.Knows(i, p, exists), s.Knows(i, p, odd), s.KnowsCK(i, p, v),
			digest(reach), K(i, CN(ExistsF(v))).Holds(s, p)))
	}
	return out
}

// TestCheckersMatchNaiveFrame runs every checker over the production
// frame and labelling of each frame case's build and over the naive frame
// and the naive per-run labelling of its traced sweep, at parallelism 4
// and 1, and requires byte-identical reports (frameReport): the checkers
// read nothing of the index but the frame, and nothing of the protocol
// but the labelling.
func TestCheckersMatchNaiveFrame(t *testing.T) {
	for _, tc := range frameCases() {
		t.Run(tc.name, func(t *testing.T) {
			if tc.slow && (testing.Short() || raceEnabled) {
				t.Skip("the n=4 builds take seconds, a minute under the race detector")
			}
			b := oracleBuild(t, tc)
			naive, sys := newNaiveFrame(b.traced), b.sys
			// Four workers first: they make the production frame's first
			// reads (last layer, faulty masks) together.
			for _, par := range []int{4, 1} {
				got := frameReport(t, onFrame(sys, sys.Runs, sys.frame, sys.labels, par))
				want := frameReport(t, onFrame(sys, naiveRuns(b.traced), naive, naiveLabels(b.traced), par))
				if !slices.Equal(got, want) {
					t.Fatalf("par=%d: the production frame's report (%d lines) differs from the naive frame's (%d); first difference: %s",
						par, len(got), len(want), firstDiff(got, want))
				}
			}
		})
	}
}

// TestFrameRowsArePrefixUnits holds an expanded system's rows to their
// definition, for every frame case and SO n=3,t=2: at each time before
// the horizon a run's row is the first-appearance number of its prefix
// key and inits bits over the enumeration, at the horizon it is the run
// itself, and each unit's runs ascend from its first run.
func TestFrameRowsArePrefixUnits(t *testing.T) {
	cases := append(frameCases(), oracleCase{name: "min n=3 t=2",
		c: Context{Exchange: exchange.NewMin(3), T: 2}, act: action.NewMin(2), slow: true})
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if tc.slow && (testing.Short() || raceEnabled) {
				t.Skip("the n=4 and t=2 sweeps take seconds, minutes under the race detector")
			}
			sys, err := BuildSystem(context.Background(), tc.c, tc.act, WithParallelism(2))
			if err != nil {
				t.Fatal(err)
			}
			x := indexOf(sys)
			if x.units == nil {
				t.Fatal("the build is not time-layered")
			}
			src, err := tc.c.scenarioSource(sys.N, sys.Horizon)
			if err != nil {
				t.Fatal(err)
			}
			unitOf := make(map[string]int)
			var firsts []int // each unit's first run, by first appearance
			var key []byte
			g := 0
			for sc, more := src.Next(); more; sc, more = src.Next() {
				bits, _ := initsBits(sc.Inits)
				key = fmt.Appendf(sc.Pattern.AppendPrefixKey(key[:0], sys.Horizon-1), "/%d", bits)
				u, seen := unitOf[string(key)]
				if !seen {
					u = len(firsts)
					unitOf[string(key)] = u
					firsts = append(firsts, g)
				}
				for m := 0; m <= sys.Horizon; m++ {
					want := u
					if m == sys.Horizon {
						want = g
					}
					if row := x.layout(m).row(g); row != want {
						t.Fatalf("run %d time %d: row %d, want %d", g, m, row, want)
					}
				}
				g++
			}
			if g != len(sys.Runs) {
				t.Fatalf("the enumeration has %d scenarios, the system %d runs", g, len(sys.Runs))
			}
			l, runs := x.layout(0), 0
			if l.n != len(firsts) {
				t.Fatalf("%d units, the enumeration has %d", l.n, len(firsts))
			}
			for u := range l.n {
				prev := -1
				l.each(u, func(r int) bool {
					if (prev < 0 && (r != firsts[u] || r != l.first(u))) || (prev >= 0 && r <= prev) || l.row(r) != u {
						t.Fatalf("unit %d (first run %d, frame's %d) lists run %d after %d, of row %d", u, firsts[u], l.first(u), r, prev, l.row(r))
					}
					prev, runs = r, runs+1
					return true
				})
			}
			if runs != len(sys.Runs) {
				t.Fatalf("the units list %d runs, the system has %d", runs, len(sys.Runs))
			}
		})
	}
}

// TestFrameReadsDoNotAllocate pins the served knowledge path's frame reads
// at zero allocations on an expanded system: Knows, KnowsCK and a row's
// runs, at every time.
func TestFrameReadsDoNotAllocate(t *testing.T) {
	sys, err := BuildSystem(context.Background(), Context{Exchange: exchange.NewFIP(3), T: 1}, action.NewOpt(1), WithParallelism(1))
	if err != nil {
		t.Fatal(err)
	}
	if indexOf(sys).units == nil {
		t.Fatal("the build is not time-layered")
	}
	every := func(q Point) bool { return q.Run >= 0 } // asks every run of every row
	for m := 0; m <= sys.Horizon; m++ {
		p := Point{Run: len(sys.Runs) - 1, Time: m}
		l := sys.frame.layout(m)
		sys.KnowsCK(0, p, model.One) // the time-m C_N layer is built once
		for _, read := range []struct {
			name string
			fn   func()
		}{
			{"Knows", func() { sys.Knows(1, p, every) }},
			{"KnowsCK", func() { sys.KnowsCK(1, p, model.Zero) }},
			{"a row's runs", func() { l.each(l.row(p.Run), func(r int) bool { return r >= 0 }) }},
		} {
			if allocs := testing.AllocsPerRun(50, read.fn); allocs != 0 {
				t.Errorf("time %d: %s allocates %v times per call", m, read.name, allocs)
			}
		}
	}
}

// TestLabellingMatchesEngineLedger holds the labelling to the engine's
// ledgers: at every point of every frame case's per-run and production
// build, DecidedVal, JustDecided and Deciding answer as the traced run's
// Decision and DecisionRound say, and every run's Ledger is the traced
// run's, actions included.
func TestLabellingMatchesEngineLedger(t *testing.T) {
	for _, tc := range frameCases() {
		t.Run(tc.name, func(t *testing.T) {
			if tc.slow && (testing.Short() || raceEnabled) {
				t.Skip("the n=4 builds take seconds, a minute under the race detector")
			}
			b := oracleBuild(t, tc)
			for _, sys := range []*System{b.ref, b.sys} {
				for r, res := range b.traced {
					if got, want := runLedger(sys, r), ledgerFingerprint(res); got != want {
						t.Fatalf("run %d: the labelling reads\n%sthe engine recorded\n%s", r, got, want)
					}
					for m := 0; m <= sys.Horizon; m++ {
						p := Point{Run: r, Time: m}
						for i := range model.AgentID(sys.N) {
							d, round := res.Decided(i), res.Round(i)
							want := model.None
							if round > 0 && round <= m {
								want = d
							}
							if got := sys.DecidedVal(i, p); got != want {
								t.Fatalf("run %d time %d agent %d: DecidedVal %v, the ledger says %v", r, m, i, got, want)
							}
							for _, v := range []model.Value{model.Zero, model.One} {
								if got, want := sys.JustDecided(i, v, p), round == m && d == v; got != want {
									t.Fatalf("run %d time %d agent %d: JustDecided(%v) %v, the ledger says %v", r, m, i, v, got, want)
								}
								if got, want := sys.Deciding(i, v, p), round == m+1 && d == v; got != want {
									t.Fatalf("run %d time %d agent %d: Deciding(%v) %v, the ledger says %v", r, m, i, v, got, want)
								}
							}
						}
					}
				}
			}
		})
	}
}
