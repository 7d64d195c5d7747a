package episteme

import (
	"context"
	"fmt"
	"hash/fnv"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/action"
	"repro/internal/exchange"
	"repro/internal/model"
)

// naiveFrame is the reference frame: built from a traced per-run build
// with one key → class map per slot, no index kernel and no units. Every
// row is a run, at every time.
type naiveFrame struct {
	ident    []int32  // ident[r] = r, r ≤ len(runs): rows are runs
	masks    []uint64 // run r's faulty set
	classOf  [][]int32
	lists    []members
	classKey [][]string
}

func newNaiveFrame(ref *System) *naiveFrame {
	f := &naiveFrame{ident: make([]int32, len(ref.Runs)+1), masks: make([]uint64, len(ref.Runs))}
	for r := range f.ident {
		f.ident[r] = int32(r)
	}
	for r := range ref.Runs {
		f.masks[r] = oracleFaultyMask(ref, r)
	}
	for slot := 0; slot < (ref.Horizon+1)*ref.N; slot++ {
		m, i := slot/ref.N, slot%ref.N
		byKey := make(map[string]int32)
		var keys []string
		var lists [][]int32
		classOf := make([]int32, len(ref.Runs))
		for r, run := range ref.Runs {
			key := string(run.States[m][i].AppendKey(nil))
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
		f.classOf, f.lists, f.classKey = append(f.classOf, classOf), append(f.lists, ms), append(f.classKey, keys)
	}
	return f
}

func (f *naiveFrame) firstRuns(int) []int32    { return f.ident[:len(f.masks)] }
func (f *naiveFrame) runRows(int) []int32      { return f.ident[:len(f.masks)] }
func (f *naiveFrame) rowRuns(int) members      { return members{rows: f.ident[:len(f.masks)], off: f.ident} }
func (f *naiveFrame) faulty(int) []uint64      { return f.masks }
func (f *naiveFrame) classes(slot int) []int32 { return f.classOf[slot] }
func (f *naiveFrame) members(slot int) members { return f.lists[slot] }
func (f *naiveFrame) keys(slot int) []string   { return f.classKey[slot] }

// onFrame returns a System over sys's runs that reads f, with its own
// worker count and C_N cache.
func onFrame(sys *System, f frame, par int) *System {
	return &System{N: sys.N, T: sys.T, Horizon: sys.Horizon, Runs: sys.Runs, par: par, frame: f}
}

// frameCases is every oracle case plus crash fip n=3,t=2.
func frameCases() []oracleCase {
	return append(oracleCases(), oracleCase{name: "crash fip+Popt n=3 t=2",
		c: Context{Exchange: exchange.NewFIP(3), T: 2, Crash: true}, act: action.NewOpt(2)})
}

// oracleBuilds holds each frame case's per-run reference build and its
// production build, made once per test binary and shared by the tests
// that compare checkers over them.
var oracleBuilds = map[string][2]*System{}

// oracleBuild returns tc's traced per-run build and the build every
// front-end gets (for fip, the expanded one), both on one worker.
func oracleBuild(t *testing.T, tc oracleCase) (ref, sys *System) {
	t.Helper()
	if b, ok := oracleBuilds[tc.name]; ok {
		return b[0], b[1]
	}
	ctx := context.Background()
	ref, err := BuildSystem(ctx, perRunContext(tc.c), tc.act, WithParallelism(1))
	if err != nil {
		t.Fatal(err)
	}
	if sys, err = BuildSystem(ctx, tc.c, tc.act, WithParallelism(1)); err != nil {
		t.Fatal(err)
	}
	oracleBuilds[tc.name] = [2]*System{ref, sys}
	return ref, sys
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
// frame of each frame case's build and over the naive frame of its traced
// per-run build, at parallelism 4 and 1, and requires byte-identical
// reports (frameReport): the checkers read nothing of the index but the
// frame.
func TestCheckersMatchNaiveFrame(t *testing.T) {
	for _, tc := range frameCases() {
		t.Run(tc.name, func(t *testing.T) {
			if tc.slow && (testing.Short() || raceEnabled) {
				t.Skip("the n=4 builds take seconds, a minute under the race detector")
			}
			ref, sys := oracleBuild(t, tc)
			naive := newNaiveFrame(ref)
			// Four workers first: they make the production frame's first
			// reads (last layer, identity table, faulty masks) together.
			for _, par := range []int{4, 1} {
				got, want := frameReport(t, onFrame(sys, sys.frame, par)), frameReport(t, onFrame(ref, naive, par))
				if !slices.Equal(got, want) {
					t.Fatalf("par=%d: the production frame's report (%d lines) differs from the naive frame's (%d); first difference: %s",
						par, len(got), len(want), firstDiff(got, want))
				}
			}
		})
	}
}
