package episteme

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/action"
	"repro/internal/exchange"
	"repro/internal/model"
)

// literalSystem is an unindexed System of the given shape whose runs are
// never read: the index kernel is told a row count by its producer and
// knows nothing else of them.
func literalSystem(n, horizon, nRuns, par int) *System {
	return &System{N: n, Horizon: horizon, Runs: make([]Run, nRuns), par: par}
}

// perRow is the rows of a producer whose memo code is the row itself,
// and whose every row does noop.
func perRow(n int, key func(g int) (string, error)) slotRows {
	return slotRows{n: n, codes: n, code: func(g int) int { return g }, key: func(dst []byte, g int) ([]byte, error) {
		k, err := key(g)
		return append(dst, k...), err
	}, act: func(int) model.Action { return model.Noop }}
}

// TestInternSlotsFirstAppearance pins the kernel's whole contract on one
// literal slot: class ids by first appearance in ascending run order,
// members ascending, two memo codes with one key sharing a class, and the
// key asked for once per distinct code, again at a class's first row for
// each later code whose key hashes alike (run 5's, at run 0), and once
// more per class to fill the slot's slab.
func TestInternSlotsFirstAppearance(t *testing.T) {
	keys := []string{"b", "a", "b", "c", "a", "b", "c"}
	// Runs 0 and 2 share code 0, run 5 carries the same key under code 3.
	codes := []int{0, 1, 0, 2, 1, 3, 2}
	asked := make([]int, len(keys))
	rows := slotRows{
		n:     len(keys),
		codes: 4,
		code:  func(g int) int { return codes[g] },
		key: func(dst []byte, g int) ([]byte, error) {
			asked[g]++
			return append(dst, keys[g]...), nil
		},
	}
	// At horizon 0 the one slot is the last layer: interned on first read.
	sys, err := literalSystem(1, 0, len(keys), 1).indexed(context.Background(), &indexFrame{}, func(int) slotRows { return rows })
	if err != nil {
		t.Fatal(err)
	}
	if idsOf(sys)[0] != nil || !reflect.DeepEqual(asked, make([]int, len(keys))) {
		t.Fatal("the time-Horizon slot was interned before anything read it")
	}
	indexOf(sys).lastLayer()
	if got, want := idsOf(sys)[0], []int32{0, 1, 0, 2, 1, 0, 2}; !reflect.DeepEqual(got, want) {
		t.Errorf("classOf = %v, want %v", got, want)
	}
	if got, want := sys.frame.members(0), (members{rows: []int32{0, 2, 5, 1, 4, 3, 6}, off: []int32{0, 3, 5, 7}}); !reflect.DeepEqual(got, want) {
		t.Errorf("classRuns = %v, want %v", got, want)
	}
	if got, want := keysOf(sys)[0], []string{"b", "a", "c"}; !reflect.DeepEqual(got, want) {
		t.Errorf("classKey = %v, want %v", got, want)
	}
	if want := []int{3, 2, 0, 2, 0, 1, 0}; !reflect.DeepEqual(asked, want) {
		t.Errorf("key asked %v times per run, want %v", asked, want)
	}
}

// TestInternSlotsLastLayerOnFirstRead: the slots before the horizon are
// interned by indexed, each on its own, and the time-Horizon slots on
// their first read; a key met in two slots is a class of each, with no id
// shared between them.
func TestInternSlotsLastLayerOnFirstRead(t *testing.T) {
	keys := [][]string{{"x", "y", "x"}, {"y", "z", "z"}, {"w", "x", "z"}, {"y", "y", "v"}}
	rows := func(slot int) slotRows {
		return perRow(3, func(g int) (string, error) { return keys[slot][g], nil })
	}
	want := [][]string{{"x", "y"}, {"y", "z"}, {"w", "x", "z"}, {"y", "v"}}
	for _, par := range []int{1, 3} {
		sys, err := literalSystem(2, 1, 3, par).indexed(context.Background(), &indexFrame{}, rows)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(keysOf(sys), append(want[:2:2], nil, nil)) {
			t.Errorf("parallelism %d: before the first read, classKey = %q", par, keysOf(sys))
		}
		if got := sys.frame.keys(2).len(); got != 3 {
			t.Errorf("parallelism %d: slot 2 has %d classes, want 3", par, got)
		}
		if !reflect.DeepEqual(keysOf(sys), want) {
			t.Errorf("parallelism %d: classKey = %q, want %q", par, keysOf(sys), want)
		}
		if got, want := idsOf(sys), [][]int32{{0, 1, 0}, {0, 1, 1}, {0, 1, 2}, {0, 0, 1}}; !reflect.DeepEqual(got, want) {
			t.Errorf("parallelism %d: classOf = %v, want %v", par, got, want)
		}
	}
}

// TestInternSlotsReportsLowestFailingSlot: key errors in slots 3 and 7
// come back as slot 3's, and no System, at every worker count.
func TestInternSlotsReportsLowestFailingSlot(t *testing.T) {
	for _, par := range []int{1, 2, 7} {
		sys, err := literalSystem(4, 1, 5, par).indexed(context.Background(), &indexFrame{}, func(slot int) slotRows {
			return perRow(5, func(g int) (string, error) {
				if (slot == 3 || slot == 7) && g >= 2 {
					return "", fmt.Errorf("slot %d run %d has no key", slot, g)
				}
				return fmt.Sprint(g % 2), nil
			})
		})
		if sys != nil || err == nil || err.Error() != "slot 3 run 2 has no key" {
			t.Errorf("parallelism %d: indexed = (system: %v, %v), want only slot 3's first error", par, sys != nil, err)
		}
	}
}

// TestInternSlotsCancellation: a context cancelled before the first slot,
// or between the first and the second, ends the build with its cause and
// no System.
func TestInternSlotsCancellation(t *testing.T) {
	cause := errors.New("operator gave up")
	for _, looks := range []int32{1, 2} {
		inner, cancel := context.WithCancelCause(context.Background())
		ctx := &cancelOnNthErr{Context: inner, cancel: cancel, cause: cause}
		ctx.left.Store(looks)
		var slots atomic.Int32
		sys, err := literalSystem(2, 1, 3, 1).indexed(ctx, &indexFrame{}, func(int) slotRows {
			slots.Add(1)
			return perRow(3, func(int) (string, error) { return "k", nil })
		})
		cancel(nil)
		if sys != nil || !errors.Is(err, cause) {
			t.Errorf("cancelled at look %d: indexed = (system: %v, %v), want only the cause", looks, sys != nil, err)
		}
		if got := slots.Load(); got != looks-1 {
			t.Errorf("cancelled at look %d: %d slots interned, want %d", looks, got, looks-1)
		}
	}
}

// TestRestoringBuildsCancellation: the two constructions that reach the
// kernel without executing anything — a shard merge and a fully warm
// cached build — give a cancelled context's cause and no System.
func TestRestoringBuildsCancellation(t *testing.T) {
	c := fipContext31()
	act := action.NewOpt(1)
	store := newTestStore()
	if _, err := BuildSystem(context.Background(), c, act, WithCache(store, "fp")); err != nil {
		t.Fatal(err)
	}
	idx, err := BuildShardIndex(context.Background(), c, act, 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	cause := errors.New("operator gave up")
	ctx, cancel := context.WithCancelCause(context.Background())
	cancel(cause)
	if sys, err := BuildSystem(ctx, c, act, WithCache(store, "fp")); sys != nil || !errors.Is(err, cause) {
		t.Errorf("warm cached BuildSystem = (system: %v, %v), want only the cause", sys != nil, err)
	}
	if sys, err := MergeSystems(ctx, []*ShardIndex{idx}); sys != nil || !errors.Is(err, cause) {
		t.Errorf("MergeSystems = (system: %v, %v), want only the cause", sys != nil, err)
	}
}

// noJD is Emin with jd hidden from its keys: Pmin decides 0 on hearing
// that someone just decided 0, which the key no longer shows.
type noJD struct{ *exchange.Min }

// noJDState is an Emin state whose key drops its last field, jd.
type noJDState struct{ model.State }

func (s noJDState) AppendKey(dst []byte) []byte {
	out := s.State.AppendKey(dst)
	return out[:len(dst)+bytes.LastIndexByte(out[len(dst):], ':')]
}

func (e noJD) Initial(i model.AgentID, v model.Value) model.State {
	return noJDState{e.Min.Initial(i, v)}
}
func (e noJD) Messages(i model.AgentID, s model.State, a model.Action, out []model.Message) []model.Message {
	return e.Min.Messages(i, s.(noJDState).State, a, out)
}
func (e noJD) Update(i model.AgentID, s model.State, a model.Action, recv []model.Message) model.State {
	return noJDState{e.Min.Update(i, s.(noJDState).State, a, recv)}
}

// AppendPermuteKey rewrites an Emin key, which names no agent, into noJD's:
// jd dropped.
func (noJD) AppendPermuteKey(dst []byte, key []byte, _ []model.AgentID) ([]byte, error) {
	return append(dst, key[:bytes.LastIndexByte(key, ':')]...), nil
}

// TestLabellingRefusesHiddenField: a key that hides a field its protocol
// acts on — Emin's without jd, under Pmin — makes every construction
// refuse the class whose rows act differently, instead of a System: the
// direct build (with the quotient and without), the merge of stripes whose
// keys lost jd, and the expansion of sound representatives under keys
// that lose it.
func TestLabellingRefusesHiddenField(t *testing.T) {
	ctx := context.Background()
	c, act := Context{Exchange: exchange.NewMin(3), T: 1}, action.NewMin(1)
	mutant := Context{Exchange: noJD{exchange.NewMin(3)}, T: 1}
	refused := func(what string, sys *System, err error) {
		t.Helper()
		if sys != nil || err == nil || !strings.Contains(err.Error(), "is not a function of the key") {
			t.Errorf("%s = (system: %v, %v), want only the refusal", what, sys != nil, err)
		}
	}
	sys, err := BuildSystem(ctx, mutant, act)
	refused("BuildSystem", sys, err)
	sys, err = BuildSystem(ctx, perRunContext(mutant), act)
	refused("the per-run BuildSystem", sys, err)

	idx, err := BuildShardIndex(ctx, c, act, 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := MergeSystems(ctx, []*ShardIndex{idx})
	if err != nil {
		t.Fatal(err)
	}
	sys, err = ExpandQuotient(ctx, rep, mutant)
	refused("ExpandQuotient", sys, err)

	for _, keys := range idx.ClassKeys {
		for c, key := range keys {
			keys[c] = key[:strings.LastIndexByte(key, ':')]
		}
	}
	sys, err = MergeSystems(ctx, []*ShardIndex{idx})
	refused("MergeSystems", sys, err)
}

// eachConstruction calls check with every n ≤ 3 matrix context's system
// of min, basic and fip built directly, merged from three stripes and
// expanded from the quotient, its last layer interned, and the naive frame
// of its traced sweep.
func eachConstruction(t *testing.T, check func(label string, sys *System, naive *naiveFrame)) {
	for _, cx := range []struct {
		n, t  int
		crash bool
	}{{2, 1, false}, {3, 1, false}, {3, 1, true}, {3, 2, true}} {
		for _, tc := range []struct {
			ex  model.Exchange
			act model.ActionProtocol
		}{
			{exchange.NewMin(cx.n), action.NewMin(cx.t)},
			{exchange.NewBasic(cx.n), action.NewBasic(cx.n)},
			{exchange.NewFIP(cx.n), action.NewOpt(cx.t)},
		} {
			c := Context{Exchange: tc.ex, T: cx.t, Crash: cx.crash}
			naive := newNaiveFrame(tracedSweep(t, c, tc.act))
			for name, sys := range map[string]*System{
				"direct":   build(t, perRunContext(c), tc.act),
				"merged":   buildMerged(t, perRunContext(c), tc.act, 3),
				"expanded": build(t, c, tc.act),
			} {
				indexOf(sys).lastLayer()
				check(fmt.Sprintf("%s n=%d t=%d crash=%v %s", tc.ex.Name(), cx.n, cx.t, cx.crash, name), sys, naive)
			}
		}
	}
}

// TestClassIDsMatchNaiveFrame holds the packed class ids to the naive
// frame's: in every slot of every n ≤ 3 matrix context, built directly,
// merged from three stripes and expanded from the quotient, at(row) and
// the walk read the class of the row's first run, and the slot's first
// member-list read is packMembers of those ids.
func TestClassIDsMatchNaiveFrame(t *testing.T) {
	eachConstruction(t, func(label string, sys *System, naive *naiveFrame) {
		for slot := range indexOf(sys).slots {
			l, ids := sys.frame.layout(slot/sys.N), sys.frame.classes(slot)
			want := make([]int32, l.n)
			for row := range want {
				want[row] = naive.classOf[slot][l.first(row)]
			}
			var walked []int32
			ids.each(func(row int, c int32) {
				if row != len(walked) {
					t.Fatalf("%s slot %d: the walk reads row %d after %d rows", label, slot, row, len(walked))
				}
				walked = append(walked, c)
			})
			for row := range want {
				if got := ids.at(row); got != want[row] || walked[row] != want[row] {
					t.Fatalf("%s slot %d row %d: at reads %d and the walk %d, want %d", label, slot, row, got, walked[row], want[row])
				}
			}
			if len(walked) != len(want) {
				t.Fatalf("%s slot %d: the walk reads %d rows, want %d", label, slot, len(walked), len(want))
			}
			nc := sys.frame.keys(slot).len()
			if got := sys.frame.members(slot); !reflect.DeepEqual(got, packMembers(want, nc)) {
				t.Fatalf("%s slot %d: member lists %v, want packMembers of the ids", label, slot, got)
			}
		}
	})
}

// TestInternKeyTable holds the kernel's key table and slab to their
// contract on three literal slots — distinct memo codes carrying one key
// share a class, keys that share a 4 KiB prefix stay apart, and a slot of
// 2¹⁷ classes grows the table far past the 16 places a slot starts with —
// and, in every construction of eachConstruction, each slot's class ids
// and key bytes to the naive frame's: class c's key is the bytes of the
// slab between its offsets, and the slab holds nothing else.
func TestInternKeyTable(t *testing.T) {
	long := strings.Repeat("k", 4096)
	many := make([]string, 1<<18) // every key twice, under distinct codes
	for g := range many {
		many[g] = fmt.Sprint(g % (1 << 17))
	}
	for _, tc := range []struct {
		name  string
		keys  []string
		codes []int
	}{
		{"shared", []string{"x", "y", "x", "y", "x"}, []int{0, 1, 2, 3, 0}},
		{"prefixes", []string{long + "a", long + "b", long + "a", long, long + "ab", long + "b"}, nil},
		{"many", many, nil},
	} {
		rows := slotRows{n: len(tc.keys), codes: len(tc.keys), code: func(g int) int { return g },
			key: func(dst []byte, g int) ([]byte, error) { return append(dst, tc.keys[g]...), nil }}
		if tc.codes != nil {
			rows.code = func(g int) int { return tc.codes[g] }
		}
		sys, err := literalSystem(1, 0, len(tc.keys), 1).indexed(context.Background(), &indexFrame{}, func(int) slotRows { return rows })
		if err != nil {
			t.Fatal(err)
		}
		var wantKeys []string
		wantIDs, first := make([]int32, len(tc.keys)), map[string]int32{}
		for g, key := range tc.keys {
			c, ok := first[key]
			if !ok {
				c, wantKeys = int32(len(wantKeys)), append(wantKeys, key)
				first[key] = c
			}
			wantIDs[g] = c
		}
		keys := sys.frame.keys(0)
		if got := stringsOf(keys); !slices.Equal(got, wantKeys) || len(keys.slab) != len(strings.Join(wantKeys, "")) {
			t.Errorf("%s: %d classes, want %d, or the slab holds more than their keys", tc.name, len(got), len(wantKeys))
		}
		if got := idsOf(sys)[0]; !slices.Equal(got, wantIDs) {
			t.Errorf("%s: class ids differ from first appearance", tc.name)
		}
	}
	eachConstruction(t, func(label string, sys *System, naive *naiveFrame) {
		for slot := range indexOf(sys).slots {
			l, keys := sys.frame.layout(slot/sys.N), sys.frame.keys(slot)
			for row := range l.n {
				if got, want := sys.frame.classes(slot).at(row), naive.classOf[slot][l.first(row)]; got != want {
					t.Fatalf("%s slot %d row %d: class %d, want %d", label, slot, row, got, want)
				}
			}
			if got := stringsOf(keys); !slices.Equal(got, naive.classKey[slot]) || int(keys.off[len(keys.off)-1]) != len(keys.slab) {
				t.Fatalf("%s slot %d: keys %q, want %q", label, slot, got, naive.classKey[slot])
			}
		}
	})
}

// TestClassIDsWidths packs ids at the widths of 1, 2, 3, 4, 2³⁰+1 and
// 2³¹+1 classes — 0, 1, 2, 2, 31 and 32 bits — over rows that straddle
// words wherever the width does not divide 64, and reads them back.
func TestClassIDsWidths(t *testing.T) {
	rng := rand.New(rand.NewSource(61))
	for _, tc := range []struct {
		classes int
		width   uint64
	}{{1, 0}, {2, 1}, {3, 2}, {4, 2}, {5, 3}, {1<<30 + 1, 31}, {1<<31 + 1, 32}} {
		ids := make([]int32, 203)
		for r := range ids {
			ids[r] = int32(rng.Int63n(int64(tc.classes)))
		}
		top := int32(min(tc.classes-1, math.MaxInt32)) // the widest id an int32 holds, at both ends
		ids[0], ids[len(ids)-1] = top, top
		packed := packClassIDs(ids, tc.classes)
		if packed.width != tc.width || packed.n != len(ids) {
			t.Fatalf("%d classes: packed at width %d over %d rows, want width %d", tc.classes, packed.width, packed.n, tc.width)
		}
		straddles := 0
		for r, want := range ids {
			if got := packed.at(r); got != want {
				t.Fatalf("%d classes: row %d reads %d, want %d", tc.classes, r, got, want)
			}
			if bit := uint64(r) * tc.width; bit/64 != (bit+tc.width-1)/64 && tc.width > 0 {
				straddles++
			}
		}
		if (straddles > 0) != (tc.width == 3 || tc.width == 31) {
			t.Errorf("%d classes: %d rows straddle two words", tc.classes, straddles)
		}
		packed.each(func(r int, c int32) {
			if c != ids[r] {
				t.Fatalf("%d classes: the walk reads %d at row %d, want %d", tc.classes, c, r, ids[r])
			}
		})
	}
}

// TestMembersFirstReadIsShared: concurrent first reads of one slot's
// member lists build them once and return one table.
func TestMembersFirstReadIsShared(t *testing.T) {
	sys := build(t, Context{Exchange: exchange.NewMin(3), T: 1}, action.NewMin(1))
	slot := sys.Horizon*sys.N + 1 // in the last layer, read first here
	got := make([]members, 8)
	var wg sync.WaitGroup
	for k := range got {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got[k] = sys.frame.members(slot)
		}()
	}
	wg.Wait()
	for k, ms := range got {
		if &ms.rows[0] != &got[0].rows[0] || &ms.off[0] != &got[0].off[0] {
			t.Fatalf("read %d returned a second table", k)
		}
	}
}
