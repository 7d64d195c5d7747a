package episteme

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"reflect"
	"strings"
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
// key asked for once per distinct code.
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
	if indexOf(sys).classOf[0] != nil || !reflect.DeepEqual(asked, make([]int, len(keys))) {
		t.Fatal("the time-Horizon slot was interned before anything read it")
	}
	indexOf(sys).lastLayer()
	if got, want := indexOf(sys).classOf[0], []int32{0, 1, 0, 2, 1, 0, 2}; !reflect.DeepEqual(got, want) {
		t.Errorf("classOf = %v, want %v", got, want)
	}
	if got, want := indexOf(sys).classRuns[0], (members{rows: []int32{0, 2, 5, 1, 4, 3, 6}, off: []int32{0, 3, 5, 7}}); !reflect.DeepEqual(got, want) {
		t.Errorf("classRuns = %v, want %v", got, want)
	}
	if got, want := indexOf(sys).classKey[0], []string{"b", "a", "c"}; !reflect.DeepEqual(got, want) {
		t.Errorf("classKey = %v, want %v", got, want)
	}
	if want := []int{1, 1, 0, 1, 0, 1, 0}; !reflect.DeepEqual(asked, want) {
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
		if !reflect.DeepEqual(indexOf(sys).classKey, append(want[:2:2], nil, nil)) {
			t.Errorf("parallelism %d: before the first read, classKey = %q", par, indexOf(sys).classKey)
		}
		if got := len(sys.frame.keys(2)); got != 3 {
			t.Errorf("parallelism %d: slot 2 has %d classes, want 3", par, got)
		}
		if !reflect.DeepEqual(indexOf(sys).classKey, want) {
			t.Errorf("parallelism %d: classKey = %q, want %q", par, indexOf(sys).classKey, want)
		}
		if got, want := indexOf(sys).classOf, [][]int32{{0, 1, 0}, {0, 1, 1}, {0, 1, 2}, {0, 0, 1}}; !reflect.DeepEqual(got, want) {
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
func (noJD) AppendPermuteKey(dst []byte, key string, _ []model.AgentID) ([]byte, error) {
	return append(dst, key[:strings.LastIndexByte(key, ':')]...), nil
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
