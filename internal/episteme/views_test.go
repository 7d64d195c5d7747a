package episteme

import (
	"context"
	"encoding/binary"
	"fmt"
	"reflect"
	"strconv"
	"sync"
	"testing"

	"repro/internal/action"
	"repro/internal/core"
	"repro/internal/exchange"
	"repro/internal/model"
	"repro/internal/runtime"
)

// The key-free local-state oracle. Every other oracle identifies a local
// state by its key, so a lossy AppendKey would merge classes and every
// checker and oracle would agree on the wrong answer. Here a slot's
// classes are held to partitions no key enters: the states themselves,
// compared field by field through every pointer, and, under full
// information, the agents' views.

// appendDeep appends a rendering of v that two values share exactly when
// they are deeply equal, pointers followed.
func appendDeep(b []byte, v reflect.Value) []byte {
	switch v.Kind() {
	case reflect.Pointer, reflect.Interface:
		if v.IsNil() {
			return append(b, "nil"...)
		}
		return appendDeep(append(b, '*'), v.Elem())
	case reflect.Struct:
		b = append(append(b, v.Type().String()...), '{')
		for f := range v.NumField() {
			b = append(appendDeep(b, v.Field(f)), ',')
		}
		return append(b, '}')
	case reflect.Slice, reflect.Array:
		b = append(b, '[')
		for k := range v.Len() {
			b = append(appendDeep(b, v.Index(k)), ',')
		}
		return append(b, ']')
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		return strconv.AppendInt(b, v.Int(), 10)
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64:
		return strconv.AppendUint(b, v.Uint(), 10)
	case reflect.Bool:
		return strconv.AppendBool(b, v.Bool())
	case reflect.String:
		return strconv.AppendQuote(b, v.String())
	}
	panic(fmt.Sprintf("appendDeep: cannot render a %s", v.Kind()))
}

// viewing wraps an exchange so that every state carries its agent's view,
// the initial value and each round's received messages: a message carries
// its sender's view, and a view is numbered by its first sight. Under full
// information a state is its view.
type viewing struct {
	model.Exchange
	mu  sync.Mutex
	ids map[string]int32
}

type viewState struct {
	model.State
	view int32
}

type viewMsg struct {
	model.Message
	view int32
}

func (e *viewing) id(view []byte) int32 {
	e.mu.Lock()
	defer e.mu.Unlock()
	id, ok := e.ids[string(view)]
	if !ok {
		id = int32(len(e.ids))
		e.ids[string(view)] = id
	}
	return id
}

func (e *viewing) Initial(i model.AgentID, v model.Value) model.State {
	return viewState{e.Exchange.Initial(i, v), e.id([]byte("init " + v.String()))}
}

func (e *viewing) Messages(i model.AgentID, s model.State, a model.Action, out []model.Message) []model.Message {
	vs := s.(viewState)
	out = e.Exchange.Messages(i, vs.State, a, out)
	for j, msg := range out {
		if msg != nil {
			out[j] = viewMsg{msg, vs.view}
		}
	}
	return out
}

func (e *viewing) Update(i model.AgentID, s model.State, a model.Action, received []model.Message) model.State {
	vs := s.(viewState)
	inner := make([]model.Message, len(received))
	var buf [64]byte
	view := binary.LittleEndian.AppendUint32(buf[:0], uint32(vs.view))
	for j, msg := range received {
		sent := int32(-1) // ⊥
		if msg != nil {
			vm := msg.(viewMsg)
			inner[j], sent = vm.Message, vm.view
		}
		view = binary.LittleEndian.AppendUint32(view, uint32(sent))
	}
	return viewState{e.Exchange.Update(i, vs.State, a, inner), e.id(view)}
}

// samePartition reports whether two labellings of the runs group them
// alike, and the first run where they part.
func samePartition[A, B comparable](a []A, b []B) (bool, int) {
	ab, ba := make(map[A]B), make(map[B]A)
	for r := range a {
		if x, seen := ab[a[r]]; seen && x != b[r] {
			return false, r
		}
		if y, seen := ba[b[r]]; seen && y != a[r] {
			return false, r
		}
		ab[a[r]], ba[b[r]] = b[r], a[r]
	}
	return true, -1
}

// TestKeysAreFaithful is the key-free oracle over every matrix context
// with n ≤ 4 and each exchange under its own protocol: per slot, the
// production build's class partition equals the partition of the traced
// sweep's states by deep equality and, over Efip, the partition by view,
// with the views recorded by internal/runtime, the independent execution
// of Section 3's round. Across slots, an agent's equal keys name deeply
// equal states (conformance convention 12), so a key that drops its time
// is caught too.
func TestKeysAreFaithful(t *testing.T) {
	var cells []oracleCase
	for _, cx := range []struct {
		kind string
		n, t int
	}{{"SO", 2, 1}, {"SO", 3, 1}, {"SO", 4, 1}, {"crash", 3, 1}, {"crash", 3, 2}, {"crash", 4, 2}} {
		n, tf, crash := cx.n, cx.t, cx.kind == "crash"
		// Named as frameCases names them, so the builds they share are made
		// once per test binary.
		name := func(stack string) string {
			name := fmt.Sprintf("%s n=%d", stack, n)
			if crash || tf != 1 {
				name += fmt.Sprintf(" t=%d", tf)
			}
			if crash {
				name = "crash " + name
			}
			return name
		}
		cells = append(cells,
			oracleCase{name: name("min"), c: Context{Exchange: exchange.NewMin(n), T: tf, Crash: crash}, act: action.NewMin(tf)},
			oracleCase{name: name("basic"), c: Context{Exchange: exchange.NewBasic(n), T: tf, Crash: crash}, act: action.NewBasic(n)},
			oracleCase{name: name("fip+Popt"), c: Context{Exchange: exchange.NewFIP(n), T: tf, Crash: crash}, act: action.NewOpt(tf)})
	}
	for _, tc := range cells {
		t.Run(tc.name, func(t *testing.T) {
			if tc.c.Exchange.N() == 4 && (testing.Short() || raceEnabled) {
				t.Skip("the n=4 sweeps take seconds, a minute under the race detector")
			}
			b, ok := oracleBuilds[tc.name]
			if !ok {
				b = oracleSet{traced: tracedSweep(t, tc.c, tc.act), sys: build(t, tc.c, tc.act)}
			}
			sys, runs := b.sys, len(b.traced)
			var views []int32 // per (run, time, agent), over Efip
			if _, fip := tc.c.Exchange.(*exchange.FIP); fip {
				views = recordViews(t, tc)
			}
			// A state's number: equal for deeply equal states, looked up by
			// identity first.
			byValue, byIdentity := make(map[string]int32), make(map[model.State]int32)
			number := func(s model.State) int32 {
				id, seen := byIdentity[s]
				if !seen {
					deep := string(appendDeep(nil, reflect.ValueOf(s)))
					if id, seen = byValue[deep]; !seen {
						id = int32(len(byValue))
						byValue[deep] = id
					}
					byIdentity[s] = id
				}
				return id
			}
			classes, states, viewIDs := make([]int32, runs), make([]int32, runs), make([]int32, runs)
			stateOf := make([]map[string]int32, sys.N) // per agent, the state of each key met
			for slot := range (sys.Horizon + 1) * sys.N {
				m, i := slot/sys.N, slot%sys.N
				for r, res := range b.traced {
					classes[r], states[r] = sys.classAt(model.AgentID(i), m, r), number(res.States[m][i])
					if views != nil {
						viewIDs[r] = views[(r*(sys.Horizon+1)+m)*sys.N+i]
					}
				}
				if same, r := samePartition(classes, states); !same {
					t.Fatalf("time %d agent %d: run %d's class and state part ways: keys and states partition the runs differently", m, i, r)
				}
				if same, r := samePartition(classes, viewIDs); views != nil && !same {
					t.Fatalf("time %d agent %d: run %d's class and view part ways: keys and views partition the runs differently", m, i, r)
				}
				if stateOf[i] == nil {
					stateOf[i] = make(map[string]int32)
				}
				keys := stringsOf(sys.frame.keys(slot))
				checked := make([]bool, len(keys))
				for r, c := range classes {
					if checked[c] {
						continue
					}
					checked[c] = true
					if s, seen := stateOf[i][keys[c]]; !seen {
						stateOf[i][keys[c]] = states[r]
					} else if s != states[r] {
						t.Fatalf("time %d agent %d: run %d's key %q is an earlier slot's key for another state", m, i, r, keys[c])
					}
				}
			}
		})
	}
}

// recordViews runs tc's sweep on internal/runtime over its exchange
// wrapped in viewing, and returns each (run, time, agent)'s view, run by
// run in enumeration order. Under full information every agent sends in
// every round whatever it does, so the views are every protocol's: the
// sweep runs one that never decides, eight runs at once: a run's agent
// goroutines spend most of their time waiting on its router.
func recordViews(t *testing.T, tc oracleCase) []int32 {
	t.Helper()
	n, horizon := tc.c.Exchange.N(), tc.c.horizonOrDefault()
	src, err := tc.c.scenarioSource(n, horizon)
	if err != nil {
		t.Fatal(err)
	}
	c := tc.c
	c.Exchange = &viewing{Exchange: tc.c.Exchange, ids: make(map[string]int32)}
	runner := core.NewRunner(cacheStack(c, slowFIPAction{}, n, horizon), core.WithExecutor(runtime.Concurrent{}), core.WithParallelism(8))
	var views []int32
	for oc := range runner.StreamFrom(context.Background(), src) {
		if oc.Err != nil {
			t.Fatal(oc.Err)
		}
		for _, row := range oc.Result.States {
			for _, s := range row {
				views = append(views, s.(viewState).view)
			}
		}
	}
	return views
}
