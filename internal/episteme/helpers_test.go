package episteme

import (
	"context"
	"testing"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/model"
)

// perRun hides every optional interface of the wrapped exchange —
// model.KeyPermuter among them — so a build over it runs every scenario,
// as a build over an exchange without the method would: the reference the
// quotiented builds are compared against.
type perRun struct{ model.Exchange }

// perRunContext is c with its exchange's KeyPermuter hidden.
func perRunContext(c Context) Context {
	c.Exchange = perRun{c.Exchange}
	return c
}

// tracedSweep is c's sweep as the engine records it: every scenario of
// the context's source streamed through a core.Runner on the memoizing
// executor, in enumeration order — a System's run order — with state
// traces. No System keeps a trace or a ledger; the tests hold its frame
// and its labelling to these.
func tracedSweep(t testing.TB, c Context, act model.ActionProtocol) []*engine.Result {
	t.Helper()
	n, horizon := c.Exchange.N(), c.horizonOrDefault()
	src, err := c.scenarioSource(n, horizon)
	if err != nil {
		t.Fatal(err)
	}
	runner := core.NewRunner(cacheStack(c, act, n, horizon), core.WithExecutor(newMemoExec(horizon)))
	traced, err := runner.RunSource(context.Background(), src)
	if err != nil {
		t.Fatal(err)
	}
	return traced
}

// initsOf is run r's initial preferences as a vector.
func initsOf(sys *System, r int) []model.Value {
	inits := make([]model.Value, sys.N)
	for i := range inits {
		inits[i] = sys.Runs[r].Init(model.AgentID(i))
	}
	return inits
}

// The checker wrappers below keep the theorem tests focused on verdicts:
// they run a checker with a background context and fail the test on an
// infrastructure error (which none of these checks should produce).

// synthDiff synthesizes prog in c and diffs the table against the system
// of the reference protocol ref.
func synthDiff(t *testing.T, c Context, prog Program, ref model.ActionProtocol) (*Synthesized, []Mismatch) {
	t.Helper()
	synth, err := Synthesize(context.Background(), c, prog)
	if err != nil {
		t.Fatal(err)
	}
	ms, err := synth.Diff(context.Background(), build(t, c, ref), 0)
	if err != nil {
		t.Fatal(err)
	}
	return synth, ms
}

// build builds the system of act in c.
func build(t *testing.T, c Context, act model.ActionProtocol) *System {
	t.Helper()
	sys, err := BuildSystem(context.Background(), c, act)
	if err != nil {
		t.Fatal(err)
	}
	return sys
}

func checkImplements(t *testing.T, sys *System, prog Program, max int) []Mismatch {
	t.Helper()
	ms, err := sys.CheckImplements(context.Background(), prog, max)
	if err != nil {
		t.Fatal(err)
	}
	return ms
}

func checkSafety(t *testing.T, sys *System, max int) []string {
	t.Helper()
	vs, err := sys.CheckSafety(context.Background(), max)
	if err != nil {
		t.Fatal(err)
	}
	return vs
}

func checkOptimality(t *testing.T, sys *System, maxTime, max int) []string {
	t.Helper()
	vs, err := sys.CheckOptimalityFIP(context.Background(), maxTime, max)
	if err != nil {
		t.Fatal(err)
	}
	return vs
}

// indexOf returns sys's production frame, for the tests that read its
// tables or its units.
func indexOf(sys *System) *indexFrame { return sys.frame.(*indexFrame) }

// keysOf returns sys's class keys slot by slot, nil for a slot not yet
// interned.
func keysOf(sys *System) [][]string {
	keys := make([][]string, len(indexOf(sys).slots))
	for slot := range keys {
		keys[slot] = stringsOf(indexOf(sys).slots[slot].keys)
	}
	return keys
}

// stringsOf returns a slab's keys as strings, nil for an empty slab.
func stringsOf(k classKeys) []string {
	var keys []string
	for c := range int32(k.len()) {
		keys = append(keys, string(k.at(c)))
	}
	return keys
}

// slabOf stores keys in one slab, as the index kernel does.
func slabOf(keys []string) classKeys {
	k := classKeys{off: []int32{0}}
	for _, key := range keys {
		k.slab = append(k.slab, key...)
		k.off = append(k.off, int32(len(k.slab)))
	}
	return k
}

// idsOf returns sys's class ids slot by slot, unpacked, nil for a slot not
// yet interned.
func idsOf(sys *System) [][]int32 {
	ids := make([][]int32, len(indexOf(sys).slots))
	for slot := range ids {
		if t := indexOf(sys).slots[slot].ids; t.words != nil {
			ids[slot] = t.unpack(nil)
		}
	}
	return ids
}
