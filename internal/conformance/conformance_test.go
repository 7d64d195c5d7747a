package conformance

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/adversary"
	"repro/internal/exchange"
	"repro/internal/model"
)

func TestAllExchangesConform(t *testing.T) {
	for _, ex := range []model.Exchange{
		exchange.NewMin(4),
		exchange.NewBasic(4),
		exchange.NewFIP(4),
	} {
		if vs := CheckExchange(ex, 42, 40); len(vs) != 0 {
			t.Errorf("%s violates the EBA-context conventions:\n  %s",
				ex.Name(), strings.Join(vs, "\n  "))
		}
	}
}

// brokenExchange wraps Min but mislabels decide-1 messages as class M2 —
// the kind of mistake the conformance harness exists to catch.
type brokenExchange struct {
	*exchange.Min
}

type mislabeled struct{ inner model.Message }

func (m mislabeled) Announces() model.Value { return model.None }
func (m mislabeled) Bits() int              { return m.inner.Bits() }
func (m mislabeled) String() string         { return m.inner.String() }

func (e brokenExchange) Messages(i model.AgentID, s model.State, a model.Action, out []model.Message) []model.Message {
	out = e.Min.Messages(i, s, a, out)
	if a == model.Decide1 {
		for j, msg := range out {
			if msg != nil {
				out[j] = mislabeled{inner: msg}
			}
		}
	}
	return out
}

func TestConformanceCatchesMislabeledClass(t *testing.T) {
	vs := CheckExchange(brokenExchange{exchange.NewMin(3)}, 7, 40)
	if len(vs) == 0 {
		t.Fatal("mislabeled message class not detected")
	}
	found := false
	for _, v := range vs {
		if strings.Contains(v, "class") {
			found = true
		}
	}
	if !found {
		t.Errorf("violations do not mention the class mismatch: %v", vs)
	}
}

// staleRowExchange wraps Min but writes only the entries that carry a
// message, so a row the engine has used keeps an earlier round's.
type staleRowExchange struct {
	*exchange.Min
}

func (e staleRowExchange) Messages(i model.AgentID, s model.State, a model.Action, out []model.Message) []model.Message {
	for j, msg := range e.Min.Messages(i, s, a, make([]model.Message, len(out))) {
		if msg != nil {
			out[j] = msg
		}
	}
	return out
}

// TestConformanceCatchesStaleRow is convention 7's negative case, under
// both drivers.
func TestConformanceCatchesStaleRow(t *testing.T) {
	pats, err := adversary.NewSOPatterns(3, 1, 3, adversary.Options{})
	if err != nil {
		t.Fatal(err)
	}
	for name, vs := range map[string][]string{
		"random":   CheckExchange(staleRowExchange{exchange.NewMin(3)}, 7, 5),
		"patterns": CheckExchangePatterns(staleRowExchange{exchange.NewMin(3)}, pats, 7),
	} {
		if len(vs) == 0 || !strings.Contains(vs[0], "used row") {
			t.Errorf("%s driver: stale row entry not detected: %v", name, vs)
		}
	}
}

// frozenTimeExchange never advances time.
type frozenTimeExchange struct {
	*exchange.Min
}

func (e frozenTimeExchange) Update(i model.AgentID, s model.State, a model.Action, recv []model.Message) model.State {
	return s
}

func TestConformanceCatchesFrozenTime(t *testing.T) {
	vs := CheckExchange(frozenTimeExchange{exchange.NewMin(3)}, 7, 5)
	if len(vs) == 0 {
		t.Fatal("frozen time not detected")
	}
}

// sliceExchange wraps Min in states that carry a slice of notes: correct
// in every other respect, but not comparable with ==, so the model
// checker's round memo would panic keying a map by them.
type sliceExchange struct {
	*exchange.Min
}

type sliceState struct {
	model.State
	notes []model.Value
}

func (e sliceExchange) Initial(i model.AgentID, init model.Value) model.State {
	return sliceState{e.Min.Initial(i, init), []model.Value{init}}
}

func (e sliceExchange) Messages(i model.AgentID, s model.State, a model.Action, out []model.Message) []model.Message {
	return e.Min.Messages(i, s.(sliceState).State, a, out)
}

func (e sliceExchange) Update(i model.AgentID, s model.State, a model.Action, recv []model.Message) model.State {
	return sliceState{e.Min.Update(i, s.(sliceState).State, a, recv), s.(sliceState).notes}
}

func TestConformanceCatchesIncomparableState(t *testing.T) {
	vs := CheckExchange(sliceExchange{exchange.NewMin(3)}, 7, 5)
	if len(vs) == 0 || !strings.Contains(vs[0], "not comparable") {
		t.Fatalf("a state holding a slice was not reported: %q", vs)
	}
	for _, v := range vs {
		if !strings.Contains(v, "not comparable") {
			t.Fatalf("an incomparable but otherwise conformant exchange drew another report: %s", v)
		}
	}
}

// TestAllExchangesConformUnderEnumeratedPatterns drives every exchange
// through the exhaustive SO(1) pattern stream — the streaming counterpart
// of the random-omission check, covering the failure model's exact
// adversaries.
func TestAllExchangesConformUnderEnumeratedPatterns(t *testing.T) {
	for _, ex := range []model.Exchange{
		exchange.NewMin(3),
		exchange.NewBasic(3),
		exchange.NewFIP(3),
	} {
		pats, err := adversary.NewSOPatterns(3, 1, 3, adversary.Options{})
		if err != nil {
			t.Fatal(err)
		}
		if vs := CheckExchangePatterns(ex, pats, 42); len(vs) != 0 {
			t.Errorf("%s violates the conventions under enumerated patterns:\n  %s",
				ex.Name(), strings.Join(vs, "\n  "))
		}
	}
}

// TestPatternCheckCatchesMislabeledClass checks the pattern-driven driver
// detects the same convention breaches the random driver does.
func TestPatternCheckCatchesMislabeledClass(t *testing.T) {
	pats, err := adversary.NewSOPatterns(3, 1, 3, adversary.Options{})
	if err != nil {
		t.Fatal(err)
	}
	vs := CheckExchangePatterns(brokenExchange{exchange.NewMin(3)}, pats, 7)
	if len(vs) == 0 {
		t.Fatal("mislabeled message class not detected under enumerated patterns")
	}
}

// idKeyExchange is Emin with the agent's id appended to every state key
// while keeping Emin's identity AppendPermuteKey — the one-line method copied
// onto an exchange whose keys do name an agent.
type idKeyExchange struct {
	*exchange.Min
}

type idKeyState struct {
	model.State
	id model.AgentID
}

func (s idKeyState) Key() string { return fmt.Sprintf("%s@%d", s.State.Key(), s.id) }

func (e idKeyExchange) Initial(i model.AgentID, init model.Value) model.State {
	return idKeyState{e.Min.Initial(i, init), i}
}

func (e idKeyExchange) Messages(i model.AgentID, s model.State, a model.Action, out []model.Message) []model.Message {
	return e.Min.Messages(i, s.(idKeyState).State, a, out)
}

func (e idKeyExchange) Update(i model.AgentID, s model.State, a model.Action, recv []model.Message) model.State {
	return idKeyState{e.Min.Update(i, s.(idKeyState).State, a, recv), i}
}

// identityFIP is Efip with Emin's identity AppendPermuteKey in place of
// the graph rewrite its keys need.
type identityFIP struct {
	*exchange.FIP
}

func (identityFIP) AppendPermuteKey(dst []byte, key string, _ []model.AgentID) ([]byte, error) {
	return append(dst, key...), nil
}

// TestConformanceChecksKeyPermuter is convention 8 under both drivers:
// the exchanges the model checker quotients keep the model.KeyPermuter
// contract against their relabeled twins, and an identity AppendPermuteKey over
// keys that embed the agent id is reported.
func TestConformanceChecksKeyPermuter(t *testing.T) {
	drivers := map[string]func(model.Exchange) []string{
		"random": func(ex model.Exchange) []string { return CheckExchange(ex, 11, 20) },
		"patterns": func(ex model.Exchange) []string {
			pats, err := adversary.NewSOPatterns(3, 1, 3, adversary.Options{})
			if err != nil {
				t.Fatal(err)
			}
			return CheckExchangePatterns(ex, pats, 11)
		},
	}
	for name, check := range drivers {
		for _, ex := range []model.Exchange{exchange.NewMin(3), exchange.NewBasic(3), exchange.NewFIP(3)} {
			if _, ok := ex.(model.KeyPermuter); !ok {
				t.Fatalf("%s does not implement model.KeyPermuter; convention 8 would not run", ex.Name())
			}
			if vs := check(ex); len(vs) != 0 {
				t.Errorf("%s driver: %s breaks the KeyPermuter contract:\n  %s", name, ex.Name(), strings.Join(vs, "\n  "))
			}
		}
		for _, ex := range []model.Exchange{idKeyExchange{exchange.NewMin(3)}, identityFIP{exchange.NewFIP(3)}} {
			vs := check(ex)
			if len(vs) == 0 || !strings.Contains(vs[0], "relabeled run") {
				t.Errorf("%s driver: an identity AppendPermuteKey over agent-named %T keys was not reported: %v", name, ex, vs)
			}
		}
	}
}

// TestPatternCheckRejectsSizeMismatch checks patterns for the wrong n are
// reported rather than silently misapplied.
func TestPatternCheckRejectsSizeMismatch(t *testing.T) {
	pats, err := adversary.NewSOPatterns(4, 1, 3, adversary.Options{})
	if err != nil {
		t.Fatal(err)
	}
	vs := CheckExchangePatterns(exchange.NewMin(3), pats, 7)
	if len(vs) == 0 {
		t.Fatal("pattern/exchange size mismatch not reported")
	}
}

// timelessExchange is Emin with the time field of every key blanked: a
// well-formed Emin key still, so every other convention holds, but an
// agent that hears nothing holds one key round after round.
type timelessExchange struct {
	*exchange.Min
}

type timelessState struct{ model.State }

func (s timelessState) Key() string {
	return fmt.Sprintf("min:*:%v:%v:%v", s.Init(), s.Decided(), s.JustDecided())
}

func (e timelessExchange) Initial(i model.AgentID, init model.Value) model.State {
	return timelessState{e.Min.Initial(i, init)}
}

func (e timelessExchange) Messages(i model.AgentID, s model.State, a model.Action, out []model.Message) []model.Message {
	return e.Min.Messages(i, s.(timelessState).State, a, out)
}

func (e timelessExchange) Update(i model.AgentID, s model.State, a model.Action, recv []model.Message) model.State {
	return timelessState{e.Min.Update(i, s.(timelessState).State, a, recv)}
}

// TestConformanceChecksKeyNamesTime is convention 10 under both drivers:
// keys that carry no time are reported, and nothing else is.
func TestConformanceChecksKeyNamesTime(t *testing.T) {
	pats, err := adversary.NewSOPatterns(3, 1, 3, adversary.Options{})
	if err != nil {
		t.Fatal(err)
	}
	for name, vs := range map[string][]string{
		"random":   CheckExchange(timelessExchange{exchange.NewMin(3)}, 7, 5),
		"patterns": CheckExchangePatterns(timelessExchange{exchange.NewMin(3)}, pats, 7),
	} {
		if len(vs) == 0 {
			t.Errorf("%s driver: keys that carry no time were not reported", name)
		}
		for _, v := range vs {
			if !strings.Contains(v, "does not name its time") {
				t.Errorf("%s driver: a timeless but otherwise conformant exchange drew another report: %s", name, v)
				break
			}
		}
	}
}
