package conformance

import (
	"fmt"
	"strconv"
	"strings"
	"testing"

	"repro/internal/adversary"
	"repro/internal/exchange"
	"repro/internal/model"
	"repro/internal/registry"
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

func (s idKeyState) AppendKey(dst []byte) []byte {
	return fmt.Appendf(s.State.AppendKey(dst), "@%d", s.id)
}

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

func (identityFIP) AppendPermuteKey(dst []byte, key []byte, _ []model.AgentID) ([]byte, error) {
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

func (s timelessState) AppendKey(dst []byte) []byte {
	return fmt.Appendf(dst, "min:*:%v:%v:%v", s.Init(), s.Decided(), s.JustDecided())
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

// blindExchange is Emin with the jd field of every key blanked: a
// well-formed Emin key that names its time, but one that two states
// differing in jd share.
type blindExchange struct {
	*exchange.Min
}

type blindState struct{ model.State }

func (s blindState) AppendKey(dst []byte) []byte {
	return fmt.Appendf(dst, "min:%d:%v:%v:*", s.Time(), s.Init(), s.Decided())
}

func (e blindExchange) Initial(i model.AgentID, init model.Value) model.State {
	return blindState{e.Min.Initial(i, init)}
}

func (e blindExchange) Messages(i model.AgentID, s model.State, a model.Action, out []model.Message) []model.Message {
	return e.Min.Messages(i, s.(blindState).State, a, out)
}

func (e blindExchange) Update(i model.AgentID, s model.State, a model.Action, recv []model.Message) model.State {
	return blindState{e.Min.Update(i, s.(blindState).State, a, recv)}
}

// TestConformanceChecksKeysAreFaithful is convention 12 under both
// drivers: a key that two different states share is reported, and
// nothing else is.
func TestConformanceChecksKeysAreFaithful(t *testing.T) {
	pats, err := adversary.NewSOPatterns(3, 1, 3, adversary.Options{})
	if err != nil {
		t.Fatal(err)
	}
	for name, vs := range map[string][]string{
		"random":   CheckExchange(blindExchange{exchange.NewMin(3)}, 7, 20),
		"patterns": CheckExchangePatterns(blindExchange{exchange.NewMin(3)}, pats, 7),
	} {
		if len(vs) == 0 {
			t.Errorf("%s driver: a key that hides jd was not reported", name)
		}
		for _, v := range vs {
			if !strings.Contains(v, "is the key of another state") {
				t.Errorf("%s driver: a jd-blind but otherwise conformant exchange drew another report: %s", name, v)
				break
			}
		}
	}
}

// freshKeyExchange is Emin with an AppendKey that ignores dst and returns
// a fresh key: right on a nil buffer, wrong on every other.
type freshKeyExchange struct {
	*exchange.Min
}

type freshKeyState struct{ model.State }

func (s freshKeyState) AppendKey([]byte) []byte { return s.State.AppendKey(nil) }

func (e freshKeyExchange) Initial(i model.AgentID, init model.Value) model.State {
	return freshKeyState{e.Min.Initial(i, init)}
}

func (e freshKeyExchange) Messages(i model.AgentID, s model.State, a model.Action, out []model.Message) []model.Message {
	return e.Min.Messages(i, s.(freshKeyState).State, a, out)
}

func (e freshKeyExchange) Update(i model.AgentID, s model.State, a model.Action, recv []model.Message) model.State {
	return freshKeyState{e.Min.Update(i, s.(freshKeyState).State, a, recv)}
}

// TestConformanceChecksAppendKey is convention 11 under both drivers: an
// AppendKey that drops the buffer it is given is reported, and nothing
// else is.
func TestConformanceChecksAppendKey(t *testing.T) {
	pats, err := adversary.NewSOPatterns(3, 1, 3, adversary.Options{})
	if err != nil {
		t.Fatal(err)
	}
	for name, vs := range map[string][]string{
		"random":   CheckExchange(freshKeyExchange{exchange.NewMin(3)}, 7, 5),
		"patterns": CheckExchangePatterns(freshKeyExchange{exchange.NewMin(3)}, pats, 7),
	} {
		if len(vs) == 0 {
			t.Errorf("%s driver: an AppendKey that drops its buffer was not reported", name)
		}
		for _, v := range vs {
			if !strings.Contains(v, "AppendKey after") {
				t.Errorf("%s driver: an exchange that only drops AppendKey's buffer drew another report: %s", name, v)
				break
			}
		}
	}
}

// recordingExchange hands out an exchange's states and keeps every one.
// It hides the exchange's model.KeyPermuter, so the twins of convention 8
// add none.
type recordingExchange struct {
	model.Exchange
	states []model.State
}

func (e *recordingExchange) Initial(i model.AgentID, init model.Value) model.State {
	s := e.Exchange.Initial(i, init)
	e.states = append(e.states, s)
	return s
}

func (e *recordingExchange) Update(i model.AgentID, s model.State, a model.Action, recv []model.Message) model.State {
	next := e.Exchange.Update(i, s, a, recv)
	e.states = append(e.states, next)
	return next
}

// stringKey is model.State's Key() string as it was before states
// appended their keys, kept as the oracle AppendKey must spell:
// tag:time:init:decided:jd for Emin, then :#1 for Ebasic, and for Efip
// the graph's owner|time|prefs|round 1|… with ? for an unknown label.
func stringKey(t *testing.T, s model.State) string {
	tuple := func(tag string, s model.State) string {
		var b strings.Builder
		b.WriteString(tag + ":" + strconv.Itoa(s.Time()))
		for _, v := range []model.Value{s.Init(), s.Decided(), s.JustDecided()} {
			b.WriteString(":" + v.String())
		}
		return b.String()
	}
	switch s := s.(type) {
	case exchange.MinState:
		return tuple("min", s)
	case exchange.BasicState:
		return tuple("basic", s) + ":" + strconv.Itoa(s.NumOnes())
	case *exchange.FIPState:
		g := s.Graph()
		var b strings.Builder
		b.WriteString(strconv.Itoa(int(g.Owner())) + "|" + strconv.Itoa(g.M()) + "|")
		for j := 0; j < g.N(); j++ {
			if v := g.Pref(model.AgentID(j)); v.IsSet() {
				b.WriteString(v.String())
			} else {
				b.WriteByte('?')
			}
		}
		for k := 0; k < g.M(); k++ {
			b.WriteByte('|')
			for i := 0; i < g.N(); i++ {
				for j := 0; j < g.N(); j++ {
					b.WriteString(g.Edge(k, model.AgentID(i), model.AgentID(j)).String())
				}
			}
		}
		return b.String()
	}
	t.Fatalf("no string key for a %T state", s)
	return ""
}

// TestAppendKeyMatchesStringKey drives every registered exchange through
// the exhaustive SO(1) sweeps at n = 2, 3 and 4, under the conventions
// (11 checks that AppendKey appends after a prefix), and holds every state
// it reaches to two more things: AppendKey spells the key the string form
// did, and appending every key into a buffer with room allocates nothing.
func TestAppendKeyMatchesStringKey(t *testing.T) {
	for _, name := range registry.ExchangeNames() {
		info, err := registry.Exchange(name)
		if err != nil {
			t.Fatal(err)
		}
		for n := 2; n <= 4; n++ {
			pats, err := adversary.NewSOPatterns(n, 1, 3, adversary.Options{})
			if err != nil {
				t.Fatal(err)
			}
			rec := &recordingExchange{Exchange: info.New(n)}
			if vs := CheckExchangePatterns(rec, pats, 5); len(vs) != 0 {
				t.Fatalf("%s n=%d: %s", name, n, strings.Join(vs, "\n  "))
			}
			var buf []byte
			for _, s := range rec.states {
				if buf = s.AppendKey(buf[:0]); string(buf) != stringKey(t, s) {
					t.Fatalf("%s n=%d: AppendKey gives %q, the string key was %q", name, n, buf, stringKey(t, s))
				}
			}
			if allocs := testing.AllocsPerRun(1, func() {
				for _, s := range rec.states {
					buf = s.AppendKey(buf[:0])
				}
			}); allocs != 0 {
				t.Errorf("%s n=%d: appending %d keys into a buffer with room allocated %v times", name, n, len(rec.states), allocs)
			}
			t.Logf("%s n=%d: %d states", name, n, len(rec.states))
		}
	}
}
