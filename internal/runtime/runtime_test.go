package runtime

import (
	"math/rand"
	"strings"
	"testing"

	"repro/internal/action"
	"repro/internal/adversary"
	"repro/internal/engine"
	"repro/internal/exchange"
	"repro/internal/model"
	"repro/internal/registry"
)

// assertSameResult compares the concurrent result against the sequential
// engine's, field by field.
func assertSameResult(t *testing.T, seq, conc *engine.Result) {
	t.Helper()
	if seq.Stats != conc.Stats {
		t.Errorf("stats differ: sequential %+v, concurrent %+v", seq.Stats, conc.Stats)
	}
	for m := range seq.States {
		for i := range seq.States[m] {
			if string(seq.States[m][i].AppendKey(nil)) != string(conc.States[m][i].AppendKey(nil)) {
				t.Fatalf("state differs at time %d agent %d", m, i)
			}
		}
	}
	for m := range seq.Actions {
		for i := range seq.Actions[m] {
			if seq.Actions[m][i] != conc.Actions[m][i] {
				t.Fatalf("action differs at time %d agent %d: %v vs %v",
					m, i, seq.Actions[m][i], conc.Actions[m][i])
			}
		}
	}
	for i := range seq.Decision {
		if seq.Decision[i] != conc.Decision[i] || seq.DecisionRound[i] != conc.DecisionRound[i] {
			t.Fatalf("decision ledger differs for agent %d", i)
		}
	}
}

func TestConcurrentMatchesSequentialAllStacks(t *testing.T) {
	// Stacks are enumerated through the registry, so every registered
	// pairing — including fip+pmin and fip-nock — is covered without this
	// test having to list names.
	rng := rand.New(rand.NewSource(99))
	n, tf := 5, 2
	for _, name := range registry.StackNames() {
		info, err := registry.Stack(name)
		if err != nil {
			t.Fatal(err)
		}
		ex, act, err := registry.Compose(info.Exchange, info.Action, n, tf)
		if err != nil {
			t.Fatal(err)
		}
		for trial := 0; trial < 25; trial++ {
			pat := adversary.RandomSO(rng, n, tf, tf+2, 0.4)
			inits := make([]model.Value, n)
			for i := range inits {
				inits[i] = model.Value(rng.Intn(2))
			}
			cfg := engine.Config{Exchange: ex, Action: act, Pattern: pat, Inits: inits}
			seq, err := engine.Run(cfg)
			if err != nil {
				t.Fatal(err)
			}
			conc, err := Run(cfg)
			if err != nil {
				t.Fatal(err)
			}
			assertSameResult(t, seq, conc)
		}
	}
}

// TestExecutorInterfaceMatches drives both executors through the
// engine.Executor interface — the path the core Runner uses — with and
// without reusable buffers, and requires byte-identical traces.
func TestExecutorInterfaceMatches(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	n, tf := 5, 2
	executors := []engine.Executor{engine.Sequential{}, Concurrent{}}
	if executors[0].Name() != "sequential" || executors[1].Name() != "concurrent" {
		t.Fatalf("executor names: %q, %q", executors[0].Name(), executors[1].Name())
	}
	buf := engine.NewBuffers()
	for _, name := range registry.StackNames() {
		info, err := registry.Stack(name)
		if err != nil {
			t.Fatal(err)
		}
		ex, act, err := registry.Compose(info.Exchange, info.Action, n, tf)
		if err != nil {
			t.Fatal(err)
		}
		for trial := 0; trial < 10; trial++ {
			pat := adversary.RandomSO(rng, n, tf, tf+2, 0.4)
			inits := make([]model.Value, n)
			for i := range inits {
				inits[i] = model.Value(rng.Intn(2))
			}
			cfg := engine.Config{Exchange: ex, Action: act, Pattern: pat, Inits: inits}
			want, err := executors[0].Execute(cfg, nil)
			if err != nil {
				t.Fatal(err)
			}
			// Buffered runs on both substrates must reproduce the
			// unbuffered trace exactly (the concurrent executor ignores
			// the buffers).
			for _, x := range executors {
				got, err := x.Execute(cfg, buf)
				if err != nil {
					t.Fatalf("%s on %s: %v", x.Name(), name, err)
				}
				assertSameResult(t, want, got)
			}
		}
	}
}

// TestConcurrentReuseResultsOwnTheirMemory re-runs configurations with
// one Buffers in hand — the calls a Runner worker makes —
// and checks earlier results survive untouched: an executor may do what
// it likes with scratch, but nothing reachable from a returned Result
// may be reused.
func TestConcurrentReuseResultsOwnTheirMemory(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	n, tf := 4, 1
	ex := exchange.NewFIP(n)
	act := action.NewOpt(tf)
	buf := engine.NewBuffers()
	type snap struct {
		res  *engine.Result
		keys []string
	}
	var snaps []snap
	for trial := 0; trial < 12; trial++ {
		pat := adversary.RandomSO(rng, n, tf, tf+2, 0.5)
		inits := make([]model.Value, n)
		for i := range inits {
			inits[i] = model.Value(rng.Intn(2))
		}
		cfg := engine.Config{Exchange: ex, Action: act, Pattern: pat, Inits: inits}
		res, err := Concurrent{}.Execute(cfg, buf)
		if err != nil {
			t.Fatal(err)
		}
		var keys []string
		for m := range res.States {
			for i := range res.States[m] {
				keys = append(keys, string(res.States[m][i].AppendKey(nil)))
			}
		}
		snaps = append(snaps, snap{res: res, keys: keys})
		// Every earlier result must still fingerprint identically.
		for s, sn := range snaps {
			k := 0
			for m := range sn.res.States {
				for i := range sn.res.States[m] {
					if string(sn.res.States[m][i].AppendKey(nil)) != sn.keys[k] {
						t.Fatalf("trial %d scribbled over result %d (time %d agent %d)", trial, s, m, i)
					}
					k++
				}
			}
		}
	}
}

func TestConcurrentValidation(t *testing.T) {
	if _, err := Run(engine.Config{}); err == nil {
		t.Error("empty config accepted")
	}
	n := 3
	cfg := engine.Config{
		Exchange: exchange.NewMin(n),
		Action:   action.NewMin(1),
		Pattern:  adversary.FailureFree(n, 3),
		Inits:    adversary.UniformInits(2, model.One), // wrong length
	}
	if _, err := Run(cfg); err == nil {
		t.Error("short init vector accepted")
	}
	cfg.Inits = []model.Value{model.One, model.None, model.One}
	if _, err := Run(cfg); err == nil {
		t.Error("unset init accepted")
	}
	cfg.Inits = adversary.UniformInits(n, model.One)
	cfg.Pattern = adversary.FailureFree(4, 3)
	if _, err := Run(cfg); err == nil {
		t.Error("pattern size mismatch accepted")
	}
}

// panicAction panics at time 1 to exercise error propagation.
type panicAction struct{}

func (panicAction) Name() string { return "Ppanic" }
func (panicAction) Act(_ model.AgentID, s model.State) model.Action {
	if s.Time() == 1 {
		panic("deliberate test panic")
	}
	return model.Noop
}

func TestConcurrentAgentPanicBecomesError(t *testing.T) {
	n := 3
	cfg := engine.Config{
		Exchange: exchange.NewMin(n),
		Action:   panicAction{},
		Pattern:  adversary.FailureFree(n, 3),
		Inits:    adversary.UniformInits(n, model.One),
	}
	_, err := Run(cfg)
	if err == nil {
		t.Fatal("agent panic was not reported")
	}
	if !strings.Contains(err.Error(), "panicked") {
		t.Errorf("unexpected error: %v", err)
	}
}

func TestConcurrentManyAgents(t *testing.T) {
	// A larger configuration to shake out races (run with -race).
	n, tf := 12, 4
	pat := adversary.Example71(n, tf, tf+2)
	cfg := engine.Config{
		Exchange: exchange.NewBasic(n),
		Action:   action.NewBasic(n),
		Pattern:  pat,
		Inits:    adversary.UniformInits(n, model.One),
	}
	seq, err := engine.Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	conc, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	assertSameResult(t, seq, conc)
	for i := tf; i < n; i++ {
		if conc.Round(model.AgentID(i)) != tf+2 {
			t.Errorf("agent %d decided in round %d, want %d", i, conc.Round(model.AgentID(i)), tf+2)
		}
	}
}
