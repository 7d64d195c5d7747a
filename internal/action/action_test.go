package action

import (
	"math/rand"
	"testing"

	"repro/internal/adversary"
	"repro/internal/engine"
	"repro/internal/exchange"
	"repro/internal/model"
)

func runStack(t *testing.T, ex model.Exchange, p model.ActionProtocol, pat *model.Pattern, inits []model.Value) *engine.Result {
	t.Helper()
	res, err := engine.Run(engine.Config{Exchange: ex, Action: p, Pattern: pat, Inits: inits})
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func TestPminFailureFreeAllOnes(t *testing.T) {
	// Proposition 8.2(b): P_min waits until round t+2.
	for _, tf := range []int{1, 2, 3} {
		n := tf + 3
		res := runStack(t, exchange.NewMin(n), NewMin(tf),
			adversary.FailureFree(n, tf+2), adversary.UniformInits(n, model.One))
		for i := 0; i < n; i++ {
			if res.Decided(model.AgentID(i)) != model.One || res.Round(model.AgentID(i)) != tf+2 {
				t.Errorf("t=%d agent %d: %v in round %d, want 1 in round %d",
					tf, i, res.Decided(model.AgentID(i)), res.Round(model.AgentID(i)), tf+2)
			}
		}
	}
}

func TestPminFailureFreeWithZero(t *testing.T) {
	// Proposition 8.2(a): someone holds a 0 → everyone decides 0 by round 2.
	n, tf := 5, 2
	inits := adversary.UniformInits(n, model.One)
	inits[3] = model.Zero
	res := runStack(t, exchange.NewMin(n), NewMin(tf),
		adversary.FailureFree(n, tf+2), inits)
	if res.Round(3) != 1 {
		t.Errorf("initial-0 agent decided in round %d, want 1", res.Round(3))
	}
	for i := 0; i < n; i++ {
		if res.Decided(model.AgentID(i)) != model.Zero || res.Round(model.AgentID(i)) > 2 {
			t.Errorf("agent %d: %v in round %d, want 0 by round 2",
				i, res.Decided(model.AgentID(i)), res.Round(model.AgentID(i)))
		}
	}
}

func TestPbasicFailureFreeAllOnes(t *testing.T) {
	// Proposition 8.2(b): P_basic decides in round 2.
	for _, n := range []int{3, 5, 8} {
		tf := 1
		res := runStack(t, exchange.NewBasic(n), NewBasic(n),
			adversary.FailureFree(n, tf+2), adversary.UniformInits(n, model.One))
		for i := 0; i < n; i++ {
			if res.Decided(model.AgentID(i)) != model.One || res.Round(model.AgentID(i)) != 2 {
				t.Errorf("n=%d agent %d: %v in round %d, want 1 in round 2",
					n, i, res.Decided(model.AgentID(i)), res.Round(model.AgentID(i)))
			}
		}
	}
}

func TestPbasicFailureFreeWithZero(t *testing.T) {
	n, tf := 5, 2
	inits := adversary.UniformInits(n, model.One)
	inits[0] = model.Zero
	res := runStack(t, exchange.NewBasic(n), NewBasic(n),
		adversary.FailureFree(n, tf+2), inits)
	for i := 0; i < n; i++ {
		if res.Decided(model.AgentID(i)) != model.Zero || res.Round(model.AgentID(i)) > 2 {
			t.Errorf("agent %d: %v in round %d, want 0 by round 2",
				i, res.Decided(model.AgentID(i)), res.Round(model.AgentID(i)))
		}
	}
}

func TestPminPbasicExample71WaitUntilTPlus2(t *testing.T) {
	// Example 7.1: with silent faulty agents and all-1 preferences, the
	// limited-information protocols cannot decide before round t+2.
	n, tf := 6, 3
	pat := adversary.Example71(n, tf, tf+2)
	inits := adversary.UniformInits(n, model.One)

	res := runStack(t, exchange.NewMin(n), NewMin(tf), pat, inits)
	for i := tf; i < n; i++ {
		if res.Round(model.AgentID(i)) != tf+2 {
			t.Errorf("Pmin agent %d decided in round %d, want %d", i, res.Round(model.AgentID(i)), tf+2)
		}
	}

	res = runStack(t, exchange.NewBasic(n), NewBasic(n), pat, inits)
	for i := tf; i < n; i++ {
		if res.Round(model.AgentID(i)) != tf+2 {
			t.Errorf("Pbasic agent %d decided in round %d, want %d", i, res.Round(model.AgentID(i)), tf+2)
		}
	}
}

func TestPminBitsExactlyNSquared(t *testing.T) {
	// Proposition 8.1: P_min sends exactly n² bits in every run.
	rng := rand.New(rand.NewSource(3))
	for _, n := range []int{3, 5, 9} {
		tf := 2
		for trial := 0; trial < 10; trial++ {
			pat := adversary.RandomSO(rng, n, tf, tf+2, 0.4)
			inits := make([]model.Value, n)
			for i := range inits {
				inits[i] = model.Value(rng.Intn(2))
			}
			res := runStack(t, exchange.NewMin(n), NewMin(tf), pat, inits)
			if res.Stats.BitsSent != int64(n*n) {
				t.Errorf("n=%d trial %d: Pmin sent %d bits, want %d",
					n, trial, res.Stats.BitsSent, n*n)
			}
			if res.Stats.MessagesSent != n*n {
				t.Errorf("n=%d trial %d: Pmin sent %d messages, want %d",
					n, trial, res.Stats.MessagesSent, n*n)
			}
		}
	}
}

func TestPbasicBitsWithinBound(t *testing.T) {
	// Proposition 8.1: P_basic sends O(n²t) bits; concretely at most
	// 2·n²·(t+2) bits with the 2-bit encoding (undecided agents broadcast
	// for at most t+1 rounds, plus the deciding broadcast).
	rng := rand.New(rand.NewSource(4))
	for _, n := range []int{4, 6} {
		tf := 2
		for trial := 0; trial < 10; trial++ {
			pat := adversary.RandomSO(rng, n, tf, tf+2, 0.4)
			inits := make([]model.Value, n)
			for i := range inits {
				inits[i] = model.Value(rng.Intn(2))
			}
			res := runStack(t, exchange.NewBasic(n), NewBasic(n), pat, inits)
			bound := int64(2 * n * n * (tf + 2))
			if res.Stats.BitsSent > bound {
				t.Errorf("n=%d trial %d: Pbasic sent %d bits, bound %d",
					n, trial, res.Stats.BitsSent, bound)
			}
		}
	}
}

func TestAgreementValidityTerminationRandom(t *testing.T) {
	// The three stacks satisfy EBA on random omission adversaries.
	type stack struct {
		name string
		ex   func(n int) model.Exchange
		act  func(n, tf int) model.ActionProtocol
	}
	stacks := []stack{
		{"min", func(n int) model.Exchange { return exchange.NewMin(n) },
			func(n, tf int) model.ActionProtocol { return NewMin(tf) }},
		{"basic", func(n int) model.Exchange { return exchange.NewBasic(n) },
			func(n, tf int) model.ActionProtocol { return NewBasic(n) }},
	}
	rng := rand.New(rand.NewSource(11))
	n, tf := 5, 2
	for _, st := range stacks {
		for trial := 0; trial < 80; trial++ {
			pat := adversary.RandomSO(rng, n, tf, tf+2, 0.5)
			inits := make([]model.Value, n)
			for i := range inits {
				inits[i] = model.Value(rng.Intn(2))
			}
			res := runStack(t, st.ex(n), st.act(n, tf), pat, inits)
			var dec model.Value = model.None
			for i := 0; i < n; i++ {
				id := model.AgentID(i)
				v := res.Decided(id)
				if v == model.None {
					t.Fatalf("%s trial %d: agent %d undecided\npattern %v inits %v",
						st.name, trial, i, pat, inits)
				}
				if res.Round(id) > tf+2 {
					t.Fatalf("%s trial %d: agent %d decided in round %d > t+2",
						st.name, trial, i, res.Round(id))
				}
				found := false
				for _, iv := range inits {
					if iv == v {
						found = true
					}
				}
				if !found {
					t.Fatalf("%s trial %d: validity violated", st.name, trial)
				}
				if pat.Nonfaulty(id) {
					if dec == model.None {
						dec = v
					} else if dec != v {
						t.Fatalf("%s trial %d: agreement violated\npattern %v inits %v",
							st.name, trial, pat, inits)
					}
				}
			}
		}
	}
}

func TestNaiveCounterexampleIntroRunRPrime(t *testing.T) {
	// The introduction's run r′ with n=3, t=1: agent 0 is faulty with
	// initial preference 0; its round-1 decide-0 broadcast is dropped, and
	// its only delivered message is the round-2 one to agent 2, whose graph
	// records that initial 0. Agent 1 times out and decides 1 in round 3; agent 2
	// hears about the 0 and decides 0 in round 3 — two nonfaulty agents
	// disagree, so the naive 0-biased protocol is not an EBA protocol
	// under omission failures.
	n, tf := 3, 1
	pat := model.NewPattern(n, tf+2)
	pat.Silence(0, 0, tf+2)                      // drop everything...
	pat.SetFaulty(0)                             // (already faulty, explicit for clarity)
	pat = restoreDelivery(pat, 1, 0, 2, tf+2, n) // ...except round 2 to agent 2

	inits := []model.Value{model.Zero, model.One, model.One}
	res := runStack(t, exchange.NewFIP(n), NewNaive(tf), pat, inits)

	if res.Decided(1) != model.One || res.Round(1) != 3 {
		t.Fatalf("agent 1: %v in round %d, want 1 in round 3", res.Decided(1), res.Round(1))
	}
	if res.Decided(2) != model.Zero || res.Round(2) != 3 {
		t.Fatalf("agent 2: %v in round %d, want 0 in round 3", res.Decided(2), res.Round(2))
	}
	// Agreement among the nonfaulty agents 1 and 2 is violated.
	if res.Decided(1) == res.Decided(2) {
		t.Fatal("counterexample failed to produce disagreement")
	}
}

// restoreDelivery rebuilds a pattern like pat but with the (m, from, to)
// message delivered. model.Pattern has no "undrop"; rebuilding keeps the
// builder API honest.
func restoreDelivery(pat *model.Pattern, m int, from, to model.AgentID, horizon, n int) *model.Pattern {
	q := model.NewPattern(n, horizon)
	for i := 0; i < n; i++ {
		if pat.Faulty(model.AgentID(i)) {
			q.SetFaulty(model.AgentID(i))
		}
	}
	for mm := 0; mm < horizon; mm++ {
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				if !pat.Delivered(mm, model.AgentID(i), model.AgentID(j)) &&
					!(mm == m && model.AgentID(i) == from && model.AgentID(j) == to) {
					q.Drop(mm, model.AgentID(i), model.AgentID(j))
				}
			}
		}
	}
	return q
}

func TestNaiveSafeUnderCrash(t *testing.T) {
	// Under crash failures, every way of hearing about a 0 is a chain, so
	// the naive protocol satisfies agreement. Exhaustive over all crash(1)
	// patterns and all initial vectors for n=3.
	n, tf := 3, 1
	crash, err := adversary.NewCrashPatterns(n, tf, tf+2)
	if err != nil {
		t.Fatal(err)
	}
	for pat, ok := crash.Next(); ok; pat, ok = crash.Next() {
		p := pat.Clone()
		ivs, err := adversary.NewInitVectors(n)
		if err != nil {
			t.Fatal(err)
		}
		for inits, ok2 := ivs.Next(); ok2; inits, ok2 = ivs.Next() {
			res := runStack(t, exchange.NewFIP(n), NewNaive(tf), p,
				append([]model.Value(nil), inits...))
			var dec model.Value = model.None
			for i := 0; i < n; i++ {
				id := model.AgentID(i)
				if !p.Nonfaulty(id) {
					continue
				}
				v := res.Decided(id)
				if v == model.None {
					t.Fatalf("nonfaulty %d undecided under crash pattern %v inits %v", i, p, inits)
				}
				if dec == model.None {
					dec = v
				} else if dec != v {
					t.Fatalf("naive protocol disagreed under CRASH pattern %v inits %v", p, inits)
				}
			}
		}
	}
}

func TestConstructorValidation(t *testing.T) {
	for name, f := range map[string]func(){
		"Min":   func() { NewMin(-1) },
		"Basic": func() { NewBasic(0) },
		"Opt":   func() { NewOpt(-2) },
		"Naive": func() { NewNaive(-1) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("New%s with invalid argument did not panic", name)
				}
			}()
			f()
		}()
	}
}

func TestActStateTypeMismatchPanics(t *testing.T) {
	minState := exchange.NewMin(2).Initial(0, model.One)
	for name, p := range map[string]model.ActionProtocol{
		"Pbasic": NewBasic(2),
		"Popt":   NewOpt(1),
		"Pnaive": NewNaive(1),
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s.Act on a Min state did not panic", name)
				}
			}()
			p.Act(0, minState)
		}()
	}
}

func TestNames(t *testing.T) {
	if NewMin(1).Name() != "Pmin" || NewBasic(3).Name() != "Pbasic" ||
		NewOpt(1).Name() != "Popt" || NewNaive(1).Name() != "Pnaive" {
		t.Error("unexpected protocol names")
	}
}
