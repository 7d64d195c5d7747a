// Package conformance checks that an information-exchange protocol
// satisfies the EBA-context conventions of Section 5 of the paper, which
// every result in the paper (and every component in this repository)
// relies on:
//
//  1. initial states are ⟨0, init, ⊥, ⊥, …⟩;
//  2. δ advances the time component by exactly one per round;
//  3. the message classes are disjoint and action-determined: a decide-0
//     round sends only M0 messages, a decide-1 round only M1 messages, and
//     every other round only M2 messages (Announces reports the class);
//  4. δ records decisions in the decided component and never un-decides;
//  5. jd reflects the decide announcements received in the last round;
//  6. δ is a function: equal states, actions, and inboxes give equal
//     successor states (checked by re-application);
//  7. μ fills the row it is handed: the result has length N and every
//     entry is overwritten, so a row still holding an earlier round's
//     messages and a clean one yield the same messages — the engine hands
//     every exchange the same rows round after round;
//  8. a model.KeyPermuter maps agent i's key to agent π(i)'s key in the
//     scenario's twin relabeled by π (drawn from the seed), at every time;
//  9. states are comparable with == (model.State's contract): the model
//     checker's round memo keys a map by state vectors, and a state type
//     holding a slice, a map or a func would panic there;
//  10. a key names its time: no agent's key at one time is its key at
//     another, in any run — the model checker identifies a state by its
//     (time, agent) slot and its class there, with no id across times;
//  11. AppendKey appends: after a prefix it adds exactly the key it
//     appends to nil and leaves the prefix alone — the model checker
//     renders keys into one reused buffer;
//  12. equal keys imply equal states: within one driver's runs, an
//     agent's states that share a key are deeply equal — the model checker
//     knows a state only by its key, so a lossy key would merge classes
//     every checker and oracle then agree on.
//
// Two drivers exercise the conventions: CheckExchange samples random
// omission behavior (cheap, any n), and CheckExchangePatterns drives the
// exchange under every failure pattern pulled from an enumerated stream
// (exhaustive at small n — the adversary package's SO or crash iterators
// slot in directly). Downstream users adding their own exchange protocols
// can run both against them before pairing them with the action protocols
// in this repository.
package conformance

import (
	"fmt"
	"hash/fnv"
	"math/rand"
	"reflect"

	"repro/internal/model"
)

// Patterns is the pull-style failure-pattern stream CheckExchangePatterns
// consumes; adversary.SOPatterns and adversary.CrashPatterns satisfy it.
type Patterns interface {
	Next() (*model.Pattern, bool)
}

// reporter accumulates violation descriptions, and the state in which
// each agent first held each key (conventions 10 and 12).
type reporter struct {
	out   []string
	first map[agentKey]model.State
}

type agentKey struct {
	agent model.AgentID
	key   string
}

func (r *reporter) report(format string, args ...interface{}) {
	r.out = append(r.out, fmt.Sprintf(format, args...))
}

// lazyLabel renders a trial/pattern label only when a violation is
// actually reported, keeping the conformant sweep allocation-free of
// per-pattern label formatting.
type lazyLabel func() string

func (l lazyLabel) String() string { return l() }

// staleMessage is what a used row holds before μ is called on it.
type staleMessage struct{}

func (staleMessage) Announces() model.Value { return model.None }
func (staleMessage) Bits() int              { return 0 }
func (staleMessage) String() string         { return "stale entry" }

// sameMessage compares two messages by everything a Message exposes.
func sameMessage(a, b model.Message) bool {
	if a == nil || b == nil {
		return a == nil && b == nil
	}
	return a.Announces() == b.Announces() && a.Bits() == b.Bits() && a.String() == b.String()
}

// checkState verifies conventions 9 to 12 on agent i's state s.
func (r *reporter) checkState(i int, s model.State, label lazyLabel) {
	if !reflect.TypeOf(s).Comparable() {
		r.report("%s: state type %T is not comparable with ==", label, s)
	}
	const prefix = "prefix|"
	key := string(s.AppendKey(nil))
	if got := string(s.AppendKey([]byte(prefix))); got != prefix+key {
		r.report("%s: agent %d's AppendKey after %q gives %q, not the prefix and %q", label, i, prefix, got, key)
	}
	if r.first == nil {
		r.first = make(map[agentKey]model.State)
	}
	k := agentKey{model.AgentID(i), key}
	if first, seen := r.first[k]; !seen {
		r.first[k] = s
	} else if first.Time() != s.Time() {
		r.report("%s: agent %d's key %q at time %d is its key at time %d too: the key does not name its time", label, i, k.key, s.Time(), first.Time())
	} else if !reflect.DeepEqual(first, s) {
		r.report("%s: agent %d's key %q at time %d is the key of another state: %+v and %+v", label, i, k.key, s.Time(), first, s)
	}
}

// initialStates builds and convention-checks the initial states (1).
func initialStates(ex model.Exchange, inits []model.Value, label lazyLabel, r *reporter) []model.State {
	n := ex.N()
	states := make([]model.State, n)
	for i := 0; i < n; i++ {
		states[i] = ex.Initial(model.AgentID(i), inits[i])
		s := states[i]
		if s.Time() != 0 || s.Init() != inits[i] || s.Decided() != model.None || s.JustDecided() != model.None {
			r.report("%s: initial state of agent %d is not ⟨0, %v, ⊥, ⊥⟩: %s", label, i, inits[i], s.AppendKey(nil))
		}
		r.checkState(i, s, label)
	}
	return states
}

// twin is convention 8's run of a scenario relabeled by perm, stepped
// beside it; its states are indexed by new identity.
type twin struct {
	perm   []model.AgentID
	states []model.State
}

// newTwin starts the twin of a scenario and checks the time-0 states; it
// is nil, checking nothing, when the exchange has no model.KeyPermuter.
func newTwin(ex model.Exchange, inits []model.Value, states []model.State, rng *rand.Rand, label lazyLabel, r *reporter) *twin {
	if _, ok := ex.(model.KeyPermuter); !ok {
		return nil
	}
	tw := &twin{}
	for _, p := range rng.Perm(ex.N()) {
		tw.perm = append(tw.perm, model.AgentID(p))
	}
	tw.states = initialStates(ex, model.PermuteValues(inits, tw.perm), label, &reporter{})
	tw.check(ex, states, label, r)
	return tw
}

// follow steps the twin through the scenario's round m — the same actions,
// and a message delivered iff its counterpart arrived or was ⊥ — and
// checks convention 8 on the scenario's successors next.
func (tw *twin) follow(ex model.Exchange, m int, acts []model.Action, outbox, inbox [][]model.Message, next []model.State, label lazyLabel, r *reporter) {
	if tw == nil || tw.states == nil {
		return
	}
	inv, tacts := make([]model.AgentID, len(acts)), make([]model.Action, len(acts))
	for i, p := range tw.perm {
		inv[p], tacts[p] = model.AgentID(i), acts[i]
	}
	tw.states, _ = checkRound(ex, m, tw.states, tacts, func(p, q model.AgentID) bool {
		return inbox[inv[q]][inv[p]] != nil || outbox[inv[p]][inv[q]] == nil
	}, nil, label, &reporter{})
	tw.check(ex, next, label, r)
}

// check verifies convention 8 at one time.
func (tw *twin) check(ex model.Exchange, states []model.State, label lazyLabel, r *reporter) {
	for i, s := range states {
		key, want := s.AppendKey(nil), tw.states[tw.perm[i]].AppendKey(nil)
		if got, err := ex.(model.KeyPermuter).AppendPermuteKey(nil, key, tw.perm); err != nil || string(got) != string(want) {
			r.report("%s time %d: agent %d's key %q rewrites under %v to %q (err %v), but the relabeled run's agent %d holds %q",
				label, s.Time(), i, key, tw.perm, got, err, tw.perm[i], want)
		}
	}
}

// checkRound drives one round: every agent sends under its action, the
// deliver rule decides which messages arrive, and conventions 2–9 are
// verified on the resulting transition. It returns the successor states,
// or false when a structural violation (wrong outbox size) makes
// continuing meaningless.
func checkRound(ex model.Exchange, m int, states []model.State, acts []model.Action,
	deliver func(i, j model.AgentID) bool, tw *twin, label lazyLabel, r *reporter) ([]model.State, bool) {
	n := ex.N()
	outbox := make([][]model.Message, n)
	for i := 0; i < n; i++ {
		outbox[i] = ex.Messages(model.AgentID(i), states[i], acts[i], make([]model.Message, n))
		// Convention 7: a used row yields the same messages as a clean one.
		used := make([]model.Message, n)
		for j := range used {
			used[j] = staleMessage{}
		}
		used = ex.Messages(model.AgentID(i), states[i], acts[i], used)
		if len(outbox[i]) != n || len(used) != n {
			r.report("%s round %d: agent %d sent %d messages (%d into a used row) for %d agents", label, m, i, len(outbox[i]), len(used), n)
			return nil, false
		}
		for j := range used {
			if !sameMessage(used[j], outbox[i][j]) {
				r.report("%s round %d: agent %d entry %d is %v in a used row, %v in a clean one", label, m, i, j, used[j], outbox[i][j])
			}
		}
		// Convention 3: the class of every message matches the action.
		want := acts[i].Decision()
		for j, msg := range outbox[i] {
			if msg == nil {
				if want.IsSet() {
					r.report("%s round %d: agent %d decided %v but sent ⊥ to %d", label, m, i, want, j)
				}
				continue
			}
			if msg.Announces() != want {
				r.report("%s round %d: agent %d action %v sent class-%v message", label, m, i, acts[i], msg.Announces())
			}
			if msg.Bits() <= 0 {
				r.report("%s round %d: agent %d message with non-positive size", label, m, i)
			}
		}
	}

	inbox := make([][]model.Message, n)
	for j := 0; j < n; j++ {
		inbox[j] = make([]model.Message, n)
		for i := 0; i < n; i++ {
			if msg := outbox[i][j]; msg != nil && deliver(model.AgentID(i), model.AgentID(j)) {
				inbox[j][i] = msg
			}
		}
	}

	next := make([]model.State, n)
	for i := 0; i < n; i++ {
		prev := states[i]
		next[i] = ex.Update(model.AgentID(i), prev, acts[i], inbox[i])
		// Convention 2: time advances by one.
		if next[i].Time() != prev.Time()+1 {
			r.report("%s round %d: agent %d time %d → %d", label, m, i, prev.Time(), next[i].Time())
		}
		// Convention 4: decisions recorded, never lost.
		if d := acts[i].Decision(); d.IsSet() && next[i].Decided() != d {
			r.report("%s round %d: agent %d decided %v but state records %v", label, m, i, d, next[i].Decided())
		}
		if prev.Decided().IsSet() && !acts[i].IsDecide() && next[i].Decided() != prev.Decided() {
			r.report("%s round %d: agent %d lost its decision", label, m, i)
		}
		// Convention 5: jd reflects received announcements, 0 first.
		wantJD := model.None
		for _, msg := range inbox[i] {
			if msg == nil {
				continue
			}
			switch msg.Announces() {
			case model.Zero:
				wantJD = model.Zero
			case model.One:
				if wantJD == model.None {
					wantJD = model.One
				}
			}
		}
		if next[i].JustDecided() != wantJD {
			r.report("%s round %d: agent %d jd = %v, want %v", label, m, i, next[i].JustDecided(), wantJD)
		}
		// Convention 6: δ is a function of its inputs.
		again := ex.Update(model.AgentID(i), prev, acts[i], inbox[i])
		if string(again.AppendKey(nil)) != string(next[i].AppendKey(nil)) {
			r.report("%s round %d: agent %d δ is not deterministic", label, m, i)
		}
		// Init is immutable.
		if next[i].Init() != prev.Init() {
			r.report("%s round %d: agent %d initial preference changed", label, m, i)
		}
		r.checkState(i, next[i], label)
	}
	tw.follow(ex, m, acts, outbox, inbox, next, label, r)
	return next, true
}

// randomActions draws plausible actions as an action protocol would, a
// function of the agent and its state: an undecided agent occasionally
// decides a value, both drawn from a hash of the seed, the agent and its
// key. States that share a key then act alike, as convention 12 needs.
func randomActions(seed int64, states []model.State) []model.Action {
	acts := make([]model.Action, len(states))
	for i, s := range states {
		h := fnv.New64a()
		fmt.Fprintf(h, "%d|%d|%s", seed, i, s.AppendKey(nil))
		if d := h.Sum64(); s.Decided() == model.None && d%4 == 0 {
			acts[i] = model.Decide(model.Value(d >> 2 & 1))
		}
	}
	return acts
}

// CheckExchange drives the exchange through `trials` random rounds per
// trial configuration and reports every convention violation found (nil
// means conformant). The action inputs are arbitrary — conventions must
// hold for every action protocol, not just the intended one.
func CheckExchange(ex model.Exchange, seed int64, trials int) []string {
	r := &reporter{}
	rng, perms := rand.New(rand.NewSource(seed)), rand.New(rand.NewSource(seed))
	n := ex.N()

	for trial := 0; trial < trials; trial++ {
		label := lazyLabel(func() string { return fmt.Sprintf("trial %d", trial) })
		inits := make([]model.Value, n)
		for i := range inits {
			inits[i] = model.Value(rng.Intn(2))
		}
		states := initialStates(ex, inits, label, r)
		tw := newTwin(ex, inits, states, perms, label, r)
		rounds := 2 + rng.Intn(4)
		for m := 0; m < rounds; m++ {
			acts := randomActions(seed, states)
			// Random omissions: self-messages always arrive.
			next, ok := checkRound(ex, m, states, acts, func(i, j model.AgentID) bool {
				return i == j || rng.Intn(3) != 0
			}, tw, label, r)
			if !ok {
				return r.out
			}
			states = next
		}
	}
	return r.out
}

// CheckExchangePatterns drives the exchange under every failure pattern
// the stream produces — omissions follow the pattern's Delivered relation
// instead of coin flips, so the check covers the exact adversaries of the
// failure model, exhaustively when fed an enumerated stream such as
// adversary.NewSOPatterns. Actions are still drawn at random from the
// seed (conventions must hold for every action protocol). It reports
// every convention violation found; nil means conformant.
func CheckExchangePatterns(ex model.Exchange, patterns Patterns, seed int64) []string {
	r := &reporter{}
	rng, perms := rand.New(rand.NewSource(seed)), rand.New(rand.NewSource(seed))
	n := ex.N()

	for k := 0; ; k++ {
		pat, ok := patterns.Next()
		if !ok {
			return r.out
		}
		if pat.N() != n {
			r.report("pattern %d: %d agents for an exchange of %d", k, pat.N(), n)
			return r.out
		}
		label := lazyLabel(func() string { return fmt.Sprintf("pattern %d (%v)", k, pat) })
		inits := make([]model.Value, n)
		for i := range inits {
			inits[i] = model.Value(rng.Intn(2))
		}
		states := initialStates(ex, inits, label, r)
		tw := newTwin(ex, inits, states, perms, label, r)
		for m := 0; m < pat.Horizon(); m++ {
			acts := randomActions(seed, states)
			next, ok := checkRound(ex, m, states, acts, func(i, j model.AgentID) bool {
				return pat.Delivered(m, i, j)
			}, tw, label, r)
			if !ok {
				return r.out
			}
			states = next
		}
	}
}
