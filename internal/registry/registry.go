// Package registry is the catalogue of the reproduction's protocol
// components. The paper treats a protocol as a *pair* ⟨information
// exchange E, action protocol P⟩ and asks which pairings are optimal
// (Corollaries 6.7, 7.8); the registry makes that pairing a first-class,
// name-addressable operation. Every information-exchange protocol, every
// action protocol, and every named stack (pairing) the repository knows
// about is registered here under a stable name, so the library facade,
// the command-line tools, and the experiment harness all resolve names
// against a single source of truth and can never drift apart.
//
// Exchanges and actions carry a state *family*: action protocols read
// exchange-specific state components (P_basic needs Ebasic's #1 counter,
// P_opt needs Efip's communication graph), so Compose validates that a
// pairing is well-typed before any agent panics on a state downcast.
package registry

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/action"
	"repro/internal/exchange"
	"repro/internal/model"
)

// Family identifies the local-state family an exchange produces. Action
// protocols declare which families they can act on.
type Family string

// The built-in state families.
const (
	FamilyMin   Family = "min"   // Emin states: ⟨time, init, decided, jd⟩
	FamilyBasic Family = "basic" // Ebasic states: + the #1 counter
	FamilyFIP   Family = "fip"   // Efip states: + the communication graph
)

// ExchangeInfo describes a registered information-exchange protocol.
type ExchangeInfo struct {
	// Name is the registry name ("min", "basic", "fip").
	Name string
	// Description is a one-line human summary for CLI help.
	Description string
	// Family is the state family the exchange produces.
	Family Family
	// New constructs the exchange for n agents.
	New func(n int) model.Exchange
}

// ActionInfo describes a registered action protocol.
type ActionInfo struct {
	// Name is the registry name ("pmin", "pbasic", "popt", ...).
	Name string
	// Description is a one-line human summary for CLI help.
	Description string
	// Families lists the state families the protocol can act on; empty
	// means any family (the protocol only reads the components every EBA
	// context guarantees).
	Families []Family
	// New constructs the protocol for n agents and failure bound t.
	New func(n, t int) model.ActionProtocol
}

// StackInfo describes a registered named pairing ⟨exchange, action⟩.
type StackInfo struct {
	// Name is the stack name ("min", "basic", "fip", "fip+pmin", ...).
	Name string
	// Description is a one-line human summary for CLI help.
	Description string
	// Exchange and Action are registry names of the components.
	Exchange, Action string
	// Program names the knowledge-based program the stack's action
	// protocol implements over its exchange ("P0" or "P1"), or "" when it
	// implements neither (naive, fip+pmin). Model-checking tools use this
	// to decide what to check a stack against.
	Program string
}

func compatible(act ActionInfo, fam Family) bool {
	if len(act.Families) == 0 {
		return true
	}
	for _, f := range act.Families {
		if f == fam {
			return true
		}
	}
	return false
}

// Exchange resolves an exchange by name.
func Exchange(name string) (ExchangeInfo, error) {
	info, ok := exchanges[name]
	if !ok {
		return ExchangeInfo{}, fmt.Errorf("registry: unknown exchange %q (have %s)",
			name, strings.Join(names(exchanges), ", "))
	}
	return info, nil
}

// Action resolves an action protocol by name.
func Action(name string) (ActionInfo, error) {
	info, ok := actions[name]
	if !ok {
		return ActionInfo{}, fmt.Errorf("registry: unknown action %q (have %s)",
			name, strings.Join(names(actions), ", "))
	}
	return info, nil
}

// Stack resolves a named pairing by name.
func Stack(name string) (StackInfo, error) {
	info, ok := stacks[name]
	if !ok {
		return StackInfo{}, fmt.Errorf("registry: unknown stack %q (have %s)",
			name, strings.Join(names(stacks), ", "))
	}
	return info, nil
}

// StackFor returns the registered stack that pairs exactly the given
// components, if any — used to give composed stacks their canonical name.
func StackFor(exchangeName, actionName string) (StackInfo, bool) {
	for _, info := range stacks {
		if info.Exchange == exchangeName && info.Action == actionName {
			return info, true
		}
	}
	return StackInfo{}, false
}

// Compose resolves and constructs a validated ⟨exchange, action⟩ pairing.
func Compose(exchangeName, actionName string, n, t int) (model.Exchange, model.ActionProtocol, error) {
	exInfo, err := Exchange(exchangeName)
	if err != nil {
		return nil, nil, err
	}
	actInfo, err := Action(actionName)
	if err != nil {
		return nil, nil, err
	}
	if !compatible(actInfo, exInfo.Family) {
		return nil, nil, fmt.Errorf("registry: action %q needs a %v-family exchange state, but exchange %q produces %q",
			actionName, actInfo.Families, exchangeName, exInfo.Family)
	}
	return exInfo.New(n), actInfo.New(n, t), nil
}

// ExchangeNames lists the registered exchange names, sorted.
func ExchangeNames() []string {
	return names(exchanges)
}

// ActionNames lists the registered action-protocol names, sorted.
func ActionNames() []string {
	return names(actions)
}

// StackNames lists the registered stack names, sorted.
func StackNames() []string {
	return names(stacks)
}

// Stacks lists the registered stacks, sorted by name.
func Stacks() []StackInfo {
	out := make([]StackInfo, 0, len(stacks))
	for _, name := range names(stacks) {
		out = append(out, stacks[name])
	}
	return out
}

func names[T any](m map[string]T) []string {
	out := make([]string, 0, len(m))
	for name := range m {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

// The paper's components, by name. TestCatalogues checks that every
// entry is filed under its own name and has a constructor, and that
// every stack pairs registered, compatible components.
var exchanges = map[string]ExchangeInfo{
	"min": {
		Name:        "min",
		Description: "Emin: broadcast only decide announcements (n² bits per run)",
		Family:      FamilyMin,
		New:         func(n int) model.Exchange { return exchange.NewMin(n) },
	},
	"basic": {
		Name:        "basic",
		Description: "Ebasic: Emin plus first-round init reports and the #1 counter (O(n²t) bits)",
		Family:      FamilyBasic,
		New:         func(n int) model.Exchange { return exchange.NewBasic(n) },
	},
	"fip": {
		Name:        "fip",
		Description: "Efip: full-information exchange of communication graphs (O(n⁴t²) bits)",
		Family:      FamilyFIP,
		New:         func(n int) model.Exchange { return exchange.NewFIP(n) },
	},
}

var actions = map[string]ActionInfo{
	"pmin": {
		Name:        "pmin",
		Description: "Pmin (Thm 6.5): decide 0 on a fresh 0-chain, else 1 at time t+1",
		// Pmin reads only the guaranteed state components, so it runs over
		// any exchange (the fip+pmin baseline relies on this).
		New: func(_, t int) model.ActionProtocol { return action.NewMin(t) },
	},
	"pbasic": {
		Name:        "pbasic",
		Description: "Pbasic (Thm 6.6): Pmin plus the #1 > n−time early-1 rule",
		Families:    []Family{FamilyBasic},
		New:         func(n, _ int) model.ActionProtocol { return action.NewBasic(n) },
	},
	"popt": {
		Name:        "popt",
		Description: "Popt (Prop 7.9): the polynomial-time optimum over full information",
		Families:    []Family{FamilyFIP},
		New:         func(_, t int) model.ActionProtocol { return action.NewOpt(t) },
	},
	"popt-nock": {
		Name:        "popt-nock",
		Description: "Popt without the common-knowledge guards (P0 over full information)",
		Families:    []Family{FamilyFIP},
		New:         func(_, t int) model.ActionProtocol { return action.NewOptNoCK(t) },
	},
	"pnaive": {
		Name:        "pnaive",
		Description: "Pnaive: the introduction's eager 0-biased counterexample",
		Families:    []Family{FamilyFIP},
		New:         func(_, t int) model.ActionProtocol { return action.NewNaive(t) },
	},
}

var stacks = map[string]StackInfo{
	"min": {
		Name:        "min",
		Description: "⟨Emin, Pmin⟩ — optimal wrt the minimal exchange (Cor 6.7)",
		Exchange:    "min",
		Action:      "pmin",
		Program:     "P0",
	},
	"basic": {
		Name:        "basic",
		Description: "⟨Ebasic, Pbasic⟩ — optimal wrt the basic exchange (Cor 6.7)",
		Exchange:    "basic",
		Action:      "pbasic",
		Program:     "P0",
	},
	"fip": {
		Name:        "fip",
		Description: "⟨Efip, Popt⟩ — optimal wrt full information (Cor 7.8)",
		Exchange:    "fip",
		Action:      "popt",
		Program:     "P1",
	},
	"fip+pmin": {
		Name:        "fip+pmin",
		Description: "⟨Efip, Pmin⟩ — full-information costs, minimal decisions (dominated baseline)",
		Exchange:    "fip",
		Action:      "pmin",
	},
	"fip-nock": {
		Name:        "fip-nock",
		Description: "⟨Efip, Popt-nock⟩ — the common-knowledge ablation (E15)",
		Exchange:    "fip",
		Action:      "popt-nock",
		Program:     "P0",
	},
	"naive": {
		Name:        "naive",
		Description: "⟨Efip, Pnaive⟩ — the introduction's counterexample (violates Agreement)",
		Exchange:    "fip",
		Action:      "pnaive",
	},
}
