package registry

import (
	"fmt"
	"strings"
	"testing"
)

// TestBuiltinsResolve checks that every registered stack resolves to
// constructible, mutually compatible components.
func TestBuiltinsResolve(t *testing.T) {
	names := StackNames()
	want := []string{"basic", "fip", "fip+pmin", "fip-nock", "min", "naive"}
	if len(names) != len(want) {
		t.Fatalf("StackNames() = %v, want %v", names, want)
	}
	for i, name := range want {
		if names[i] != name {
			t.Fatalf("StackNames() = %v, want %v", names, want)
		}
	}
	for _, name := range names {
		info, err := Stack(name)
		if err != nil {
			t.Fatalf("Stack(%q): %v", name, err)
		}
		ex, act, err := Compose(info.Exchange, info.Action, 4, 1)
		if err != nil {
			t.Fatalf("Compose(%q, %q): %v", info.Exchange, info.Action, err)
		}
		if ex.N() != 4 {
			t.Errorf("stack %q: exchange built for %d agents, want 4", name, ex.N())
		}
		if act.Name() == "" || info.Description == "" {
			t.Errorf("stack %q: missing action name or description", name)
		}
	}
}

func TestExchangeAndActionNames(t *testing.T) {
	ex := ExchangeNames()
	wantEx := []string{"basic", "fip", "min"}
	if strings.Join(ex, ",") != strings.Join(wantEx, ",") {
		t.Errorf("ExchangeNames() = %v, want %v", ex, wantEx)
	}
	act := ActionNames()
	wantAct := []string{"pbasic", "pmin", "pnaive", "popt", "popt-nock"}
	if strings.Join(act, ",") != strings.Join(wantAct, ",") {
		t.Errorf("ActionNames() = %v, want %v", act, wantAct)
	}
}

func TestComposeRejectsIncompatiblePairings(t *testing.T) {
	// Pbasic needs the #1 counter of Ebasic states; Popt, Popt-nock and
	// Pnaive need Efip graphs.
	bad := [][2]string{
		{"min", "pbasic"},
		{"min", "popt"},
		{"basic", "popt-nock"},
		{"min", "pnaive"},
		{"basic", "pnaive"},
	}
	for _, pair := range bad {
		if _, _, err := Compose(pair[0], pair[1], 4, 1); err == nil {
			t.Errorf("Compose(%q, %q) accepted an incompatible pairing", pair[0], pair[1])
		}
	}
	// Pmin reads only guaranteed components: every exchange accepts it.
	for _, exName := range ExchangeNames() {
		if _, _, err := Compose(exName, "pmin", 4, 1); err != nil {
			t.Errorf("Compose(%q, \"pmin\"): %v", exName, err)
		}
	}
}

func TestUnknownNamesListAlternatives(t *testing.T) {
	if _, err := Stack("bogus"); err == nil || !strings.Contains(err.Error(), "fip+pmin") {
		t.Errorf("Stack(bogus) error should list known names, got %v", err)
	}
	if _, err := Exchange("bogus"); err == nil || !strings.Contains(err.Error(), "basic") {
		t.Errorf("Exchange(bogus) error should list known names, got %v", err)
	}
	if _, err := Action("bogus"); err == nil || !strings.Contains(err.Error(), "popt-nock") {
		t.Errorf("Action(bogus) error should list known names, got %v", err)
	}
	if _, _, err := Compose("bogus", "pmin", 3, 1); err == nil {
		t.Error("Compose with unknown exchange accepted")
	}
	if _, _, err := Compose("min", "bogus", 3, 1); err == nil {
		t.Error("Compose with unknown action accepted")
	}
}

func TestStackForCanonicalName(t *testing.T) {
	info, ok := StackFor("fip", "pmin")
	if !ok || info.Name != "fip+pmin" {
		t.Errorf("StackFor(fip, pmin) = %+v, %v; want the fip+pmin stack", info, ok)
	}
	if _, ok := StackFor("basic", "pmin"); ok {
		t.Error("StackFor(basic, pmin) found a stack; the pairing is ad-hoc")
	}
}

// catalogueErrors checks catalogues as registration once did at init
// time: every entry is filed under its own, non-empty name and can be
// constructed, and every stack pairs registered, compatible components,
// no two stacks the same pair.
func catalogueErrors(exs map[string]ExchangeInfo, acts map[string]ActionInfo, sts map[string]StackInfo) []string {
	var errs []string
	for _, name := range names(exs) {
		if info := exs[name]; name == "" || info.Name != name || info.New == nil {
			errs = append(errs, fmt.Sprintf("exchange %q: filed as %q, constructor %v", info.Name, name, info.New != nil))
		}
	}
	for _, name := range names(acts) {
		if info := acts[name]; name == "" || info.Name != name || info.New == nil {
			errs = append(errs, fmt.Sprintf("action %q: filed as %q, constructor %v", info.Name, name, info.New != nil))
		}
	}
	pairs := map[[2]string]string{}
	for _, name := range names(sts) {
		info := sts[name]
		if name == "" || info.Name != name {
			errs = append(errs, fmt.Sprintf("stack %q: filed as %q", info.Name, name))
		}
		ex, exOK := exs[info.Exchange]
		if !exOK {
			errs = append(errs, fmt.Sprintf("stack %q uses unregistered exchange %q", name, info.Exchange))
		}
		act, actOK := acts[info.Action]
		if !actOK {
			errs = append(errs, fmt.Sprintf("stack %q uses unregistered action %q", name, info.Action))
		}
		if exOK && actOK && !compatible(act, ex.Family) {
			errs = append(errs, fmt.Sprintf("stack %q pairs action %q with incompatible exchange %q", name, info.Action, info.Exchange))
		}
		pair := [2]string{info.Exchange, info.Action}
		if other, dup := pairs[pair]; dup {
			errs = append(errs, fmt.Sprintf("stacks %q and %q pair the same components %v", other, name, pair))
		}
		pairs[pair] = name
	}
	return errs
}

// TestCatalogues checks the package's own tables.
func TestCatalogues(t *testing.T) {
	for _, err := range catalogueErrors(exchanges, actions, stacks) {
		t.Error(err)
	}
}

// withExchange returns a copy of the exchange table with info filed
// under name.
func withExchange(name string, info ExchangeInfo) map[string]ExchangeInfo {
	out := map[string]ExchangeInfo{name: info}
	for k, v := range exchanges {
		if k != name {
			out[k] = v
		}
	}
	return out
}

func withAction(name string, info ActionInfo) map[string]ActionInfo {
	out := map[string]ActionInfo{name: info}
	for k, v := range actions {
		if k != name {
			out[k] = v
		}
	}
	return out
}

func withStack(name string, info StackInfo) map[string]StackInfo {
	out := map[string]StackInfo{name: info}
	for k, v := range stacks {
		if k != name {
			out[k] = v
		}
	}
	return out
}

// TestDuplicateRegistrationPanics keeps the name of the check that a
// second registration of a name panicked. A map literal cannot repeat a
// key, so what is left to catch is an entry filed a second time under
// another name, or a second stack for the same pairing; the catalogue
// check must reject both.
func TestDuplicateRegistrationPanics(t *testing.T) {
	cases := map[string]func() []string{
		"exchange filed twice": func() []string {
			return catalogueErrors(withExchange("min2", exchanges["min"]), actions, stacks)
		},
		"stack pairing twice": func() []string {
			dup := stacks["fip"]
			dup.Name = "fip2"
			return catalogueErrors(exchanges, actions, withStack("fip2", dup))
		},
	}
	for _, name := range names(cases) {
		if errs := cases[name](); len(errs) == 0 {
			t.Errorf("%s: catalogue check passed a duplicate", name)
		}
	}
}

// TestInvalidRegistrationPanics keeps the name of the check that an
// invalid registration panicked; the catalogue check must reject the
// same entries that registration did.
func TestInvalidRegistrationPanics(t *testing.T) {
	cases := map[string]func() []string{
		"nameless exchange": func() []string {
			return catalogueErrors(withExchange("nameless", ExchangeInfo{Name: "nameless"}), actions, stacks)
		},
		"nameless action": func() []string {
			return catalogueErrors(exchanges, withAction("nameless", ActionInfo{Name: "nameless"}), stacks)
		},
		"dangling stack": func() []string {
			return catalogueErrors(exchanges, actions, withStack("dangling", StackInfo{Name: "dangling", Exchange: "bogus", Action: "pmin"}))
		},
		"ill-typed stack": func() []string {
			return catalogueErrors(exchanges, actions, withStack("illtyped", StackInfo{Name: "illtyped", Exchange: "min", Action: "popt"}))
		},
	}
	for _, name := range names(cases) {
		if errs := cases[name](); len(errs) == 0 {
			t.Errorf("%s: catalogue check passed an invalid entry", name)
		}
	}
}
