package engine

import (
	"math/rand"
	"runtime/debug"
	"strconv"
	"strings"
	"testing"

	"repro/internal/adversary"
	"repro/internal/exchange"
	"repro/internal/graph"
	"repro/internal/model"
	"repro/internal/registry"
)

// runSignature flattens a result into one comparable fingerprint: every
// state key, every action, the decision ledger, and the traffic stats.
func runSignature(res *Result) string {
	var b strings.Builder
	for m := range res.States {
		for i := range res.States[m] {
			b.WriteString(string(res.States[m][i].AppendKey(nil)))
			b.WriteByte(';')
		}
	}
	for m := range res.Actions {
		for i := range res.Actions[m] {
			b.WriteString(res.Actions[m][i].String())
			b.WriteByte(';')
		}
	}
	for i := range res.Decision {
		b.WriteString(res.Decision[i].String())
		b.WriteString("@")
		b.WriteString(strconv.Itoa(res.DecisionRound[i]))
		b.WriteByte(';')
	}
	b.WriteString(strconv.Itoa(res.Stats.MessagesSent))
	b.WriteByte('/')
	b.WriteString(strconv.Itoa(res.Stats.MessagesDelivered))
	b.WriteByte('/')
	b.WriteString(strconv.FormatInt(res.Stats.BitsSent, 10))
	b.WriteByte('/')
	b.WriteString(strconv.FormatInt(res.Stats.BitsDelivered, 10))
	return b.String()
}

// mixedScenarios builds a deterministic mixed scenario list.
func mixedScenarios(n, tf, count int, seed int64) []Config {
	rng := rand.New(rand.NewSource(seed))
	out := make([]Config, count)
	for k := range out {
		pat := adversary.RandomSO(rng, n, tf, tf+2, 0.45)
		inits := make([]model.Value, n)
		for i := range inits {
			inits[i] = model.Value(rng.Intn(2))
		}
		out[k] = Config{Pattern: pat, Inits: inits}
	}
	return out
}

// scribbleState mutates every writable slot reachable from the state —
// unknown edge labels and unset preference labels of a fip graph — and
// returns how many slots it flipped. Non-graph states expose no shared
// memory and report 0.
func scribbleState(st model.State) int {
	fs, ok := st.(*exchange.FIPState)
	if !ok {
		return 0
	}
	g := fs.Graph()
	count := 0
	for j := 0; j < g.N(); j++ {
		if !g.Pref(model.AgentID(j)).IsSet() {
			g.SetPref(model.AgentID(j), model.One)
			count++
		}
	}
	for k := 0; k < g.M(); k++ {
		for i := 0; i < g.N(); i++ {
			for j := 0; j < g.N(); j++ {
				if g.Edge(k, model.AgentID(i), model.AgentID(j)) == graph.Unknown {
					g.SetEdge(k, model.AgentID(i), model.AgentID(j), graph.Sent)
					count++
				}
			}
		}
	}
	return count
}

// TestBufferedTraceIdentityAllStacks checks that, for every registered
// stack, one Buffers reused over twelve runs and a throwaway Buffers per
// run (Run) produce bit-identical traces: nothing a run leaves in the
// rows reaches the next one.
func TestBufferedTraceIdentityAllStacks(t *testing.T) {
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
		buf := NewBuffers()
		for k, cfg := range mixedScenarios(n, tf, 12, 41) {
			cfg.Exchange, cfg.Action = ex, act
			fresh, err := Run(cfg)
			if err != nil {
				t.Fatal(err)
			}
			bres, err := RunBuffered(cfg, buf)
			if err != nil {
				t.Fatal(err)
			}
			if runSignature(bres) != runSignature(fresh) {
				t.Fatalf("%s scenario %d: buffered trace diverged", name, k)
			}
		}
	}
}

// TestBuffersFollowTheExchange runs 5-, 3- and 5-agent configurations
// over one Buffers, with a run refused for a short μ row in between: the
// buffers resize themselves, and the refused row is not kept.
func TestBuffersFollowTheExchange(t *testing.T) {
	buf := NewBuffers()
	for _, n := range []int{5, 3, 5} {
		ex, act, err := registry.Compose("basic", "pbasic", n, 1)
		if err != nil {
			t.Fatal(err)
		}
		bad := Config{Exchange: shortExchange{stubExchange{n: n}}, Action: stubAction{},
			Pattern: adversary.FailureFree(n, 2), Inits: adversary.UniformInits(n, model.One)}
		if _, err := RunBuffered(bad, buf); err == nil {
			t.Fatal("short message vector not rejected")
		}
		for k, cfg := range mixedScenarios(n, 1, 4, 13) {
			cfg.Exchange, cfg.Action = ex, act
			fresh, err := Run(cfg)
			if err != nil {
				t.Fatal(err)
			}
			bres, err := RunBuffered(cfg, buf)
			if err != nil {
				t.Fatalf("n=%d scenario %d on the shared buffers: %v", n, k, err)
			}
			if runSignature(bres) != runSignature(fresh) {
				t.Fatalf("n=%d scenario %d: trace diverged on the shared buffers", n, k)
			}
		}
	}
}

// TestBufferedResultsOwnTheirMemory is the aliasing property test: after
// a buffered run, every returned Result owns its memory outright. It
// mutates everything reachable from the returned results, re-runs the
// same scenarios over the same buffers, and requires (a) the fresh
// results to be pristine and (b) the mutations to survive — either
// failing means recycled scratch was shared with a live Result.
func TestBufferedResultsOwnTheirMemory(t *testing.T) {
	n, tf := 4, 1
	for _, name := range []string{"fip", "fip+pmin", "fip-nock", "min", "basic"} {
		info, err := registry.Stack(name)
		if err != nil {
			t.Fatal(err)
		}
		ex, act, err := registry.Compose(info.Exchange, info.Action, n, tf)
		if err != nil {
			t.Fatal(err)
		}
		scenarios := mixedScenarios(n, tf, 16, 97)
		buf := NewBuffers()

		reference := make([]string, len(scenarios))
		results := make([]*Result, len(scenarios))
		for k, cfg := range scenarios {
			cfg.Exchange, cfg.Action = ex, act
			fresh, err := Run(cfg)
			if err != nil {
				t.Fatal(err)
			}
			reference[k] = runSignature(fresh)
			if results[k], err = RunBuffered(cfg, buf); err != nil {
				t.Fatal(err)
			}
			if got := runSignature(results[k]); got != reference[k] {
				t.Fatalf("%s scenario %d: buffered run diverged before mutation", name, k)
			}
		}

		// Mutate everything reachable from every returned result.
		scribbled := 0
		for _, res := range results {
			for _, row := range res.States {
				for _, st := range row {
					scribbled += scribbleState(st)
				}
			}
		}
		if strings.HasPrefix(name, "fip") && scribbled == 0 {
			t.Fatalf("%s: property test scribbled nothing — not exercising shared memory", name)
		}
		mutated := make([]string, len(results))
		for k, res := range results {
			mutated[k] = runSignature(res)
		}

		// Re-run the same scenarios through the same (recycled) buffers.
		for k, cfg := range scenarios {
			cfg.Exchange, cfg.Action = ex, act
			res, err := RunBuffered(cfg, buf)
			if err != nil {
				t.Fatal(err)
			}
			if got := runSignature(res); got != reference[k] {
				t.Fatalf("%s scenario %d: re-run over scribbled buffers diverged — scratch aliased a returned Result", name, k)
			}
		}
		// And the mutations must have survived the re-runs untouched.
		for k, res := range results {
			if got := runSignature(res); got != mutated[k] {
				t.Fatalf("%s scenario %d: re-run scribbled over a returned Result's memory", name, k)
			}
		}
	}
}

// TestGraphClonesAreIndependent covers Clone, CloneFor and CloneExtended
// on a graph that came out of a buffered run: clones must never share
// backing memory with their source.
func TestGraphClonesAreIndependent(t *testing.T) {
	n, tf := 4, 1
	info, err := registry.Stack("fip")
	if err != nil {
		t.Fatal(err)
	}
	ex, act, err := registry.Compose(info.Exchange, info.Action, n, tf)
	if err != nil {
		t.Fatal(err)
	}
	cfg := mixedScenarios(n, tf, 1, 7)[0]
	cfg.Exchange, cfg.Action = ex, act
	res, err := RunBuffered(cfg, NewBuffers())
	if err != nil {
		t.Fatal(err)
	}
	g := res.States[tf+1][0].(*exchange.FIPState).Graph()
	key := string(g.AppendKey(nil))

	var extended graph.Graph
	g.CloneExtended(&extended)
	clones := []*graph.Graph{g.Clone(), g.CloneFor(1), &extended}
	cloneKeys := []string{string(clones[0].AppendKey(nil)), string(clones[1].AppendKey(nil)), string(clones[2].AppendKey(nil))}
	// Scribbling the source must not reach any clone.
	for k := 0; k < g.M(); k++ {
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				if g.Edge(k, model.AgentID(i), model.AgentID(j)) == graph.Unknown {
					g.SetEdge(k, model.AgentID(i), model.AgentID(j), graph.NotSent)
				}
			}
		}
	}
	if string(g.AppendKey(nil)) == key {
		t.Fatal("scribbling changed nothing — test is vacuous")
	}
	for c, cl := range clones {
		if string(cl.AppendKey(nil)) != cloneKeys[c] {
			t.Fatalf("clone %d shares memory with its scribbled source", c)
		}
	}
	// And scribbling a clone must not reach the (re-keyed) source.
	key = string(g.AppendKey(nil))
	for c, cl := range clones {
		for j := 0; j < n; j++ {
			if !cl.Pref(model.AgentID(j)).IsSet() {
				cl.SetPref(model.AgentID(j), model.Zero)
			}
		}
		if string(g.AppendKey(nil)) != key {
			t.Fatalf("scribbling clone %d reached the source", c)
		}
	}
}

// TestBufferedRunAllocCeilings pins the allocation cost of one buffered
// run on the two reference stacks. Allocation counts are deterministic,
// so any growth is a real regression on the sweep hot path: what is
// left per run is the Result's own trace (fresh by the ownership rule)
// plus, for fip, one state and its graph's label slab per agent per
// round. Lower a ceiling when a change earns it; raise one only with
// the reason.
func TestBufferedRunAllocCeilings(t *testing.T) {
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "-race" && s.Value == "true" {
				t.Skip("the race detector's instrumentation allocates on its own")
			}
		}
	}
	for _, tc := range []struct {
		stack   string
		n, tf   int
		ceiling float64
	}{
		{"fip", 4, 1, 57},
		{"min", 8, 2, 47},
	} {
		info, err := registry.Stack(tc.stack)
		if err != nil {
			t.Fatal(err)
		}
		ex, act, err := registry.Compose(info.Exchange, info.Action, tc.n, tc.tf)
		if err != nil {
			t.Fatal(err)
		}
		cfg := Config{
			Exchange: ex, Action: act,
			Pattern: adversary.Example71(tc.n, tc.tf, tc.tf+2),
			Inits:   adversary.UniformInits(tc.n, model.One),
		}
		buf := NewBuffers()
		got := testing.AllocsPerRun(50, func() {
			if _, err := RunBuffered(cfg, buf); err != nil {
				t.Fatal(err)
			}
		})
		if got > tc.ceiling {
			t.Errorf("%s n=%d t=%d: %.0f allocs per buffered run, ceiling %.0f", tc.stack, tc.n, tc.tf, got, tc.ceiling)
		}
	}
}
