package graph

import (
	"math/rand"
	"testing"

	"repro/internal/model"
)

// randGraph builds a random m-round graph for n agents.
func randGraph(rng *rand.Rand, n, m int) *Graph {
	g := New(model.AgentID(rng.Intn(n)), n)
	for j := 0; j < n; j++ {
		if rng.Intn(2) == 0 {
			g.SetPref(model.AgentID(j), model.Value(rng.Intn(2)))
		}
	}
	for k := 0; k < m; k++ {
		g.Extend()
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				g.SetEdge(k, model.AgentID(i), model.AgentID(j), Label(rng.Intn(3)))
			}
		}
	}
	return g
}

// permuteGraph rebuilds g under the relabeling perm, going through the
// graph API rather than key rewriting — the oracle AppendPermuteKey must
// match.
func permuteGraph(g *Graph, perm []model.AgentID) *Graph {
	n := g.N()
	h := New(perm[g.Owner()], n)
	for j := 0; j < n; j++ {
		if v := g.Pref(model.AgentID(j)); v.IsSet() {
			h.SetPref(perm[j], v)
		}
	}
	for k := 0; k < g.M(); k++ {
		h.Extend()
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				h.SetEdge(k, perm[i], perm[j], g.Edge(k, model.AgentID(i), model.AgentID(j)))
			}
		}
	}
	return h
}

func TestPermuteKeyMatchesGraphPermutation(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 300; trial++ {
		n := 2 + rng.Intn(5)
		g := randGraph(rng, n, rng.Intn(4))
		permInts := rng.Perm(n)
		perm := make([]model.AgentID, n)
		for i, v := range permInts {
			perm[i] = model.AgentID(v)
		}
		got, err := AppendPermuteKey(nil, g.AppendKey(nil), perm)
		if err != nil {
			t.Fatalf("AppendPermuteKey(%q): %v", string(g.AppendKey(nil)), err)
		}
		want := string(permuteGraph(g, perm).AppendKey(nil))
		if string(got) != want {
			t.Fatalf("AppendPermuteKey mismatch for %q under %v:\n got  %q\n want %q", string(g.AppendKey(nil)), perm, got, want)
		}
	}
}

func TestPermuteKeyIdentity(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	n := 4
	id := []model.AgentID{0, 1, 2, 3}
	for trial := 0; trial < 50; trial++ {
		g := randGraph(rng, n, rng.Intn(4))
		got, err := AppendPermuteKey(nil, g.AppendKey(nil), id)
		if err != nil {
			t.Fatal(err)
		}
		if string(got) != string(g.AppendKey(nil)) {
			t.Fatalf("identity rewrite changed key: %q vs %q", got, string(g.AppendKey(nil)))
		}
	}
}

// MalformedKeys are not graph keys for three agents; the differential
// test in permute_oracle_test.go replays them too.
var MalformedKeys = []string{
	"",
	"0",
	"0|",
	"x|1|???",
	"0|x|???",
	"3|0|???",                     // owner out of range
	"0|1|??",                      // short prefs
	"0|1|???" + "?????????",       // missing round separator
	"0|1|???|????????",            // short round section
	"0|1|???|?????????|",          // trailing separator
	"0|2|???|?????????x?????????", // second round section without '|'
}

func TestPermuteKeyMalformed(t *testing.T) {
	perm := []model.AgentID{0, 1, 2}
	for _, key := range MalformedKeys {
		if got, err := AppendPermuteKey([]byte("kept"), []byte(key), perm); err == nil || string(got) != "kept" {
			t.Errorf("AppendPermuteKey(%q) = (%q, %v), want an error and dst unextended", key, got, err)
		}
	}
}
