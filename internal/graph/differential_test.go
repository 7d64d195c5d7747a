package graph

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/model"
)

// maxOpRounds bounds the rounds a graph of the differential reaches, and
// maxOpAgents its agents.
const maxOpRounds, maxOpAgents = 4, 5

// graphPair is one graph under test beside its nested reference.
type graphPair struct {
	g   *Graph
	ref *nestedGraph
}

// opReader hands out a fuzz input's bytes, zeros once they run out.
type opReader struct{ data []byte }

func (r *opReader) next(mod int) int {
	if len(r.data) == 0 {
		return 0
	}
	b := r.data[0]
	r.data = r.data[1:]
	return int(b) % mod
}

// panicOf runs f and returns what it panicked with, or "" if it returned.
func panicOf(f func()) (msg string) {
	defer func() {
		if r := recover(); r != nil {
			msg = fmt.Sprint(r)
		}
	}()
	f()
	return ""
}

// checkGraphOps decodes data into a sequence of graph operations — New,
// SetPref, CloneExtended (into another graph or into itself), SetEdge,
// Extend, Merge, Clone and CloneFor — over three graphs of up to
// maxOpAgents agents and maxOpRounds rounds, applies each operation to a
// Graph and to the nested reference alike, and fails at the first
// difference in what they panic with or in what any graph then reads:
// AppendKey, Edge (one round either side of the recorded ones too), Pref,
// Bits, String and every ReachTo. Labels come from one hidden execution,
// so views merge cleanly, except where a byte asks for a conflicting or
// an unset label.
func checkGraphOps(t *testing.T, data []byte) {
	t.Helper()
	r := &opReader{data: data}
	n := r.next(maxOpAgents) + 1
	rng := rand.New(rand.NewSource(int64(r.next(256))))
	prefs := make([]model.Value, n)
	for j := range prefs {
		prefs[j] = model.Value(rng.Intn(2))
	}
	edges := make([]Label, maxOpRounds*n*n)
	for e := range edges {
		edges[e] = Label(1 + rng.Intn(2))
	}
	flip := func(l Label) Label { return NotSent + Sent - l }

	slots := make([]graphPair, 3)
	for s := range slots {
		o := model.AgentID(s % n)
		slots[s] = graphPair{New(o, n), newNested(o, n)}
	}
	for step := 0; len(r.data) > 0; step++ {
		op, a, b := r.next(7), r.next(len(slots)), r.next(len(slots))
		p, q := &slots[a], &slots[b]
		var desc string
		var onGraph, onRef func()
		switch op {
		case 0:
			o := model.AgentID(r.next(n))
			desc = fmt.Sprintf("New(%d) into %d", o, a)
			onGraph = func() { p.g = New(o, n) }
			onRef = func() { p.ref = newNested(o, n) }
		case 1:
			j, c := model.AgentID(r.next(n)), r.next(8)
			v := prefs[j]
			switch c {
			case 0:
				v = 1 - v
			case 1:
				v = model.None
			}
			desc = fmt.Sprintf("%d.SetPref(%d, %v)", a, j, v)
			onGraph = func() { p.g.SetPref(j, v) }
			onRef = func() { p.ref.SetPref(j, v) }
		case 2:
			if p.g.M() >= maxOpRounds {
				continue
			}
			desc = fmt.Sprintf("%d.CloneExtended into %d", a, b)
			onGraph = func() { p.g.CloneExtended(q.g) }
			onRef = func() { q.ref = p.ref.CloneExtended() }
		case 3:
			k := r.next(p.g.M()+2) - 1
			i, j, c := model.AgentID(r.next(n)), model.AgentID(r.next(n)), r.next(16)
			l := Sent
			if k >= 0 && k < maxOpRounds {
				l = edges[k*n*n+int(i)*n+int(j)]
			}
			switch {
			case c == 1:
				l = flip(l)
			case c%4 == 0:
				l = Unknown
			}
			desc = fmt.Sprintf("%d.SetEdge(%d, %d, %d, %v)", a, k, i, j, l)
			onGraph = func() { p.g.SetEdge(k, i, j, l) }
			onRef = func() { p.ref.SetEdge(k, i, j, l) }
		case 4:
			if p.g.M() >= maxOpRounds {
				continue
			}
			desc = fmt.Sprintf("%d.Extend", a)
			onGraph = p.g.Extend
			onRef = p.ref.Extend
		case 5:
			desc = fmt.Sprintf("%d.Merge(%d)", a, b)
			onGraph = func() { p.g.Merge(q.g) }
			onRef = func() { p.ref.Merge(q.ref) }
		case 6:
			o := model.AgentID(r.next(n + 1))
			if int(o) == n {
				desc = fmt.Sprintf("%d.Clone into %d", a, b)
				onGraph = func() { q.g = p.g.Clone() }
				onRef = func() { q.ref = p.ref.Clone() }
			} else {
				desc = fmt.Sprintf("%d.CloneFor(%d) into %d", a, o, b)
				onGraph = func() { q.g = p.g.CloneFor(o) }
				onRef = func() { q.ref = p.ref.CloneFor(o) }
			}
		}
		if got, want := panicOf(onGraph), panicOf(onRef); got != want {
			t.Fatalf("n=%d step %d, %s: Graph panics with %q, the reference with %q", n, step, desc, got, want)
		}
		for s := range slots {
			var err error
			if msg := panicOf(func() { err = diffGraphs(slots[s].g, slots[s].ref) }); msg != "" {
				err = fmt.Errorf("reading it panics with %q", msg)
			}
			if err != nil {
				t.Fatalf("n=%d step %d, %s: graph %d: %v", n, step, desc, s, err)
			}
		}
	}
}

// diffGraphs reports the first reading on which g and ref disagree.
func diffGraphs(g *Graph, ref *nestedGraph) error {
	if g.Owner() != ref.Owner() || g.N() != ref.N() || g.M() != ref.M() || g.Bits() != ref.Bits() {
		return fmt.Errorf("owner, n, m, bits = %d %d %d %d, reference %d %d %d %d",
			g.Owner(), g.N(), g.M(), g.Bits(), ref.Owner(), ref.N(), ref.M(), ref.Bits())
	}
	if got, want := string(g.AppendKey([]byte("k:"))), string(ref.AppendKey([]byte("k:"))); got != want {
		return fmt.Errorf("key %q, reference %q", got, want)
	}
	if got, want := g.String(), ref.String(); got != want {
		return fmt.Errorf("String %q, reference %q", got, want)
	}
	n := g.N()
	for j := 0; j < n; j++ {
		if got, want := g.Pref(model.AgentID(j)), ref.Pref(model.AgentID(j)); got != want {
			return fmt.Errorf("Pref(%d) = %v, reference %v", j, got, want)
		}
	}
	for k := -1; k <= g.M(); k++ {
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				if got, want := g.Edge(k, model.AgentID(i), model.AgentID(j)), ref.Edge(k, model.AgentID(i), model.AgentID(j)); got != want {
					return fmt.Errorf("Edge(%d, %d, %d) = %v, reference %v", k, i, j, got, want)
				}
			}
		}
	}
	for j := 0; j < n; j++ {
		for mj := 0; mj <= g.M(); mj++ {
			got, want := g.ReachTo(model.AgentID(j), mj), ref.ReachTo(model.AgentID(j), mj)
			if !slices.EqualFunc(got, want, slices.Equal[[]bool]) {
				return fmt.Errorf("ReachTo(%d, %d) = %v, reference %v", j, mj, got, want)
			}
		}
	}
	return nil
}

// TestGraphOpsMatchReference runs the differential over seeded random
// operation sequences.
func TestGraphOpsMatchReference(t *testing.T) {
	rng := rand.New(rand.NewSource(64))
	for seq := 0; seq < 600; seq++ {
		data := make([]byte, 16+rng.Intn(400))
		rng.Read(data)
		checkGraphOps(t, data)
	}
}

// FuzzGraphOps is the same differential over fuzzed operation sequences.
func FuzzGraphOps(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{4, 7, 4, 0, 0, 2, 0, 1, 3, 0, 0, 0, 1, 2, 2, 5, 1, 0})
	f.Add([]byte{2, 3, 4, 0, 0, 4, 1, 1, 3, 0, 0, 1, 0, 1, 1, 3, 1, 1, 1, 0, 2, 5, 0, 1, 5, 1, 0})
	f.Add([]byte{1, 9, 1, 0, 0, 1, 0, 1, 0, 0, 3, 2})
	f.Fuzz(checkGraphOps)
}
