package graph

import (
	"fmt"
	"strconv"
	"strings"

	"repro/internal/model"
)

// The communication graph as it stood before its labels moved into one
// slab: a preference vector plus one n²-label slice per round. Kept
// verbatim, under another name, as the reference FuzzGraphOps and
// TestGraphOpsMatchReference drive Graph against — same keys, same
// labels, same reachability, same panics.

// nestedGraph is a communication graph G_{i,m}: agent i's view of rounds 1..m.
// The zero value is not usable; construct with newNested.
type nestedGraph struct {
	owner model.AgentID
	n     int
	m     int
	// prefs[j] is the initial-preference label of agent j: Zero, One, or
	// None for "?".
	prefs []model.Value
	// edges[k][int(i)*n+int(j)] labels the edge (i,k) → (j,k+1), i.e. the
	// message from i to j in round k+1, for k in [0, m).
	edges [][]Label
}

// newNested returns the time-0 communication graph of the given agent: no edges,
// no preference labels.
func newNested(owner model.AgentID, n int) *nestedGraph {
	return &nestedGraph{
		owner: owner,
		n:     n,
		prefs: newPrefs(n),
		edges: nil,
	}
}

// newPrefs returns an all-"?" preference vector.
func newPrefs(n int) []model.Value {
	p := make([]model.Value, n)
	for i := range p {
		p[i] = model.None
	}
	return p
}

// Owner is the agent whose view this graph is.
func (g *nestedGraph) Owner() model.AgentID { return g.owner }

// N is the number of agents.
func (g *nestedGraph) N() int { return g.n }

// M is the time of the view: the graph describes rounds 1..M.
func (g *nestedGraph) M() int { return g.m }

// Pref returns the preference label of agent j (None = "?").
func (g *nestedGraph) Pref(j model.AgentID) model.Value { return g.prefs[j] }

// SetPref records agent j's initial preference. Recording a value that
// contradicts an already-known value panics: in a valid execution labels
// never conflict, so a conflict is a bug in the caller.
func (g *nestedGraph) SetPref(j model.AgentID, v model.Value) {
	if !v.IsSet() {
		panic("graph: SetPref with unset value")
	}
	if g.prefs[j].IsSet() && g.prefs[j] != v {
		panic(fmt.Sprintf("graph: conflicting preference labels for agent %d", j))
	}
	g.prefs[j] = v
}

// Edge returns the label of the edge (i,k) → (j,k+1): the message from i
// to j in round k+1. Edges outside the recorded rounds are Unknown.
func (g *nestedGraph) Edge(k int, i, j model.AgentID) Label {
	if k < 0 || k >= g.m {
		return Unknown
	}
	return g.edges[k][int(i)*g.n+int(j)]
}

// SetEdge records the label of the edge (i,k) → (j,k+1). Overwriting a
// known label with a different known label panics (impossible in a valid
// execution); overwriting with Unknown is ignored.
func (g *nestedGraph) SetEdge(k int, i, j model.AgentID, l Label) {
	if k < 0 || k >= g.m {
		panic(fmt.Sprintf("graph: SetEdge round %d outside [0,%d)", k, g.m))
	}
	slot := &g.edges[k][int(i)*g.n+int(j)]
	if l == Unknown {
		return
	}
	if *slot != Unknown && *slot != l {
		panic(fmt.Sprintf("graph: conflicting labels for edge (%d,%d)→(%d,%d)", i, k, j, k+1))
	}
	*slot = l
}

// Extend appends one round of Unknown edges, advancing M by one.
func (g *nestedGraph) Extend() {
	g.edges = append(g.edges, make([]Label, g.n*g.n))
	g.m++
}

// CloneExtended is Clone followed by Extend in one backing allocation:
// the per-round hot path of the full-information exchange, which clones
// the owner's graph and opens the next round every Update.
func (g *nestedGraph) CloneExtended() *nestedGraph {
	sz := g.n * g.n
	flat := make([]Label, (g.m+1)*sz)
	h := &nestedGraph{
		owner: g.owner,
		n:     g.n,
		m:     g.m + 1,
		prefs: append([]model.Value(nil), g.prefs...),
		edges: make([][]Label, g.m+1),
	}
	for k := range g.edges {
		row := flat[k*sz : (k+1)*sz : (k+1)*sz]
		copy(row, g.edges[k])
		h.edges[k] = row
	}
	h.edges[g.m] = flat[g.m*sz : (g.m+1)*sz : (g.m+1)*sz]
	return h
}

// Clone returns a deep copy (with the same owner).
func (g *nestedGraph) Clone() *nestedGraph {
	h := &nestedGraph{
		owner: g.owner,
		n:     g.n,
		m:     g.m,
		prefs: append([]model.Value(nil), g.prefs...),
		edges: make([][]Label, g.m),
	}
	for k := range g.edges {
		h.edges[k] = append([]Label(nil), g.edges[k]...)
	}
	return h
}

// CloneFor returns a deep copy owned by a different agent (used when a
// graph is shipped in a message and merged by the recipient).
func (g *nestedGraph) CloneFor(owner model.AgentID) *nestedGraph {
	h := g.Clone()
	h.owner = owner
	return h
}

// Merge folds every known label of other into g. The graphs must describe
// the same agent set; other may cover fewer rounds. Conflicting known
// labels panic: they cannot arise in a valid execution.
func (g *nestedGraph) Merge(other *nestedGraph) {
	if other.n != g.n {
		panic("graph: Merge of graphs with different agent counts")
	}
	if other.m > g.m {
		panic("graph: Merge of a graph from the future")
	}
	for j := 0; j < g.n; j++ {
		v := other.prefs[j]
		if !v.IsSet() || g.prefs[j] == v {
			continue
		}
		if g.prefs[j].IsSet() {
			panic(fmt.Sprintf("graph: conflicting preference labels for agent %d", j))
		}
		g.prefs[j] = v
	}
	for k := 0; k < other.m; k++ {
		dst := g.edges[k]
		for idx, l := range other.edges[k] {
			if l == Unknown || dst[idx] == l {
				continue
			}
			if dst[idx] != Unknown {
				panic(fmt.Sprintf("graph: conflicting labels for edge (%d,%d)→(%d,%d)",
					idx/g.n, k, idx%g.n, k+1))
			}
			dst[idx] = l
		}
	}
}

// Bits is the wire size of the graph under the natural dense encoding: two
// bits per edge label and two bits per preference label. This realizes the
// O(n²t) bits-per-message figure of Section 8 (a graph at time m has n²·m
// edge labels).
func (g *nestedGraph) Bits() int {
	return 2*g.n*g.n*g.m + 2*g.n
}

// AppendKey appends the graph's canonical fingerprint to dst: owner, time,
// preference labels and every round's edge labels. Two full-information
// local states are indistinguishable iff their graphs have equal keys. No
// key is cached: the model checker renders each distinct state's once.
func (g *nestedGraph) AppendKey(dst []byte) []byte {
	dst = append(strconv.AppendInt(dst, int64(g.owner), 10), '|')
	dst = append(strconv.AppendInt(dst, int64(g.m), 10), '|')
	for _, v := range g.prefs {
		dst = append(dst, "01?"[min(uint(v), 2)]) // None, a negative Value, reads ?
	}
	for k := 0; k < g.m; k++ {
		dst = append(dst, '|')
		for _, l := range g.edges[k] {
			dst = append(dst, "?01"[l])
		}
	}
	return dst
}

// String renders the graph for debugging.
func (g *nestedGraph) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "G{owner=%d m=%d prefs=", g.owner, g.m)
	for _, v := range g.prefs {
		b.WriteString(v.String())
	}
	for k := 0; k < g.m; k++ {
		fmt.Fprintf(&b, " r%d:", k+1)
		for i := 0; i < g.n; i++ {
			for j := 0; j < g.n; j++ {
				l := g.Edge(k, model.AgentID(i), model.AgentID(j))
				if l != Unknown {
					fmt.Fprintf(&b, "%d→%d:%s ", i, j, l)
				}
			}
		}
	}
	b.WriteString("}")
	return b.String()
}

// ReachTo computes the hears-from reachability grid for target (j, mj):
// result[a][k] reports whether (a,k) →_G (j,mj), i.e. whether everything
// agent a knew at time k has flowed to agent j by time mj along edges the
// graph knows were delivered (Definition A.1, restricted to the owner's
// knowledge). Self-steps (a,k) → (a,k+1) are always available: an agent
// remembers its own state.
func (g *nestedGraph) ReachTo(j model.AgentID, mj int) [][]bool {
	if mj < 0 || mj > g.m {
		panic(fmt.Sprintf("graph: ReachTo time %d outside [0,%d]", mj, g.m))
	}
	reach := make([][]bool, g.n)
	for a := range reach {
		reach[a] = make([]bool, mj+1)
	}
	reach[j][mj] = true
	for k := mj - 1; k >= 0; k-- {
		for a := 0; a < g.n; a++ {
			if reach[a][k+1] {
				reach[a][k] = true // self-step
				continue
			}
			for b := 0; b < g.n; b++ {
				if reach[b][k+1] && g.Edge(k, model.AgentID(a), model.AgentID(b)) == Sent {
					reach[a][k] = true
					break
				}
			}
		}
	}
	return reach
}
