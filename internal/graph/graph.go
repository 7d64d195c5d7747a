// Package graph implements the compact communication-graph representation
// of the full-information exchange (Section A.2.7 of the paper, following
// Moses and Tuttle), together with the derived quantities used by the
// polynomial-time optimal protocol P_opt: the hears-from relation, the
// faulty-knowledge sets f and D, the inferred decision table d, the
// known-values sets V, and the decision conditions common_v, cond0, and
// cond1.
//
// A Graph is the local state of one agent under the full-information
// exchange: for every round it records, for every ordered pair of agents,
// whether the owner knows the message was delivered (Sent), knows it was
// not (NotSent), or does not know (Unknown); and for every agent whether
// the owner knows its initial preference. All of it is one flat slab of
// labels, preferences first and then one n²-label block per round, so a
// graph carries no per-round slice headers and its labels hold nothing
// for the collector to scan.
package graph

import (
	"fmt"
	"strconv"
	"strings"

	"repro/internal/model"
)

// Label is the paper's edge label: 1 (message known delivered), 0 (message
// known not delivered), or ? (unknown).
type Label uint8

// Edge labels.
const (
	// Unknown is the paper's "?" label.
	Unknown Label = iota
	// NotSent is the paper's "0" label: the owner knows the message was not
	// delivered.
	NotSent
	// Sent is the paper's "1" label: the owner knows the message was
	// delivered.
	Sent
)

// String renders the label as "?", "0", or "1".
func (l Label) String() string {
	switch l {
	case NotSent:
		return "0"
	case Sent:
		return "1"
	default:
		return "?"
	}
}

// Graph is a communication graph G_{i,m}: agent i's view of rounds 1..m.
// The zero value is not usable; construct with New.
//
// Every label lives in one pointer-free slab: the n preference labels
// first (Unknown for "?", NotSent for 0, Sent for 1), then round k's n²
// edge labels at offset n + k·n², the label of i → j at i·n + j within
// its round. A graph is therefore one object besides its header, and a
// full-information state that holds its Graph by value is two.
type Graph struct {
	owner  model.AgentID
	n      int
	m      int
	labels []Label
}

// New returns the time-0 communication graph of the given agent: no edges,
// no preference labels.
func New(owner model.AgentID, n int) *Graph {
	return &Graph{owner: owner, n: n, labels: make([]Label, n)}
}

// Owner is the agent whose view this graph is.
func (g *Graph) Owner() model.AgentID { return g.owner }

// N is the number of agents.
func (g *Graph) N() int { return g.n }

// M is the time of the view: the graph describes rounds 1..M.
func (g *Graph) M() int { return g.m }

// Pref returns the preference label of agent j (None = "?").
func (g *Graph) Pref(j model.AgentID) model.Value { return model.Value(g.labels[j]) - 1 }

// SetPref records agent j's initial preference. Recording a value that
// contradicts an already-known value panics: in a valid execution labels
// never conflict, so a conflict is a bug in the caller.
func (g *Graph) SetPref(j model.AgentID, v model.Value) {
	if !v.IsSet() {
		panic("graph: SetPref with unset value")
	}
	g.set(int(j), Label(v+1))
}

// edge is the slab index of the edge (i,k) → (j,k+1).
func (g *Graph) edge(k int, i, j model.AgentID) int {
	return g.n + k*g.n*g.n + int(i)*g.n + int(j)
}

// Edge returns the label of the edge (i,k) → (j,k+1): the message from i
// to j in round k+1. Edges outside the recorded rounds are Unknown.
func (g *Graph) Edge(k int, i, j model.AgentID) Label {
	if k < 0 || k >= g.m {
		return Unknown
	}
	return g.labels[g.edge(k, i, j)]
}

// SetEdge records the label of the edge (i,k) → (j,k+1). Overwriting a
// known label with a different known label panics (impossible in a valid
// execution); overwriting with Unknown is ignored.
func (g *Graph) SetEdge(k int, i, j model.AgentID, l Label) {
	if k < 0 || k >= g.m {
		panic(fmt.Sprintf("graph: SetEdge round %d outside [0,%d)", k, g.m))
	}
	if l != Unknown {
		g.set(g.edge(k, i, j), l)
	}
}

// set writes the known label l at slab index idx, panicking when it
// contradicts the label already there.
func (g *Graph) set(idx int, l Label) {
	if old := g.labels[idx]; old != Unknown && old != l {
		panic(g.conflict(idx))
	}
	g.labels[idx] = l
}

// conflict describes a contradiction at slab index idx.
func (g *Graph) conflict(idx int) string {
	if idx < g.n {
		return fmt.Sprintf("graph: conflicting preference labels for agent %d", idx)
	}
	k, e := (idx-g.n)/(g.n*g.n), (idx-g.n)%(g.n*g.n)
	return fmt.Sprintf("graph: conflicting labels for edge (%d,%d)→(%d,%d)", e/g.n, k, e%g.n, k+1)
}

// Extend appends one round of Unknown edges, advancing M by one.
func (g *Graph) Extend() {
	g.labels = append(g.labels, make([]Label, g.n*g.n)...)
	g.m++
}

// CloneExtended writes into dst a copy of g followed by one round of
// Unknown edges, in one allocation: the per-round hot path of the
// full-information exchange, which extends the owner's graph straight
// into the next state every Update. dst may be g itself.
func (g *Graph) CloneExtended(dst *Graph) {
	labels := make([]Label, len(g.labels)+g.n*g.n)
	copy(labels, g.labels)
	*dst = Graph{owner: g.owner, n: g.n, m: g.m + 1, labels: labels}
}

// Clone returns a deep copy (with the same owner).
func (g *Graph) Clone() *Graph {
	return g.CloneFor(g.owner)
}

// CloneFor returns a deep copy owned by a different agent (used when a
// graph is shipped in a message and merged by the recipient).
func (g *Graph) CloneFor(owner model.AgentID) *Graph {
	return &Graph{owner: owner, n: g.n, m: g.m, labels: append([]Label(nil), g.labels...)}
}

// Merge folds every known label of other into g. The graphs must describe
// the same agent set; other may cover fewer rounds. Conflicting known
// labels panic: they cannot arise in a valid execution.
func (g *Graph) Merge(other *Graph) {
	if other.n != g.n {
		panic("graph: Merge of graphs with different agent counts")
	}
	if other.m > g.m {
		panic("graph: Merge of a graph from the future")
	}
	dst := g.labels[:len(other.labels)]
	for idx, l := range other.labels {
		if l == Unknown || dst[idx] == l {
			continue
		}
		if dst[idx] != Unknown {
			panic(g.conflict(idx))
		}
		dst[idx] = l
	}
}

// Bits is the wire size of the graph under the natural dense encoding: two
// bits per edge label and two bits per preference label. This realizes the
// O(n²t) bits-per-message figure of Section 8 (a graph at time m has n²·m
// edge labels).
func (g *Graph) Bits() int {
	return 2*g.n*g.n*g.m + 2*g.n
}

// AppendKey appends the graph's canonical fingerprint to dst: owner, time,
// preference labels and every round's edge labels. Two full-information
// local states are indistinguishable iff their graphs have equal keys. No
// key is cached: the model checker renders each distinct state's once.
func (g *Graph) AppendKey(dst []byte) []byte {
	dst = append(strconv.AppendInt(dst, int64(g.owner), 10), '|')
	dst = append(strconv.AppendInt(dst, int64(g.m), 10), '|')
	for off, end := 0, g.n; off < len(g.labels); off, end = end, end+g.n*g.n {
		if off > 0 {
			dst = append(dst, '|')
		}
		for _, l := range g.labels[off:end] {
			dst = append(dst, "?01"[l])
		}
	}
	return dst
}

// String renders the graph for debugging.
func (g *Graph) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "G{owner=%d m=%d prefs=", g.owner, g.m)
	for j := 0; j < g.n; j++ {
		b.WriteString(g.Pref(model.AgentID(j)).String())
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
func (g *Graph) ReachTo(j model.AgentID, mj int) [][]bool {
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
