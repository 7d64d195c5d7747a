package episteme

import (
	"context"
	"math"
	"math/bits"
	"slices"
	"sync"

	"repro/internal/model"
)

// cnLayer is the condensation of one time slice's C_N accessibility
// graph: q → q' iff some agent j nonfaulty at q cannot distinguish q from
// q'. To keep the edge count linear, the graph routes through class nodes:
// run r → class(j, class_j(r)) for each j ∈ N(r), and class(j, c) → every
// run in that class. The class nodes are the interned index's classes, so
// the graph is never materialised — cnGraph reads a node's successors
// straight from the index. Strongly connected components are condensed;
// queries then walk the DAG, except the one question the checkers ask at
// every point — P1's common-knowledge guard — which is folded over the DAG
// once, as the layer is built.
//
// The graph's run nodes are the frame's rows: the runs of a row share
// their faulty set, their classes and the guard body, hence their
// successors and their component; the layer is linear in rows, and only
// CNReachable turns rows back into runs.
type cnLayer struct {
	// comp maps each row to its component id.
	comp []int32
	// next is the deduplicated component DAG (successors). Tarjan numbers a
	// component after everything it reaches, so every successor's id is
	// lower than its source's.
	next [][]int32
	// members lists the rows in each component (class-node components may
	// be empty).
	members members
	// ck[v][c] reports C_N(t-faulty ∧ no-decided_N(1−v) ∧ ∃v) at the points
	// of component c (the formula is a function of the component: every
	// point of it reaches the same set).
	ck [2][]bool
	// reach caches, per source component, the closure of reachable runs;
	// mu guards it. Closures are pure functions of the layer, so a racing
	// duplicate computation is benign (first store wins).
	mu    sync.RWMutex
	reach map[int32][]int
}

// cnSlot builds one time slice's layer exactly once.
type cnSlot struct {
	once  sync.Once
	layer *cnLayer
}

// cnLayerAt returns (building and memoizing on first use) the
// condensation for time m. Safe for concurrent use; concurrent callers
// for different times build their layers in parallel.
func (s *System) cnLayerAt(m int) *cnLayer {
	s.cnMu.Lock()
	if s.cn == nil {
		s.cn = make(map[int]*cnSlot)
	}
	sl := s.cn[m]
	if sl == nil {
		sl = new(cnSlot)
		s.cn[m] = sl
	}
	s.cnMu.Unlock()
	sl.once.Do(func() { sl.layer = s.buildCNLayer(m) })
	return sl.layer
}

// prebuildCN builds the condensations of times 0..Horizon-1 — the slices
// CheckImplements' point loop (bounded by m < Horizon) can query — over
// the worker pool, so a subsequent sharded check never serializes on
// layer construction. The final time slice stays lazy: only direct
// CNReachable/formula queries at time Horizon need it.
func (s *System) prebuildCN(ctx context.Context) error {
	return s.parallel(ctx, s.Horizon, func(m int) { s.cnLayerAt(m) })
}

// cnGraph is the time-m accessibility graph, read from the interned
// index without building adjacency lists. Nodes are the slice's rows
// ("runs" below) followed by every index class of the slice: agent i's
// class c is node base[i]+c (classes no nonfaulty agent carries stay
// unreachable from runs and are harmless). A run's successors are the
// class nodes of its nonfaulty agents in ascending agent order, a class
// node's are its runs in ascending order. Node ids are int32 like the
// class ids they are built from.
type cnGraph struct {
	n, runs int
	// base has n+1 entries; base[n] is the node count.
	base []int32
	// classOf and classRuns are the frame's class ids and member lists of
	// the slice's n slots.
	classOf   []classIDs
	classRuns []members
	faulty    []uint64
}

// classNode returns run r's successor through agent i: the node of i's
// class at r.
func (g *cnGraph) classNode(r int32, i int) int32 { return g.base[i] + g.classOf[i].at(int(r)) }

// members returns the runs of class node v.
func (g *cnGraph) members(v int32) []int32 {
	i := g.n - 1
	for v < g.base[i] {
		i--
	}
	return g.classRuns[i].of(v - g.base[i])
}

// buildCNLayer condenses the time-m accessibility graph and folds the
// common-knowledge guard over the condensation.
func (s *System) buildCNLayer(m int) *cnLayer {
	n := s.N
	l := s.frame.layout(m)
	runs := l.n
	g := &cnGraph{
		n: n, runs: runs,
		base:      make([]int32, n+1),
		classOf:   make([]classIDs, n),
		classRuns: make([]members, n),
		faulty:    s.frame.faulty(m),
	}
	g.base[0] = int32(runs)
	for i := 0; i < n; i++ {
		g.classOf[i], g.classRuns[i] = s.frame.classes(m*n+i), s.frame.members(m*n+i)
		g.base[i+1] = g.base[i] + int32(len(g.classRuns[i].off)-1)
	}

	comp, nComp := g.scc()
	layer := &cnLayer{
		comp:  comp[:runs],
		next:  make([][]int32, nComp),
		reach: make(map[int32][]int),
	}
	// Group the nodes by component with a counting sort: component c's
	// nodes are grouped[off[c]:off[c+1]] in ascending order, its runs
	// (the low node ids) first; the runs alone land in members at
	// runOff[c]:runOff[c+1].
	off := make([]int32, nComp+1)
	runOff := make([]int32, nComp+1)
	for v, c := range comp {
		off[c+1]++
		if v < runs {
			runOff[c+1]++
		}
	}
	for c := 0; c < nComp; c++ {
		off[c+1] += off[c]
		runOff[c+1] += runOff[c]
	}
	grouped := make([]int32, len(comp))
	fill := append([]int32(nil), off[:nComp]...)
	for v, c := range comp {
		grouped[fill[c]] = int32(v)
		fill[c]++
	}
	layer.members = members{rows: make([]int32, runs), off: runOff}

	// Build the DAG and fold the guard over it. Walking one source
	// component at a time lets a stamp per target component deduplicate its
	// edges: stamp[cw] == cv+1 iff cv → cw is already in next[cv]. Every
	// successor is numbered below cv, so what the fold knows of it is final
	// when cv reads it. The fold takes the cheap conjunct first: inter[cv],
	// the faulty sets common to everything cv reaches, is that of cv's own
	// runs and of each successor's reach, and where it has fewer than t
	// members both guards fail without a look at the runs.
	ck0, ck1 := make([]bool, nComp), make([]bool, nComp)
	inter := make([]uint64, nComp)
	stamp := make([]int32, nComp)
	link := func(cv, cw int32) {
		stamp[cw] = cv + 1
		layer.next[cv] = append(layer.next[cv], cw)
		inter[cv] &= inter[cw]
	}
	for cv := int32(0); int(cv) < nComp; cv++ {
		nodes := grouped[off[cv]:off[cv+1]]
		nRuns := runOff[cv+1] - runOff[cv]
		inter[cv] = ^uint64(0)
		for _, v := range nodes[:nRuns] {
			fm := g.faulty[v]
			for i := 0; i < n; i++ {
				if fm>>uint(i)&1 != 0 {
					continue
				}
				if cw := comp[g.classNode(v, i)]; cw != cv && stamp[cw] != cv+1 {
					link(cv, cw)
				}
			}
		}
		for _, v := range nodes[nRuns:] {
			for _, w := range g.members(v) {
				if cw := comp[w]; cw != cv && stamp[cw] != cv+1 {
					link(cv, cw)
				}
			}
		}
		copy(layer.members.rows[runOff[cv]:], nodes[:nRuns])
		for _, v := range nodes[:nRuns] {
			inter[cv] &= g.faulty[v]
		}
		enough := bits.OnesCount64(inter[cv]) >= s.T
		ck0[cv], ck1[cv] = enough, enough
	}
	// The guard bodies, read off the runs in run order (the walk above
	// visits them by component, which is no order in memory) and only
	// where a guard can still hold; then down the DAG once more: a body
	// holds throughout what cv reaches iff it holds at cv's own runs and
	// throughout what each successor reaches. (A successor short of t
	// common faulty agents fails the guard and so does cv, whose set is no
	// larger — so the successor's ck can stand in for "its body holds
	// throughout".)
	for r, c := range layer.comp {
		if ck0[c] || ck1[c] {
			b := s.guardBody(l.first(r), m, g.faulty[r])
			ck0[c] = ck0[c] && b[0]
			ck1[c] = ck1[c] && b[1]
		}
	}
	for cv, succs := range layer.next {
		for _, cw := range succs {
			ck0[cv] = ck0[cv] && ck0[cw]
			ck1[cv] = ck1[cv] && ck1[cw]
		}
	}
	layer.ck = [2][]bool{ck0, ck1}
	return layer
}

// guardBody evaluates no-decided_N(1−v) ∧ ∃v at (run, m) for v = 0 and 1,
// the body of P1's common-knowledge guards, with the run's nonfaulty set
// read from its faulty mask.
func (s *System) guardBody(run, m int, faulty uint64) [2]bool {
	var exists, decidedN [2]bool
	for i, d := range s.labels.of(run) {
		exists[s.Runs[run].Init(model.AgentID(i))] = true
		if !faultyAt(faulty, model.AgentID(i)) && d.by(d.v, m) {
			decidedN[d.v] = true
		}
	}
	return [2]bool{exists[0] && !decidedN[1], exists[1] && !decidedN[0]}
}

// scc computes the graph's strongly connected components with Tarjan's
// algorithm (iteratively, to be safe on deep graphs), returning a
// component id per node and the component count. Component ids are in
// reverse topological order of the condensation.
func (g *cnGraph) scc() (comp []int32, nComp int) {
	total := int(g.base[g.n])
	// A node's visit number (from 1; 0 marks it unvisited) beside its
	// low-link, so following an edge touches one cache line of state. A
	// node whose component is numbered gets the visit number numbered,
	// above every live one: "w is on the stack and was visited before
	// low[v]" is then the single test index[w] < low[v].
	type mark struct{ index, low int32 }
	const numbered = math.MaxInt32
	marks := make([]mark, total)
	comp = make([]int32, total)
	// Both stacks can grow to every node of one deep component; sized for
	// that once instead of doubling their way there.
	type frame struct{ v, child int32 }
	stack := make([]int32, 0, total)
	frames := make([]frame, 0, total)
	counter := int32(0)

	for start := int32(0); int(start) < total; start++ {
		if marks[start].index != 0 {
			continue
		}
		counter++
		marks[start] = mark{counter, counter}
		stack = append(stack, start)
		frames = append(frames[:0], frame{v: start})
		for len(frames) > 0 {
			f := &frames[len(frames)-1]
			v := f.v
			// Scan v's successors from the cursor up to the first
			// unvisited one, which the walk descends into.
			low, next := marks[v].low, int32(-1)
			if int(v) < g.runs {
				fm := g.faulty[v]
				for i := int(f.child); i < g.n; i++ {
					if fm>>uint(i)&1 != 0 {
						continue
					}
					w := g.classNode(v, i)
					if wi := marks[w].index; wi == 0 {
						next, f.child = w, int32(i+1)
						break
					} else if wi < low {
						low = wi
					}
				}
			} else {
				members := g.members(v)
				for k := int(f.child); k < len(members); k++ {
					if wi := marks[members[k]].index; wi == 0 {
						next, f.child = members[k], int32(k+1)
						break
					} else if wi < low {
						low = wi
					}
				}
			}
			marks[v].low = low
			if next >= 0 {
				counter++
				marks[next] = mark{counter, counter}
				stack = append(stack, next)
				frames = append(frames, frame{v: next})
				continue
			}
			frames = frames[:len(frames)-1]
			if len(frames) > 0 {
				parent := frames[len(frames)-1].v
				if marks[v].low < marks[parent].low {
					marks[parent].low = marks[v].low
				}
			}
			if marks[v].low == marks[v].index {
				for {
					w := stack[len(stack)-1]
					stack = stack[:len(stack)-1]
					marks[w].index = numbered
					comp[w] = int32(nComp)
					if w == v {
						break
					}
				}
				nComp++
			}
		}
	}
	return comp, nComp
}

// computeReach walks the condensation DAG from src, collecting the rows
// of every reachable component. Pure: it reads only immutable layer
// state.
func (l *cnLayer) computeReach(src int32) []int32 {
	// ≥1 step: start from the successors of src — but src's own component
	// is reachable whenever it lies on a cycle, which it always does here
	// (a nonfaulty agent's self-indistinguishability routes r back to r
	// through its class node, and N is nonempty since t < n). Components
	// containing runs always have such a cycle, so include src.
	//
	// The walk lists the reachable components' member lists first, so the
	// result — most rows of the slice, typically — is allocated once
	// instead of doubling its way up.
	visited := make([]bool, len(l.next))
	visited[src] = true
	stack := []int32{src}
	var lists [][]int32
	for len(stack) > 0 {
		c := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		lists = append(lists, l.members.of(c))
		for _, d := range l.next[c] {
			if !visited[d] {
				visited[d] = true
				stack = append(stack, d)
			}
		}
	}
	return slices.Concat(lists...)
}

// CNReachable returns the runs whose time-p.Time points are reachable from
// p in one or more steps of the C_N accessibility relation. Reachability
// is served from the per-time condensation; closures are cached per
// source component. Safe for concurrent use.
func (s *System) CNReachable(p Point) []int {
	s.mustCheckable()
	layer := s.cnLayerAt(p.Time)
	src := layer.comp[s.frame.layout(p.Time).row(p.Run)]
	layer.mu.RLock()
	out, ok := layer.reach[src]
	layer.mu.RUnlock()
	if ok {
		return out
	}
	out = s.runsOfRows(p.Time, layer.computeReach(src))
	layer.mu.Lock()
	if prev, ok := layer.reach[src]; ok {
		out = prev
	} else {
		layer.reach[src] = out
	}
	layer.mu.Unlock()
	return out
}

// CKTFaulty evaluates the paper's C_N(t-faulty ∧ no-decided_N(1−v) ∧ ∃v)
// at q. Unfolding the t-faulty abbreviation, the formula asks for a set A
// of exactly t agents such that C_N holds of "every agent in A is faulty,
// no nonfaulty agent has decided 1−v, and some agent started with v". Such
// an A exists iff the intersection of the faulty sets over every
// C_N-reachable point has at least t members — which buildCNLayer folded
// per component, so this is two index reads.
func (s *System) CKTFaulty(q Point, v model.Value) bool {
	layer := s.cnLayerAt(q.Time)
	return layer.ck[v][layer.comp[s.frame.layout(q.Time).row(q.Run)]]
}

// KnowsCK evaluates K_i(C_N(t-faulty ∧ no-decided_N(1−v) ∧ ∃v)) at p:
// the common-knowledge guard of the knowledge-based program P1.
func (s *System) KnowsCK(i model.AgentID, p Point, v model.Value) bool {
	s.mustCheckable()
	layer := s.cnLayerAt(p.Time)
	ck := layer.ck[v]
	return s.everyRow(i, p, func(row int) bool { return ck[layer.comp[row]] })
}
