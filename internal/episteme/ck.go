package episteme

import (
	"context"
	"math/bits"
	"sync"

	"repro/internal/model"
)

// cnLayer is the condensation of one time slice's C_N accessibility
// graph: q → q' iff some agent j nonfaulty at q cannot distinguish q from
// q'. To keep the edge count linear, the graph routes through class nodes:
// run r → class(j, class_j(r)) for each j ∈ N(r), and class(j, c) → every
// run in that class. The class nodes are the interned index's classes, so
// assembling the graph is pure integer arithmetic. Strongly connected
// components are condensed; queries then walk the DAG.
type cnLayer struct {
	// comp maps each run to its component id.
	comp []int
	// next is the deduplicated component DAG (successors).
	next [][]int
	// members lists the runs in each component (class-node components may
	// be empty).
	members [][]int
	// reach caches, per source component, the closure of reachable runs;
	// mu guards it. Closures are pure functions of the layer, so a racing
	// duplicate computation is benign (first store wins).
	mu    sync.RWMutex
	reach map[int][]int
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

// buildCNLayer assembles and condenses the time-m accessibility graph.
// Nodes are the runs followed by every index class of the slice (classes
// no nonfaulty agent carries stay unreachable from runs and are
// harmless); edges come straight from the interned index.
func (s *System) buildCNLayer(m int) *cnLayer {
	n := s.N
	runs := len(s.Runs)

	// base[i] is the node id of agent i's class 0; classes of slot (m, i)
	// occupy [base[i], base[i+1]).
	base := make([]int, n+1)
	base[0] = runs
	for i := 0; i < n; i++ {
		base[i+1] = base[i] + len(s.classRuns[m*n+i])
	}
	adj := make([][]int, base[n])
	for i := 0; i < n; i++ {
		slot := m*n + i
		for c, members := range s.classRuns[slot] {
			adj[base[i]+c] = members
		}
	}
	// One slab backs every run's out-edges (at most n each).
	outs := make([]int, 0, runs*n)
	for r := range s.Runs {
		pat := s.Runs[r].Pattern
		start := len(outs)
		for i := 0; i < n; i++ {
			if !pat.Nonfaulty(model.AgentID(i)) {
				continue
			}
			outs = append(outs, base[i]+int(s.classOf[m*n+i][r]))
		}
		adj[r] = outs[start:len(outs):len(outs)]
	}

	comp := tarjanSCC(adj)
	nComp := 0
	for _, c := range comp {
		if c+1 > nComp {
			nComp = c + 1
		}
	}
	layer := &cnLayer{
		comp:    comp[:runs],
		next:    make([][]int, nComp),
		members: make([][]int, nComp),
		reach:   make(map[int][]int),
	}
	// Group the nodes by component with a counting sort: component c's
	// nodes are grouped[off[c]:off[c+1]] in ascending order, its runs
	// (the low node ids) first.
	off := make([]int, nComp+1)
	runCount := make([]int, nComp)
	for v, c := range comp {
		off[c+1]++
		if v < runs {
			runCount[c]++
		}
	}
	for c := 0; c < nComp; c++ {
		off[c+1] += off[c]
	}
	grouped := make([]int, len(comp))
	fill := append([]int(nil), off[:nComp]...)
	for v, c := range comp {
		grouped[fill[c]] = v
		fill[c]++
	}
	// Walking one source component at a time lets a stamp per target
	// component deduplicate its edges: stamp[cw] == cv+1 iff cv → cw is
	// already in next[cv].
	stamp := make([]int, nComp)
	for cv := 0; cv < nComp; cv++ {
		for _, v := range grouped[off[cv]:off[cv+1]] {
			for _, w := range adj[v] {
				if cw := comp[w]; cw != cv && stamp[cw] != cv+1 {
					stamp[cw] = cv + 1
					layer.next[cv] = append(layer.next[cv], cw)
				}
			}
		}
		if k := runCount[cv]; k > 0 {
			layer.members[cv] = grouped[off[cv] : off[cv]+k : off[cv]+k]
		}
	}
	return layer
}

// tarjanSCC computes strongly connected components (iteratively, to be
// safe on deep graphs), returning a component id per node. Component ids
// are in reverse topological order of the condensation.
func tarjanSCC(adj [][]int) []int {
	n := len(adj)
	index := make([]int, n)
	low := make([]int, n)
	onStack := make([]bool, n)
	comp := make([]int, n)
	for i := range index {
		index[i] = -1
		comp[i] = -1
	}
	// Both stacks can grow to every node of one deep component; sized for
	// that once instead of doubling their way there.
	type frame struct{ v, child int }
	stack := make([]int, 0, n)
	frames := make([]frame, 0, n)
	counter, nComp := 0, 0

	for start := 0; start < n; start++ {
		if index[start] != -1 {
			continue
		}
		frames = append(frames[:0], frame{v: start})
		index[start], low[start] = counter, counter
		counter++
		stack = append(stack, start)
		onStack[start] = true
		for len(frames) > 0 {
			f := &frames[len(frames)-1]
			if f.child < len(adj[f.v]) {
				w := adj[f.v][f.child]
				f.child++
				if index[w] == -1 {
					index[w], low[w] = counter, counter
					counter++
					stack = append(stack, w)
					onStack[w] = true
					frames = append(frames, frame{v: w})
				} else if onStack[w] && index[w] < low[f.v] {
					low[f.v] = index[w]
				}
				continue
			}
			v := f.v
			frames = frames[:len(frames)-1]
			if len(frames) > 0 {
				parent := frames[len(frames)-1].v
				if low[v] < low[parent] {
					low[parent] = low[v]
				}
			}
			if low[v] == index[v] {
				for {
					w := stack[len(stack)-1]
					stack = stack[:len(stack)-1]
					onStack[w] = false
					comp[w] = nComp
					if w == v {
						break
					}
				}
				nComp++
			}
		}
	}
	return comp
}

// computeReach walks the condensation DAG from src, collecting the runs
// of every reachable component. Pure: it reads only immutable layer
// state.
func (l *cnLayer) computeReach(src int) []int {
	visited := make([]bool, len(l.next))
	var out []int
	var stack []int
	push := func(c int) {
		if !visited[c] {
			visited[c] = true
			stack = append(stack, c)
		}
	}
	// ≥1 step: start from the successors of src — but src's own component
	// is reachable whenever it lies on a cycle, which it always does here
	// (a nonfaulty agent's self-indistinguishability routes r back to r
	// through its class node, and N is nonempty since t < n). Components
	// containing runs always have such a cycle, so include src.
	push(src)
	for len(stack) > 0 {
		c := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		out = append(out, l.members[c]...)
		for _, d := range l.next[c] {
			push(d)
		}
	}
	return out
}

// CNReachable returns the runs whose time-p.Time points are reachable from
// p in one or more steps of the C_N accessibility relation. Reachability
// is served from the per-time condensation; closures are cached per
// source component. Safe for concurrent use.
func (s *System) CNReachable(p Point) []int {
	layer := s.cnLayerAt(p.Time)
	src := layer.comp[p.Run]
	layer.mu.RLock()
	out, ok := layer.reach[src]
	layer.mu.RUnlock()
	if ok {
		return out
	}
	out = layer.computeReach(src)
	layer.mu.Lock()
	if prev, ok := layer.reach[src]; ok {
		out = prev
	} else {
		layer.reach[src] = out
	}
	layer.mu.Unlock()
	return out
}

// faultyMask returns the faulty set of a run as a bitmask.
func (s *System) faultyMask(run int) uint64 {
	var mask uint64
	pat := s.Runs[run].Pattern
	for i := 0; i < s.N; i++ {
		if pat.Faulty(model.AgentID(i)) {
			mask |= 1 << uint(i)
		}
	}
	return mask
}

// CKTFaulty evaluates the paper's C_N(t-faulty ∧ no-decided_N(1−v) ∧ ∃v)
// at q. Unfolding the t-faulty abbreviation, the formula asks for a set A
// of exactly t agents such that C_N holds of "every agent in A is faulty,
// no nonfaulty agent has decided 1−v, and some agent started with v". Such
// an A exists iff the intersection of the faulty sets over every
// C_N-reachable point has at least t members.
func (s *System) CKTFaulty(q Point, v model.Value) bool {
	reach := s.CNReachable(q)
	if len(reach) == 0 {
		return false
	}
	inter := ^uint64(0)
	for _, run := range reach {
		pt := Point{Run: run, Time: q.Time}
		if !s.NoDecidedN(v.Flip(), pt) || !s.Exists(v, pt) {
			return false
		}
		inter &= s.faultyMask(run)
	}
	return bits.OnesCount64(inter) >= s.T
}

// KnowsCK evaluates K_i(C_N(t-faulty ∧ no-decided_N(1−v) ∧ ∃v)) at p:
// the common-knowledge guard of the knowledge-based program P1.
func (s *System) KnowsCK(i model.AgentID, p Point, v model.Value) bool {
	return s.Knows(i, p, func(q Point) bool { return s.CKTFaulty(q, v) })
}
