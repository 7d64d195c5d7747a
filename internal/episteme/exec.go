package episteme

import (
	"sync"

	"repro/internal/engine"
	"repro/internal/model"
)

// memoExec is the model checker's execution substrate: an engine.Executor
// that shares work across the runs of one exhaustive enumeration. The
// engine is deterministic and the context synchronous, so a round's
// outcome is a function of the time-m state vector, the actions chosen on
// it and the round's drops. memoExec keeps the runs' histories as a
// graph: a node is one time's state vector with the actions chosen on it,
// and an edge, keyed by a node and the round's n²-bit drop mask, leads to
// the next node and carries the round's traffic stats. A run takes one
// read-locked lookup per round and executes only the rounds no earlier
// run took from the same node.
//
// Histories that reach equal state vectors before the horizon share one
// node. States are compared with == (model.State's contract), so Emin's
// and Ebasic's value states converge, while an Efip state, a pointer,
// equals only itself. Every run through a node aliases its immutable
// state row, which is what the direct index build groups runs by.
//
// Drop masks and node keys cover n ≤ 8, and one memo serves the runs of
// one horizon; other configurations (far beyond exhaustive checking
// anyway) run on the plain engine. Safe for concurrent use by the
// Runner's worker pool.
type memoExec struct {
	horizon int
	mu      sync.RWMutex
	roots   map[uint32]memoNode         // packed initial preferences → time-0 node
	edges   map[memoEdgeKey]memoEdge    // (node, round drops) → next node and stats
	nodes   map[[8]model.State]memoNode // state vector → node, for times 1..horizon-1
}

// memoNode is one time's state vector, identified by the row's first
// element, and the actions chosen on it: immutable slices every run
// through the node aliases. Held by value, since a short-lived object per
// round would fragment the heap the rows stay in.
type memoNode struct {
	states []model.State
	acts   []model.Action // nil at the horizon, where no round is left
}

// memoEdgeKey is one round's departure, memoEdge its arrival and traffic.
type memoEdgeKey struct {
	from  *model.State // &states[0] of the departing node
	drops uint64
}

type memoEdge struct {
	to    memoNode
	stats engine.Stats
}

// newMemoExec sizes no map: an n=4 stripe's graph holds a few hundred
// edges and nodes, where a 1,024-entry hint cost 577 KB before any run.
func newMemoExec(horizon int) *memoExec {
	return &memoExec{
		horizon: horizon,
		roots:   make(map[uint32]memoNode),
		edges:   make(map[memoEdgeKey]memoEdge),
		nodes:   make(map[[8]model.State]memoNode),
	}
}

// Name identifies the executor.
func (e *memoExec) Name() string { return "episteme-memo" }

// newNode evaluates the action protocol on a state vector, unless the
// vector is at the horizon. It runs outside the lock: action protocols
// are functions of the local state, so a racing duplicate chooses the
// same actions and is simply dropped.
func (e *memoExec) newNode(act model.ActionProtocol, states []model.State) memoNode {
	nd := memoNode{states: states}
	if states[0].Time() < e.horizon {
		nd.acts = make([]model.Action, len(states))
		for i, s := range states {
			nd.acts[i] = act.Act(model.AgentID(i), s)
		}
	}
	return nd
}

// root returns the shared time-0 node of a configuration's initial
// assignment (at most 2ⁿ exist).
func (e *memoExec) root(cfg engine.Config) memoNode {
	var key uint32
	for i, v := range cfg.Inits {
		key |= uint32(v&3) << (2 * uint(i))
	}
	e.mu.RLock()
	nd, ok := e.roots[key]
	e.mu.RUnlock()
	if ok {
		return nd
	}
	states := make([]model.State, len(cfg.Inits))
	for i, v := range cfg.Inits {
		states[i] = cfg.Exchange.Initial(model.AgentID(i), v)
	}
	nd = e.newNode(cfg.Action, states)
	e.mu.Lock()
	defer e.mu.Unlock()
	if prev, again := e.roots[key]; again {
		return prev
	}
	e.roots[key] = nd
	return nd
}

// step executes the round an edge key names and lands the edge. The
// first edge landed for a key wins, and a successor before the horizon
// joins an equal node when the graph already holds one.
func (e *memoExec) step(cfg engine.Config, m int, from memoNode, key memoEdgeKey, buf *engine.Buffers) (memoEdge, error) {
	next := make([]model.State, len(from.states))
	stats, err := engine.StepInto(cfg.Exchange, cfg.Pattern, m, from.states, from.acts, next, buf)
	if err != nil {
		return memoEdge{}, err
	}
	nd := e.newNode(cfg.Action, next)
	e.mu.Lock()
	defer e.mu.Unlock()
	if prev, again := e.edges[key]; again {
		return prev, nil
	}
	if nd.acts != nil { // a leaf has no round left to share
		var vec [8]model.State
		copy(vec[:], next)
		if prev, ok := e.nodes[vec]; ok {
			nd = prev
		} else {
			e.nodes[vec] = nd
		}
	}
	ed := memoEdge{to: nd, stats: stats}
	e.edges[key] = ed
	return ed, nil
}

// dropMask packs round-m delivery of every ordered pair into a bitmask.
func dropMask(pat *model.Pattern, m, n int) uint64 {
	var mask uint64
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			if !pat.Delivered(m, model.AgentID(i), model.AgentID(j)) {
				mask |= 1 << uint(i*n+j)
			}
		}
	}
	return mask
}

// Execute runs one configuration like engine.RunBuffered, walking the
// graph and executing only the rounds it does not hold yet. Results are
// bit-identical to the plain engine's (shared state objects are equal by
// construction); only the work is shared. Result.Inits aliases
// cfg.Inits, a row the scenario source shares read-only, and a System's
// runs are never written.
func (e *memoExec) Execute(cfg engine.Config, buf *engine.Buffers) (*engine.Result, error) {
	n, horizon, err := cfg.Validate()
	if err != nil {
		return nil, err
	}
	if n > 8 || horizon != e.horizon {
		return engine.RunBuffered(cfg, buf)
	}
	res := engine.NewResult(n, horizon, cfg.Pattern, cfg.Inits)
	nd := e.root(cfg)
	res.States[0] = nd.states
	for m := 0; m < horizon; m++ {
		res.Record(m, nd.acts)
		key := memoEdgeKey{from: &nd.states[0], drops: dropMask(cfg.Pattern, m, n)}
		e.mu.RLock()
		ed, ok := e.edges[key]
		e.mu.RUnlock()
		if !ok {
			if ed, err = e.step(cfg, m, nd, key, buf); err != nil {
				return nil, err
			}
		}
		res.Stats.Add(ed.stats)
		nd = ed.to
		res.States[m+1] = nd.states
	}
	return res, nil
}
