package core

import (
	"bytes"
	"fmt"
	"hash/maphash"
	"sync"
	"sync/atomic"

	"repro/internal/engine"
	"repro/internal/model"
)

// The orbit memo's bound charges an entry its key, its actions and
// orbitEntryBytes (36.7 MiB for the fip n=3,t=2 sweep's 263,716 orbits);
// orbitMemoMaxAgents is the largest n measured to gain from the memo.
const orbitMemoBytes, orbitEntryBytes, orbitMemoMaxAgents = 40 << 20, 88, 5

// OrbitMemo is RunShard's memo of one executed run per agent-permutation
// orbit, in representative labels and in flat slices the collector never
// scans (docs/architecture.md, "The orbit memo"). RunShard makes a fresh
// one per call unless WithOrbitMemo hands it one to share across calls,
// concurrent ones too. The entry that would pass limit fills it: it drops
// its entries, its calls stop canonicalizing, and later ones make their own.
type OrbitMemo struct {
	stack string // orbitIdentity of the stack it was made for
	limit int
	mu    sync.RWMutex
	seed  maphash.Seed
	index map[uint64]int32 // a key whose hash is taken is not stored
	keys  []byte           // all of one length
	acts  []model.Action   // horizon·n per entry, by time then agent
	stats []engine.Stats
	full  atomic.Bool
}

// NewOrbitMemo returns an empty memo for the stack's sweeps, or nil when
// the stack's exchange has no model.KeyPermuter or it has too many agents.
func NewOrbitMemo(stack Stack) *OrbitMemo {
	if _, ok := stack.Exchange.(model.KeyPermuter); !ok || stack.N > orbitMemoMaxAgents {
		return nil
	}
	return &OrbitMemo{stack: orbitIdentity(stack), limit: orbitMemoBytes, seed: maphash.MakeSeed(), index: make(map[uint64]int32)}
}

// orbitIdentity names what a memo's entries depend on.
func orbitIdentity(s Stack) string {
	return fmt.Sprintf("%s+%s n=%d t=%d horizon %d", s.Exchange.Name(), s.Action.Name(), s.N, s.T, s.Horizon())
}

// orbitCall is one RunShard call's use of a memo: it counts the call's
// relabeled runs, which calls sharing the memo do not see.
type orbitCall struct {
	*OrbitMemo
	relabeled atomic.Int64
}

// executor returns a worker's executor over x, under x's result cache.
func (m *orbitCall) executor(x engine.Executor) engine.Executor {
	if c, ok := x.(*CachingExecutor); ok {
		over := *c
		over.inner = m.executor(c.inner)
		return &over
	}
	return &orbitExecutor{Executor: x, memo: m}
}

// orbitExecutor is one worker's view of the memo over a substrate. It owns
// its canonicalizer, as it owns its engine.Buffers, to keep its pattern memo.
type orbitExecutor struct {
	engine.Executor
	memo  *orbitCall
	canon model.Canonicalizer
	perm  []model.AgentID
	key   []byte
}

// Execute relabels cfg's run from its orbit's entry, or runs it and stores
// the entry unless the memo is full or a racing worker took the key's hash.
func (x *orbitExecutor) Execute(cfg engine.Config, buf *engine.Buffers) (*engine.Result, error) {
	m := x.memo
	n, horizon, err := cfg.Validate()
	if err != nil || cfg.Pattern.Horizon() != horizon || m.full.Load() {
		return x.Executor.Execute(cfg, buf)
	}
	x.canon.Canonicalize(cfg.Pattern, cfg.Inits)
	x.perm = x.canon.Perm(x.perm) // agent i of cfg is agent perm[i] of the representative
	x.key = x.canon.AppendRepresentativeKey(x.key[:0])
	h, w := maphash.Bytes(m.seed, x.key), horizon*n
	m.mu.RLock()
	if e, ok := m.index[h]; ok && bytes.Equal(m.keys[int(e)*len(x.key):int(e+1)*len(x.key)], x.key) {
		res := engine.NewResult(n, horizon, cfg.Pattern, append([]model.Value(nil), cfg.Inits...))
		res.States, res.Stats = nil, m.stats[e]
		acts, stored := make([]model.Action, w), m.acts[int(e)*w:]
		for t := range horizon {
			row := acts[t*n : (t+1)*n : (t+1)*n]
			for i, p := range x.perm {
				row[i] = stored[t*n+int(p)]
			}
			res.Record(t, row)
		}
		m.mu.RUnlock()
		m.relabeled.Add(1)
		return res, nil
	}
	m.mu.RUnlock()
	res, err := x.Executor.Execute(cfg, buf)
	if err != nil {
		return res, err
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	if _, taken := m.index[h]; taken || m.full.Load() {
		return res, nil
	}
	if (len(m.stats)+1)*(len(x.key)+w+orbitEntryBytes) > m.limit {
		m.full.Store(true)
		m.index, m.keys, m.acts, m.stats = nil, nil, nil, nil
		return res, nil
	}
	m.index[h] = int32(len(m.stats))
	m.keys = append(m.keys, x.key...)
	m.stats = append(m.stats, res.Stats)
	m.acts = append(m.acts, make([]model.Action, w)...)
	for t, row := range res.Actions {
		for i, a := range row {
			m.acts[len(m.acts)-w+t*n+int(x.perm[i])] = a
		}
	}
	return res, nil
}
