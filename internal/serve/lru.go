package serve

import (
	"container/list"
	"context"
	"errors"
	"sync"

	"repro/internal/core"
	"repro/internal/episteme"
	"repro/internal/fabric"
)

// buildCall is one in-flight System build, shared by every request that
// asked for the key while it ran. The leader closes done once sys/err
// are final; followers select on it against their own cancellation.
type buildCall struct {
	done chan struct{}
	sys  *episteme.System
	err  error
}

// errBuildPanicked is what the followers of a build that panicked get;
// the leader's panic carries on up its own stack.
var errBuildPanicked = errors.New("serve: system build panicked")

// lruEntry is one cached System and the verdict blocks written for it,
// which go when it is evicted.
type lruEntry struct {
	key      string
	sys      *episteme.System
	verdicts map[verdictKey]verdict
}

// maxVerdicts bounds one entry's verdict blocks: MaxViolations is the
// client's choice, so the key space has no bound of its own.
const maxVerdicts = 8

// verdictKey is what a verdict block depends on besides the System
// (MaxViolations with its default applied); Parallelism never changes it.
type verdictKey struct {
	stack string
	opts  fabric.VerdictOptions
}

// verdict is one WriteVerdicts block and its VerdictHeader value.
type verdict struct {
	body    []byte
	outcome string
}

// systemLRU is the hot-System cache: at most max built Systems keyed by
// (stack version digest, n, t, horizon), least-recently-queried evicted
// first, with singleflight build deduplication — N concurrent queries
// for a cold key trigger exactly one build, and the other N-1 wait for
// its result instead of building their own.
type systemLRU struct {
	mu       sync.Mutex
	max      int
	order    *list.List // front = most recently used; values *lruEntry
	entries  map[string]*list.Element
	building map[string]*buildCall
	met      *metrics
}

func newSystemLRU(max int, met *metrics) *systemLRU {
	return &systemLRU{
		max:      max,
		order:    list.New(),
		entries:  make(map[string]*list.Element),
		building: make(map[string]*buildCall),
		met:      met,
	}
}

// get returns the key's System, building it with build on a miss.
// Concurrent gets for one cold key share a single build call; a failed
// build caches nothing, so the next get retries — also when the build
// panicked: the in-flight entry is cleared and the followers released on
// every path out, so the key is never left blocked. The build runs on the
// leader's context — if the leader disconnects mid-build, a follower
// whose own context is live looks the key up again: a hit, another build
// to follow, or its own to lead.
func (l *systemLRU) get(ctx context.Context, key string, build func(context.Context) (*episteme.System, error)) (*episteme.System, error) {
	var call *buildCall
	for {
		l.mu.Lock()
		if el, ok := l.entries[key]; ok {
			l.order.MoveToFront(el)
			l.mu.Unlock()
			l.met.lruHits.Add(1)
			return el.Value.(*lruEntry).sys, nil
		}
		inflight, ok := l.building[key]
		if !ok {
			// err stays errBuildPanicked unless build returns.
			call = &buildCall{done: make(chan struct{}), err: errBuildPanicked}
			l.building[key] = call
			l.mu.Unlock()
			break
		}
		l.mu.Unlock()
		l.met.lruCoalesced.Add(1)
		select {
		case <-inflight.done:
			if isCancellation(inflight.err) && ctx.Err() == nil {
				continue // the leader's client went away, this one did not
			}
			return inflight.sys, inflight.err
		case <-ctx.Done():
			return nil, context.Cause(ctx)
		}
	}
	l.met.lruMisses.Add(1)

	defer func() {
		l.mu.Lock()
		delete(l.building, key)
		if call.err == nil {
			l.insertLocked(key, call.sys)
		}
		l.mu.Unlock()
		close(call.done)
	}()
	call.sys, call.err = build(ctx)
	return call.sys, call.err
}

// isCancellation reports whether err is a context's cancellation or
// deadline: the requesting client's doing, not the server's.
func isCancellation(err error) bool {
	return errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded)
}

// insertLocked files a built System at the front and evicts past max.
func (l *systemLRU) insertLocked(key string, sys *episteme.System) {
	if el, ok := l.entries[key]; ok {
		// A concurrent leader for the same key can't exist (building map),
		// but be safe: keep the existing entry fresh.
		l.order.MoveToFront(el)
		return
	}
	l.entries[key] = l.order.PushFront(&lruEntry{key: key, sys: sys, verdicts: map[verdictKey]verdict{}})
	for l.order.Len() > l.max {
		oldest := l.order.Back()
		l.order.Remove(oldest)
		delete(l.entries, oldest.Value.(*lruEntry).key)
		l.met.lruEvictions.Add(1)
	}
}

// verdict returns the block memoized for vk on the key's System.
func (l *systemLRU) verdict(key string, vk verdictKey) (v verdict, hit bool) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if el, ok := l.entries[key]; ok {
		if v, hit = el.Value.(*lruEntry).verdicts[vk]; hit {
			l.met.checkMemoHits.Add(1)
		}
	}
	return v, hit
}

// storeVerdict memoizes a block on the key's System. The first store
// wins; an evicted System or a full memo keeps nothing.
func (l *systemLRU) storeVerdict(key string, vk verdictKey, v verdict) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if el, ok := l.entries[key]; ok {
		e := el.Value.(*lruEntry)
		if _, dup := e.verdicts[vk]; !dup && len(e.verdicts) < maxVerdicts {
			e.verdicts[vk] = v
		}
	}
}

// orbitMemos keeps one core.OrbitMemo per stack for sweeps, under the
// System LRU's keys: stripes of one sweep, and repeats of it, relabel the
// orbits another request executed. At most max memos (MaxSystems), the
// least recently swept evicted first.
type orbitMemos struct {
	mu    sync.Mutex
	max   int
	order *list.List // front = most recently swept; values *memoEntry
	byKey map[string]*list.Element
}

type memoEntry struct {
	key  string
	memo *core.OrbitMemo
}

// get returns the stack's memo, making it on first use; nil when the
// stack gets none (core.NewOrbitMemo).
func (m *orbitMemos) get(key string, stack core.Stack) *core.OrbitMemo {
	m.mu.Lock()
	defer m.mu.Unlock()
	if el, ok := m.byKey[key]; ok {
		m.order.MoveToFront(el)
		return el.Value.(*memoEntry).memo
	}
	memo := core.NewOrbitMemo(stack)
	if memo != nil {
		m.byKey[key] = m.order.PushFront(&memoEntry{key: key, memo: memo})
		if m.order.Len() > m.max {
			delete(m.byKey, m.order.Remove(m.order.Back()).(*memoEntry).key)
		}
	}
	return memo
}

// len reports the number of cached Systems (tests).
func (l *systemLRU) len() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.order.Len()
}

// has reports whether key is cached without touching recency (tests).
func (l *systemLRU) has(key string) bool {
	l.mu.Lock()
	defer l.mu.Unlock()
	_, ok := l.entries[key]
	return ok
}
