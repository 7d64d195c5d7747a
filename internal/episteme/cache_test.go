package episteme

import (
	"bytes"
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/action"
	"repro/internal/adversary"
	"repro/internal/core"
	"repro/internal/exchange"
	"repro/internal/model"
)

// testStore is an in-memory core.ResultCache counting its traffic.
type testStore struct {
	mu   sync.Mutex
	m    map[string][]byte
	gets int
	hits int
	puts int
}

func newTestStore() *testStore { return &testStore{m: make(map[string][]byte)} }

func (s *testStore) Get(key string) ([]byte, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.gets++
	v, ok := s.m[key]
	if ok {
		s.hits++
	}
	return v, ok
}

func (s *testStore) Put(key string, val []byte) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.puts++
	s.m[key] = append([]byte(nil), val...)
	return nil
}

// only returns the store's one entry.
func (s *testStore) only(t *testing.T) (key string, val []byte) {
	t.Helper()
	s.mu.Lock()
	defer s.mu.Unlock()
	if len(s.m) != 1 {
		t.Fatalf("the store holds %d entries, want 1", len(s.m))
	}
	for key, val = range s.m {
	}
	return key, val
}

func (s *testStore) counts() (gets, hits, puts int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.gets, s.hits, s.puts
}

// systemVerdicts folds a system's index fingerprint and every checker
// verdict into one comparable string.
func systemVerdicts(t *testing.T, sys *System) string {
	t.Helper()
	return indexFingerprint(sys) +
		fmt.Sprint(checkImplements(t, sys, P1, 50)) +
		fmt.Sprint(checkSafety(t, sys, 50)) +
		fmt.Sprint(checkOptimality(t, sys, -1, 50))
}

// countingAct counts the action protocol's calls: a build that executed
// nothing asked it nothing.
type countingAct struct {
	model.ActionProtocol
	calls atomic.Int64
}

func (a *countingAct) Act(i model.AgentID, s model.State) model.Action {
	a.calls.Add(1)
	return a.ActionProtocol.Act(i, s)
}

// TestCachedBuildOneEntry pins what WithCache means, for BuildSystem and
// BuildShardIndex, quotiented (fip) and not (fip with its KeyPermuter
// hidden): a cold build is one missing probe and one store, a warm one is
// one hitting probe of the same key — no execution, no store, no other
// key.
func TestCachedBuildOneEntry(t *testing.T) {
	builds := map[string]func(c Context, act model.ActionProtocol, opts ...Option) error{
		"BuildSystem": func(c Context, act model.ActionProtocol, opts ...Option) error {
			_, err := BuildSystem(context.Background(), c, act, opts...)
			return err
		},
		"BuildShardIndex": func(c Context, act model.ActionProtocol, opts ...Option) error {
			_, err := BuildShardIndex(context.Background(), c, act, 1, 2, opts...)
			return err
		},
	}
	for name, build := range builds {
		for _, quotient := range []bool{false, true} {
			c := fipContext31()
			if !quotient {
				c = perRunContext(c)
			}
			store := newTestStore()
			act := &countingAct{ActionProtocol: action.NewOpt(1)}
			opts := []Option{WithParallelism(2), WithCache(store, "fp")}
			if err := build(c, act, opts...); err != nil {
				t.Fatalf("cold %s (quotient %v): %v", name, quotient, err)
			}
			if gets, hits, puts := store.counts(); gets != 1 || hits != 0 || puts != 1 || len(store.m) != 1 {
				t.Fatalf("cold %s (quotient %v): %d probes, %d hits, %d stores, %d keys; want 1, 0, 1, 1",
					name, quotient, gets, hits, puts, len(store.m))
			}
			if act.calls.Load() == 0 {
				t.Fatalf("cold %s (quotient %v) executed nothing", name, quotient)
			}
			act.calls.Store(0)
			if err := build(c, act, opts...); err != nil {
				t.Fatalf("warm %s (quotient %v): %v", name, quotient, err)
			}
			if gets, hits, puts := store.counts(); gets != 2 || hits != 1 || puts != 1 || len(store.m) != 1 {
				t.Fatalf("warm %s (quotient %v): %d probes, %d hits, %d stores, %d keys in all; want 2, 1, 1, 1",
					name, quotient, gets, hits, puts, len(store.m))
			}
			if calls := act.calls.Load(); calls != 0 {
				t.Fatalf("warm %s (quotient %v) asked the action protocol %d times", name, quotient, calls)
			}
		}
	}
}

// TestCachedBuildBitIdentical: a cold cached build and a warm one both
// reproduce the uncached build's index and verdicts exactly, from the one
// entry the cold build stored — on the per-run route (the one min and
// basic take; TestCachedBuildQuotient is the quotiented one).
func TestCachedBuildBitIdentical(t *testing.T) {
	c := perRunContext(fipContext31())
	act := action.NewOpt(1)
	single, err := BuildSystem(context.Background(), c, act, WithParallelism(2))
	if err != nil {
		t.Fatalf("BuildSystem: %v", err)
	}
	want := systemVerdicts(t, single)

	store := newTestStore()
	for _, label := range []string{"cold", "warm"} {
		sys, err := BuildSystem(context.Background(), c, act, WithParallelism(2), WithCache(store, "fp"))
		if err != nil {
			t.Fatalf("%s cached BuildSystem: %v", label, err)
		}
		if got := systemVerdicts(t, sys); got != want {
			t.Fatalf("%s cached build differs from the uncached build", label)
		}
	}
	if _, hits, puts := store.counts(); hits != 1 || puts != 1 {
		t.Fatalf("cold then warm: %d hits, %d puts; want 1 and 1", hits, puts)
	}
}

// TestCachedBuildQuotient runs the same equivalence through the
// symmetry quotient: quotiented cached builds (cold and warm) expand to
// the per-run system's verdicts, and multiplicities survive the cache.
func TestCachedBuildQuotient(t *testing.T) {
	c := fipContext31()
	act := action.NewOpt(1)
	single, err := BuildSystem(context.Background(), perRunContext(c), act, WithParallelism(2))
	if err != nil {
		t.Fatalf("BuildSystem: %v", err)
	}
	want := systemVerdicts(t, single)

	store := newTestStore()
	for round, label := range []string{"cold", "warm"} {
		sys, err := BuildSystem(context.Background(), c, act,
			WithParallelism(2), WithCache(store, "fp"))
		if err != nil {
			t.Fatalf("%s quotiented cached BuildSystem: %v", label, err)
		}
		if got := systemVerdicts(t, sys); got != want {
			t.Fatalf("%s quotiented cached build differs from the uncached full build", label)
		}
		if round == 1 {
			_, hits, _ := store.counts()
			if hits == 0 {
				t.Fatal("warm quotiented build hit nothing")
			}
		}
	}
}

// TestCachedShardIndexBitIdentical: BuildShardIndex with a cache
// produces the same shard indexes — digest-identical — as without,
// restored (stripe 0) or built (stripe 1), and MergeSystems over them,
// expanded, matches the uncached single-process per-run build.
func TestCachedShardIndexBitIdentical(t *testing.T) {
	c := fipContext31()
	act := action.NewOpt(1)
	single, err := BuildSystem(context.Background(), perRunContext(c), act, WithParallelism(2))
	if err != nil {
		t.Fatalf("BuildSystem: %v", err)
	}
	want := systemVerdicts(t, single)

	const k = 2
	store := newTestStore()
	if _, err := BuildShardIndex(context.Background(), c, act, 0, k, WithParallelism(2), WithCache(store, "fp")); err != nil {
		t.Fatalf("warming BuildShardIndex 0/%d: %v", k, err)
	}

	shards := make([]*ShardIndex, k)
	for i := 0; i < k; i++ {
		plain, err := BuildShardIndex(context.Background(), c, act, i, k, WithParallelism(2))
		if err != nil {
			t.Fatalf("BuildShardIndex %d/%d: %v", i, k, err)
		}
		cachedIdx, err := BuildShardIndex(context.Background(), c, act, i, k, WithParallelism(2), WithCache(store, "fp"))
		if err != nil {
			t.Fatalf("cached BuildShardIndex %d/%d: %v", i, k, err)
		}
		if plain.Digest() != cachedIdx.Digest() {
			t.Fatalf("shard %d/%d: cached index digest %s, uncached %s", i, k, cachedIdx.Digest(), plain.Digest())
		}
		shards[i] = cachedIdx
	}
	if _, hits, puts := store.counts(); hits != 1 || puts != k {
		t.Fatalf("%d hits, %d puts; want stripe 0 restored once and one entry per stripe", hits, puts)
	}
	merged, err := MergeSystems(context.Background(), shards, WithParallelism(2))
	if err != nil {
		t.Fatalf("MergeSystems: %v", err)
	}
	if merged, err = ExpandQuotient(context.Background(), merged, c); err != nil {
		t.Fatalf("ExpandQuotient: %v", err)
	}
	if got := systemVerdicts(t, merged); got != want {
		t.Fatal("merged cached shard indexes differ from the single-process build")
	}
}

// TestCachedShardIndexWarmSkipsEnumeration: a warm BuildShardIndex is
// answered by the stripe-index entry alone — one probe, one hit,
// nothing stored — without re-enumerating (or, quotiented, re-
// canonicalizing) the sweep, and the index is digest-identical to the
// cold one.
func TestCachedShardIndexWarmSkipsEnumeration(t *testing.T) {
	c := fipContext31()
	act := action.NewOpt(1)
	store := newTestStore()
	opts := []Option{WithParallelism(2), WithCache(store, "fp")}
	cold, err := BuildShardIndex(context.Background(), c, act, 0, 1, opts...)
	if err != nil {
		t.Fatalf("cold BuildShardIndex: %v", err)
	}
	getsCold, _, putsCold := store.counts()
	warm, err := BuildShardIndex(context.Background(), c, act, 0, 1, opts...)
	if err != nil {
		t.Fatalf("warm BuildShardIndex: %v", err)
	}
	if warm.Digest() != cold.Digest() {
		t.Fatalf("warm index digest %s, cold %s", warm.Digest(), cold.Digest())
	}
	gets, hits, puts := store.counts()
	if gets-getsCold != 1 || hits != 1 || puts != putsCold {
		t.Fatalf("warm build probed %d times with %d hits and stored %d entries; want one hitting index probe and no stores",
			gets-getsCold, hits, puts-putsCold)
	}
}

// poisonedIndexPayloads are the ways the one entry can be wrong once the
// store's own digest check has passed it: not an index, a torn one, and a
// well-formed index of another build (filed under this key by mistake).
func poisonedIndexPayloads(t *testing.T, c Context, good []byte) map[string][]byte {
	t.Helper()
	other, err := BuildShardIndex(context.Background(), c, action.NewOpt(1), 1, 2, WithParallelism(2))
	if err != nil {
		t.Fatal(err)
	}
	var misfiled bytes.Buffer
	if err := WriteShardIndex(&misfiled, other); err != nil {
		t.Fatal(err)
	}
	return map[string][]byte{
		"corrupt":   []byte(`{"kind":"not-this-one"}`),
		"truncated": good[:len(good)/2],
		"misfiled":  misfiled.Bytes(),
	}
}

// poisonedRebuild replaces the store's one entry with each poisoned
// payload in turn and checks that build — which must reproduce its cold
// answer — treated it as a miss: one probe, one store, and the entry is
// the good payload again.
func poisonedRebuild(t *testing.T, c Context, store *testStore, build func() string) {
	t.Helper()
	want := build()
	key, good := store.only(t)
	for label, payload := range poisonedIndexPayloads(t, c, good) {
		store.m[key] = payload
		gets, hits, puts := store.counts()
		if got := build(); got != want {
			t.Fatalf("%s entry: the rebuilt answer differs from the cold one", label)
		}
		g, h, p := store.counts()
		if g-gets != 1 || h-hits != 1 || p-puts != 1 {
			t.Fatalf("%s entry: %d probes, %d hits, %d stores; want the poisoned hit and one overwrite", label, g-gets, h-hits, p-puts)
		}
		if _, now := store.only(t); !bytes.Equal(now, good) {
			t.Fatalf("%s entry was not overwritten with the rebuilt index", label)
		}
	}
}

// TestCachedShardIndexPoisoned: a corrupt, truncated or misfiled idx
// payload is a miss — BuildShardIndex rebuilds the stripe, overwrites the
// poison, and still reproduces the cold index exactly.
func TestCachedShardIndexPoisoned(t *testing.T) {
	c := fipContext31()
	store := newTestStore()
	poisonedRebuild(t, c, store, func() string {
		idx, err := BuildShardIndex(context.Background(), c, action.NewOpt(1), 0, 1, WithParallelism(2), WithCache(store, "fp"))
		if err != nil {
			t.Fatalf("BuildShardIndex: %v", err)
		}
		return idx.Digest()
	})
}

// TestCachedBuildPoisonedEntries is the same through BuildSystem: the
// system built over a poisoned entry is bit-identical to the cold one.
func TestCachedBuildPoisonedEntries(t *testing.T) {
	c := fipContext31()
	store := newTestStore()
	poisonedRebuild(t, c, store, func() string {
		sys, err := BuildSystem(context.Background(), c, action.NewOpt(1), WithParallelism(2), WithCache(store, "fp"))
		if err != nil {
			t.Fatalf("cached BuildSystem: %v", err)
		}
		return systemVerdicts(t, sys)
	})
}

// TestCachedIndexKeyCoversContext: the two Context fields that pick the
// enumeration are part of the key, so a store warmed by one context
// serves nothing to another — each context's cached index is the one it
// builds uncached.
func TestCachedIndexKeyCoversContext(t *testing.T) {
	so := Context{Exchange: exchange.NewBasic(3), T: 1}
	for _, other := range []Context{
		{Exchange: exchange.NewBasic(3), T: 1, Crash: true},
		{Exchange: exchange.NewBasic(3), T: 1, Options: adversary.Options{IncludeSelfDrops: true}},
	} {
		label := fmt.Sprintf("Crash=%v IncludeSelfDrops=%v", other.Crash, other.Options.IncludeSelfDrops)
		store := newTestStore()
		act := action.NewBasic(3)
		if _, err := BuildShardIndex(context.Background(), so, act, 0, 1, WithParallelism(2), WithCache(store, "fp")); err != nil {
			t.Fatal(err)
		}
		want, err := BuildShardIndex(context.Background(), other, act, 0, 1, WithParallelism(2))
		if err != nil {
			t.Fatal(err)
		}
		got, err := BuildShardIndex(context.Background(), other, act, 0, 1, WithParallelism(2), WithCache(store, "fp"))
		if err != nil {
			t.Fatal(err)
		}
		if got.Digest() != want.Digest() {
			t.Errorf("%s: after an SO build the cached index has %d runs, the context's own has %d", label, len(got.Runs), len(want.Runs))
		}
		if _, hits, _ := store.counts(); hits != 0 {
			t.Errorf("%s: the SO build's entry answered another context (%d hits)", label, hits)
		}
	}
}

// TestCachedBuildDifferentFingerprintMisses: a cache warmed under one
// build fingerprint serves nothing to another.
func TestCachedBuildDifferentFingerprintMisses(t *testing.T) {
	c := fipContext31()
	act := action.NewOpt(1)
	store := newTestStore()
	if _, err := BuildSystem(context.Background(), c, act, WithParallelism(2), WithCache(store, "fp")); err != nil {
		t.Fatal(err)
	}
	_, hitsBefore, _ := store.counts()
	if _, err := BuildSystem(context.Background(), c, act, WithParallelism(2), WithCache(store, "fp2")); err != nil {
		t.Fatal(err)
	}
	if _, hits, _ := store.counts(); hits != hitsBefore {
		t.Fatalf("changed fingerprint still hit %d entries", hits-hitsBefore)
	}
}

var _ core.ResultCache = (*testStore)(nil)
