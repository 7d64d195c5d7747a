package core

import (
	"bytes"
	"context"
	"encoding/json"
	"sync"
	"testing"

	"repro/internal/model"
	"repro/internal/spec"
)

// mapStore is an in-memory ResultCache for tests.
type mapStore struct {
	mu sync.Mutex
	m  map[string][]byte
}

func newMapStore() *mapStore { return &mapStore{m: make(map[string][]byte)} }

func (s *mapStore) Get(key string) ([]byte, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	v, ok := s.m[key]
	return v, ok
}

func (s *mapStore) Put(key string, val []byte) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.m[key] = append([]byte(nil), val...)
	return nil
}

func (s *mapStore) len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.m)
}

// uniqueScenarios draws random scenarios and drops repeats, so a cold
// run never hits an entry stored moments earlier by a duplicate.
func uniqueScenarios(t *testing.T, seed int64, n, tf, count int) []Scenario {
	t.Helper()
	seen := make(map[string]bool)
	var out []Scenario
	for draw := 0; len(out) < count && draw < 64; draw++ {
		for _, sc := range randomScenarios(seed+int64(draw)*1000, n, tf, count) {
			text, err := sc.Pattern.MarshalText()
			if err != nil {
				t.Fatal(err)
			}
			digest := scenarioDigest(text, sc.Inits)
			if !seen[digest] {
				seen[digest] = true
				out = append(out, sc)
				if len(out) == count {
					break
				}
			}
		}
	}
	if len(out) != count {
		t.Fatalf("collected %d unique scenarios, want %d", len(out), count)
	}
	return out
}

// TestCacheWarmShardByteIdentical is the tentpole invariant: a warm
// sweep writes a byte-identical stream while executing nothing, with
// quotient multiplicities preserved.
func TestCacheWarmShardByteIdentical(t *testing.T) {
	st := MustStack("basic", WithN(4), WithT(1))
	scenarios := uniqueScenarios(t, 11, 4, 1, 24)
	// Give some scenarios quotient weights: the cache must preserve Mult
	// even though the cached payload is weight-independent.
	for k := range scenarios {
		if k%3 == 0 {
			scenarios[k].Weight = int64(2 + k)
		}
	}
	store := newMapStore()

	cold := NewRunner(st, WithParallelism(4), WithResultCache(store, "test-build"))
	sumCold, streamCold := runShardStream(t, cold, scenarios, 0, 1)
	if sumCold.Executed != sumCold.Records || sumCold.CacheHits != 0 {
		t.Fatalf("cold summary executed=%d hits=%d records=%d", sumCold.Executed, sumCold.CacheHits, sumCold.Records)
	}
	if store.len() != len(scenarios) {
		t.Fatalf("cold run stored %d entries, want %d", store.len(), len(scenarios))
	}

	warm := NewRunner(st, WithParallelism(4), WithResultCache(store, "test-build"))
	sumWarm, streamWarm := runShardStream(t, warm, scenarios, 0, 1)
	if sumWarm.Executed != 0 || sumWarm.CacheHits != sumWarm.Records {
		t.Fatalf("warm summary executed=%d hits=%d records=%d", sumWarm.Executed, sumWarm.CacheHits, sumWarm.Records)
	}
	if !bytes.Equal(streamCold, streamWarm) {
		t.Fatal("warm stream differs from cold stream")
	}

	// A cache-free runner agrees too — caching never changes the stream.
	plain := NewRunner(st, WithParallelism(4))
	sumPlain, streamPlain := runShardStream(t, plain, scenarios, 0, 1)
	if sumPlain.Executed != sumPlain.Records || sumPlain.CacheHits != 0 {
		t.Fatalf("plain summary executed=%d hits=%d records=%d", sumPlain.Executed, sumPlain.CacheHits, sumPlain.Records)
	}
	if !bytes.Equal(streamCold, streamPlain) {
		t.Fatal("cached stream differs from the uncached stream")
	}
}

// TestCacheVersionDigestDifferential pins the key-sensitivity contract:
// every semantic change — exchange, action protocol, n, t, horizon, or
// the build fingerprint — lands on a different version digest.
func TestCacheVersionDigestDifferential(t *testing.T) {
	base := MustStack("basic", WithN(4), WithT(1))
	ref := base.VersionDigest("fp")
	variants := map[string]string{
		"exchange+action": MustStack("min", WithN(4), WithT(1)).VersionDigest("fp"),
		"action only":     MustStack("fip", WithN(4), WithT(1)).VersionDigest("fp"),
		"vs fip+pmin":     MustStack("fip+pmin", WithN(4), WithT(1)).VersionDigest("fp"),
		"n":               MustStack("basic", WithN(5), WithT(1)).VersionDigest("fp"),
		"t (and horizon)": MustStack("basic", WithN(4), WithT(2)).VersionDigest("fp"),
		"horizon":         MustStack("basic", WithN(4), WithT(1), WithHorizon(5)).VersionDigest("fp"),
		"fingerprint":     base.VersionDigest("fp2"),
	}
	seen := map[string]string{ref: "base"}
	for what, digest := range variants {
		if prev, dup := seen[digest]; dup {
			t.Errorf("changing %s collides with %s (digest %s)", what, prev, digest)
		}
		seen[digest] = what
	}
	// The digest is stable: same identity, same digest.
	if again := MustStack("basic", WithN(4), WithT(1)).VersionDigest("fp"); again != ref {
		t.Fatalf("digest not stable: %s then %s", ref, again)
	}
	// And "fip+pmin" differs from "fip" only in the action protocol, so
	// it must also differ from plain fip above.
	if variants["action only"] == variants["vs fip+pmin"] {
		t.Error("fip and fip+pmin share a version digest")
	}
}

// TestCacheChangedIdentityMisses runs the executor-level differential:
// a cache warmed under one identity yields zero hits under another.
func TestCacheChangedIdentityMisses(t *testing.T) {
	scenarios := uniqueScenarios(t, 7, 4, 1, 12)
	store := newMapStore()
	warmUp := NewRunner(MustStack("basic", WithN(4), WithT(1)),
		WithResultCache(store, "fp"))
	runShardStream(t, warmUp, scenarios, 0, 1)

	for _, tc := range []struct {
		what   string
		runner *Runner
	}{
		{"different fingerprint", NewRunner(MustStack("basic", WithN(4), WithT(1)), WithResultCache(store, "fp2"))},
		{"different horizon", NewRunner(MustStack("basic", WithN(4), WithT(1), WithHorizon(4)), WithResultCache(store, "fp"))},
		{"different stack", NewRunner(MustStack("min", WithN(4), WithT(1)), WithResultCache(store, "fp"))},
	} {
		sum, _ := runShardStream(t, tc.runner, scenarios, 0, 1)
		if sum.CacheHits != 0 || sum.Executed != sum.Records {
			t.Errorf("%s: executed=%d hits=%d, want a full recomputation", tc.what, sum.Executed, sum.CacheHits)
		}
	}
}

// TestCachePoisonedEntriesRecomputed corrupts every stored payload two
// ways — undecodable bytes and a decodable entry answering the wrong
// scenario — and checks the warm run silently recomputes, overwrites,
// and still streams byte-identically.
func TestCachePoisonedEntriesRecomputed(t *testing.T) {
	st := MustStack("basic", WithN(4), WithT(1))
	// Distinct scenarios (all 16 init vectors over one pattern), so every
	// record owns its cache entry and a poisoned entry can never be
	// repaired by an earlier duplicate within the same warm run.
	scenarios := shardScenarios(t, 4, st.Horizon(), 16)
	store := newMapStore()
	cold := NewRunner(st, WithResultCache(store, "fp"))
	_, streamCold := runShardStream(t, cold, scenarios, 0, 1)

	store.mu.Lock()
	i := 0
	for key, payload := range store.m { //eba:nondeterministic-ok which corruption style lands on which entry is irrelevant; the test demands full recomputation either way
		if i%2 == 0 {
			store.m[key] = []byte("{corrupt")
		} else {
			var cr CachedRun
			if err := json.Unmarshal(payload, &cr); err != nil {
				store.mu.Unlock()
				t.Fatalf("stored payload does not decode: %v", err)
			}
			cr.Inits[0] = 1 - cr.Inits[0] // now restates a different scenario
			mangled, _ := json.Marshal(&cr)
			store.m[key] = mangled
		}
		i++
	}
	store.mu.Unlock()

	warm := NewRunner(st, WithResultCache(store, "fp"))
	sum, streamWarm := runShardStream(t, warm, scenarios, 0, 1)
	if sum.CacheHits != 0 || sum.Executed != sum.Records {
		t.Fatalf("poisoned cache served hits: executed=%d hits=%d", sum.Executed, sum.CacheHits)
	}
	if !bytes.Equal(streamCold, streamWarm) {
		t.Fatal("stream after recomputation differs")
	}
	// The poison was overwritten: a third run hits everything.
	again := NewRunner(st, WithResultCache(store, "fp"))
	sum, _ = runShardStream(t, again, scenarios, 0, 1)
	if sum.Executed != 0 {
		t.Fatalf("recomputation did not repair the cache: executed=%d", sum.Executed)
	}
}

// TestCacheSpecCheckJudgesHits checks spec verification runs identically
// on cache hits: the payload carries the per-round actions CheckRun
// reads, so a warm runner with WithSpecCheck still judges every run.
func TestCacheSpecCheckJudgesHits(t *testing.T) {
	st := MustStack("basic", WithN(4), WithT(1))
	scenarios := uniqueScenarios(t, 3, 4, 1, 8)
	store := newMapStore()
	cold := NewRunner(st, WithResultCache(store, "fp"), WithSpecCheck(spec.Options{}))
	_, streamCold := runShardStream(t, cold, scenarios, 0, 1)

	warm := NewRunner(st, WithResultCache(store, "fp"), WithSpecCheck(spec.Options{}))
	sum, streamWarm := runShardStream(t, warm, scenarios, 0, 1)
	if sum.Executed != 0 {
		t.Fatalf("warm spec-checked run executed %d scenarios", sum.Executed)
	}
	if !bytes.Equal(streamCold, streamWarm) {
		t.Fatal("spec-checked warm stream differs")
	}
}

// TestCachedRunRoundTrip pins payload encode/restore fidelity against a
// real execution, including the actions ledger, and that the state-key
// form of the payload is refused.
func TestCachedRunRoundTrip(t *testing.T) {
	st := MustStack("fip", WithN(4), WithT(1))
	sc := randomScenarios(2, 4, 1, 1)[0]
	res, err := NewRunner(st).Run(context.Background(), sc)
	if err != nil {
		t.Fatal(err)
	}
	if cr, err := NewCachedRun(res, true); err == nil {
		t.Fatalf("NewCachedRun(res, true) = %+v, want an error", cr)
	}
	cr, err := NewCachedRun(res, false)
	if err != nil {
		t.Fatal(err)
	}
	restored := cr.Restore(st.Config(sc.Pattern, sc.Inits))
	recA, err := newOutcomeRecord(0, res, 1)
	if err != nil {
		t.Fatal(err)
	}
	recB, err := newOutcomeRecord(0, restored, 1)
	if err != nil {
		t.Fatal(err)
	}
	if recA.Digest != recB.Digest {
		t.Fatalf("restored record digest %s != original %s", recB.Digest, recA.Digest)
	}
	if len(restored.Actions) != len(res.Actions) {
		t.Fatalf("restored %d action rounds, want %d", len(restored.Actions), len(res.Actions))
	}
	for m := range res.Actions {
		for i := range res.Actions[m] {
			if restored.Actions[m][i] != res.Actions[m][i] {
				t.Fatalf("action[%d][%d] restored as %v, want %v", m, i, restored.Actions[m][i], res.Actions[m][i])
			}
		}
	}
	if restored.States != nil {
		t.Fatal("restored run carries a state trace")
	}
}

// TestScenarioDigestUnchanged pins the cache key's scenario half against
// its old fmt rendering, undecided (-1) values included: a key that moved
// would silently turn every stored entry into a miss.
func TestScenarioDigestUnchanged(t *testing.T) {
	for k, sc := range randomScenarios(7, 5, 2, 64) {
		if k%3 == 0 {
			sc.Inits[k%5] = model.None
		}
		text, err := sc.Pattern.MarshalText()
		if err != nil {
			t.Fatal(err)
		}
		if got, want := scenarioDigest(text, sc.Inits), oldScenarioDigest(text, sc.Inits); got != want {
			t.Fatalf("scenario %d: digest %s, the old rendering gives %s", k, got, want)
		}
	}
}
