package eba

import (
	"math/rand"

	"repro/internal/adversary"
	"repro/internal/core"
	"repro/internal/model"
	"repro/internal/source"
)

// Source is a pull-style stream of scenarios, the lazy counterpart of a
// []Scenario: Next yields the next scenario or false when exhausted,
// Count reports the total if known. Feed one to Runner.StreamFrom or
// Runner.RunSource to drive a sweep without materializing it — memory
// stays bounded by the Runner's reordering window however many scenarios
// the source produces. Sources are single-consumer; the Runner pulls from
// one goroutine.
type Source = core.Source

// SourceSO returns the exhaustive SO(t) sweep as a lazy source: every
// failure pattern in SO(t) over n agents and the given horizon (excluding
// the behaviorally invisible self-omissions), crossed with every
// assignment of initial preferences — the run space the paper's
// optimality results quantify over. Scenarios stream in the canonical
// enumeration order, so driving the source through Runner.StreamFrom is
// bit-identical to running the eager slice while never materializing it;
// scenarios share their Inits rows read-only. It returns an error when the
// sweep's bounds are rejected (n, t, or horizon out of range).
func SourceSO(n, t, horizon int) (Source, error) {
	pats, err := source.SO(n, t, horizon, adversary.Options{})
	if err != nil {
		return nil, err
	}
	return source.CrossInits(pats, n)
}

// SourceCrash is SourceSO for the crash(t) failure model.
func SourceCrash(n, t, horizon int) (Source, error) {
	pats, err := source.Crash(n, t, horizon)
	if err != nil {
		return nil, err
	}
	return source.CrossInits(pats, n)
}

// SourceRandomSO returns a seeded stream of random scenarios: each is a
// random SO(t) pattern (messages from faulty agents dropped independently
// with probability dropProb) paired with uniformly random initial
// preferences. count < 0 means unbounded — bound consumption with
// SourceLimit or by cancelling the Runner's context. Two sources with the
// same seed yield identical scenarios, so a sweep can be replayed against
// several stacks without materializing it.
func SourceRandomSO(seed int64, n, t, horizon int, dropProb float64, count int64) Source {
	rng := rand.New(rand.NewSource(seed))
	return source.RandomScenarios(rng, n, t, horizon, dropProb, count)
}

// SourceFromScenarios adapts an eager scenario slice to the Source
// interface, bridging batch call sites onto the streaming entry points.
func SourceFromScenarios(scenarios []Scenario) Source {
	return source.FromSlice(scenarios)
}

// SourceLimit truncates a source after max scenarios.
func SourceLimit(src Source, max int64) Source { return source.Limit(src, max) }

// CanonicalizeScenario returns the canonical representative of the
// scenario's orbit under agent permutation (restricted to permutations
// preserving the faulty/correct split) and the orbit's size — the
// multiplicity SourceQuotient annotates representatives with. Scenarios
// in one orbit produce permutation-equivalent runs under every
// agent-symmetric stack, so one representative stands for them all.
func CanonicalizeScenario(pat *Pattern, inits []Value) (*Pattern, []Value, int64) {
	return model.CanonicalizeScenario(pat, inits)
}

// SourceQuotient filters a source down to the canonical representative
// of each agent-permutation orbit, annotating every survivor with its
// orbit size as Scenario.Weight — up to an n!-fold reduction of an
// exhaustive sweep over an agent-symmetric stack. Weighted aggregates
// (Runner.RunShard outcome multiplicities, MergeOutcomes' weighted
// totals, the model checker's expanded system) recover exact full-sweep
// counts from the representatives. It composes with the other
// combinators; when sharding, put it inside SourceStride —
// SourceStride(SourceQuotient(src), i, k) — so the K stripes partition
// the representative enumeration. The representative count is discovered
// during enumeration, so the quotiented source reports an unknown Count.
func SourceQuotient(src Source) Source { return source.Quotient(src) }
