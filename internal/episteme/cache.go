// The cached system build: BuildSystem/BuildShardIndex with WithCache
// answer each scenario from a core.ResultCache when they can and execute
// only the misses.
//
// The cache payload of one run is core.CachedRun with the episteme
// extension: the decision ledger plus the canonical local-state key of
// every (time, agent) slot. Every run (hit or miss alike) is restored
// trace-free and handed to the index kernel (index.go) as its slot keys,
// so the cached build's tables and verdicts are bit-identical to the
// uncached one's at any hit/miss mix.

package episteme

import (
	"context"
	"encoding/json"
	"fmt"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/model"
)

// cacheStack is the stack every episteme build executes its runs on, and
// the identity cached builds derive their version digest from. Both the
// per-scenario entries here and the stripe-index entries in
// BuildShardIndex must key off the same digest, so both build it here.
func cacheStack(c Context, act model.ActionProtocol, n, horizon int) core.Stack {
	return core.Stack{
		Name:     "episteme(" + act.Name() + ")",
		Exchange: c.Exchange,
		Action:   act,
		N:        n,
		T:        c.T,
	}.AtHorizon(horizon)
}

// buildSystemCached is buildSystemFromSource's cache-consulting twin.
// Pass 1 materializes the source's scenarios (CrossInits hands each
// scenario its own inits; the pattern is shared read-only, which is all
// this pass needs) and probes the cache; pass 2 batch-executes the
// misses on the canonical runner and stores their payloads; assembly
// then treats every run uniformly as a cached payload.
func buildSystemCached(ctx context.Context, c Context, act model.ActionProtocol, src core.Source, o options) (*System, error) {
	n := c.Exchange.N()
	horizon := c.horizonOrDefault()
	stack := cacheStack(c, act, n, horizon)
	version := stack.VersionDigest(o.fingerprint)

	var scenarios []core.Scenario
	for {
		sc, ok := src.Next()
		if !ok {
			break
		}
		scenarios = append(scenarios, sc)
	}
	if es, ok := src.(core.ErrorSource); ok {
		if err := es.Err(); err != nil {
			return nil, err
		}
	}
	total := len(scenarios)

	cached := make([]*core.CachedRun, total)
	keys := make([]string, total)
	var missIdx []int
	var missScn []core.Scenario
	for g, sc := range scenarios {
		digest, err := core.ScenarioDigest(sc.Pattern, sc.Inits)
		if err != nil {
			return nil, err
		}
		keys[g] = core.CacheKey(version, core.CacheKindSys, digest)
		if payload, ok := o.cache.Get(keys[g]); ok {
			cr := new(core.CachedRun)
			text, terr := sc.Pattern.MarshalText()
			if terr == nil && json.Unmarshal(payload, cr) == nil &&
				cr.Matches(string(text), sc.Inits, n, horizon, true) {
				cached[g] = cr
				continue
			}
			// Corrupt or misfiled: recompute below and overwrite.
		}
		missIdx = append(missIdx, g)
		missScn = append(missScn, sc)
	}

	if len(missScn) > 0 {
		runner := core.NewRunner(stack,
			core.WithExecutor(newMemoExec(n)),
			core.WithParallelism(o.par),
			core.WithBufferReuse())
		results, err := runner.RunBatch(ctx, missScn)
		if err != nil {
			return nil, err
		}
		for j, res := range results {
			cr, err := core.NewCachedRun(res, true)
			if err != nil {
				return nil, fmt.Errorf("episteme: encoding run for the cache: %w", err)
			}
			cached[missIdx[j]] = cr
			// Storing is best-effort: a full disk or unreachable server
			// never fails the build.
			if payload, jerr := json.Marshal(cr); jerr == nil {
				o.cache.Put(keys[missIdx[j]], payload)
			}
		}
	}

	runs := make([]*engine.Result, total)
	var weights []int64
	if o.quotient {
		weights = []int64{} // non-nil even for an empty stripe: quotiented-ness is structural
	}
	for g, sc := range scenarios {
		runs[g] = cached[g].Restore(stack.Config(sc.Pattern, sc.Inits))
		if o.quotient {
			weights = append(weights, sc.EffectiveWeight())
		}
	}

	// The cache-restore producer: a slot's key is the payload's own, and
	// nothing identifies two runs' keys short of comparing them, so there
	// is no memo code.
	sys := &System{N: n, T: c.T, Horizon: horizon, Runs: runs, weights: weights, par: o.par}
	return sys.indexed(ctx, func(slot int) slotRows {
		return slotRows{n: total, key: func(g int) (string, error) { return cached[g].StateKeys[slot], nil }}
	})
}
