// What the checker caches: one entry per stripe, the stripe's serialized
// shard index. BuildShardIndex with WithCache probes that one key; a hit
// is the index, without enumerating, canonicalizing or executing
// anything, and a miss builds the stripe as an uncached build would and
// stores it. BuildSystem with WithCache is the one-stripe case followed by
// the merge (cachedSystem). There is no per-scenario level: restoring a
// System run by run measured slower than executing it
// (docs/architecture.md, "What the checker caches").

package episteme

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"

	"repro/internal/core"
	"repro/internal/model"
)

// cacheStack is the stack every episteme build executes its runs on, and
// the identity cached builds derive their version digest from.
func cacheStack(c Context, act model.ActionProtocol, n, horizon int) core.Stack {
	return core.Stack{
		Name:     "episteme(" + act.Name() + ")",
		Exchange: c.Exchange,
		Action:   act,
		N:        n,
		T:        c.T,
	}.AtHorizon(horizon)
}

// cachedSystem is BuildSystem with a cache: the whole sweep as its one
// stripe, restored or built by BuildShardIndex, then assembled as every
// sharded build is.
func cachedSystem(ctx context.Context, c Context, act model.ActionProtocol, opts []Option) (*System, error) {
	idx, err := BuildShardIndex(ctx, c, act, 0, 1, opts...)
	if err != nil {
		return nil, err
	}
	sys, err := MergeSystems(ctx, []*ShardIndex{idx}, opts...)
	if err != nil || !sys.Quotiented() {
		return sys, err
	}
	return ExpandQuotient(ctx, sys, c)
}

// shardIndexCacheKey derives the cache key of a whole stripe index: the
// version digest pins the stack (exchange, action, n, t, horizon, build
// fingerprint), so the digest slot covers what else decides the stripe's
// content — the stripe, whether the sweep is quotiented, and the two
// Context fields that pick the enumeration (Options.MaxPatterns only
// refuses one, so it stays out). quotient is derived (buildOptions) and
// stays in the key: a change of that rule must not hit the other sweep.
func shardIndexCacheKey(version string, c Context, shardIndex, shardCount int, quotient bool) string {
	h := sha256.New()
	fmt.Fprintf(h, "shard=%d/%d|quotient=%v|crash=%v|selfdrops=%v",
		shardIndex, shardCount, quotient, c.Crash, c.Options.IncludeSelfDrops)
	sum := h.Sum(nil)
	return core.CacheKey(version, core.CacheKindIndex, hex.EncodeToString(sum[:16]))
}

// decodeCachedIndex decodes and vets a cached stripe index. Beyond the
// store's digest verification, the index must restate the build being
// answered — shard, split, shape, quotienting — and pass the same
// Validate the fabric applies at its trust boundary; anything else is
// an error the caller treats as a miss.
func decodeCachedIndex(payload []byte, shardIndex, shardCount, n, t, horizon int, quotient bool) (*ShardIndex, error) {
	idx, err := ReadShardIndex(bytes.NewReader(payload))
	if err != nil {
		return nil, err
	}
	if idx.Shard != shardIndex || idx.Shards != shardCount ||
		idx.N != n || idx.T != t || idx.Horizon != horizon || idx.Quotient != quotient {
		return nil, fmt.Errorf("episteme: cached index answers shard %d/%d (n=%d,t=%d,h=%d,quotient=%v), asked for %d/%d (n=%d,t=%d,h=%d,quotient=%v)",
			idx.Shard, idx.Shards, idx.N, idx.T, idx.Horizon, idx.Quotient,
			shardIndex, shardCount, n, t, horizon, quotient)
	}
	if err := idx.Validate(); err != nil {
		return nil, err
	}
	return idx, nil
}
