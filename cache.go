package eba

import (
	"repro/internal/cache"
	"repro/internal/core"
	"repro/internal/episteme"
)

// The persistent result cache: sweep runs keyed by (version digest,
// scenario digest), so a re-run of an already-swept scenario restores its
// outcome instead of re-executing it, and model-checker stripe indexes
// keyed by (version digest, stripe digest), so a re-build of an
// already-built stripe reads its index back. The cache is
// content-addressed and verify-on-read — a corrupt, truncated, or
// misfiled entry is a miss, never a wrong answer — and the cached paths
// are bit-identical to the uncached ones at any hit/miss mix: RunShard
// streams and checker verdicts over a warm cache cmp-equal a cold run's.
//
// Wire a cache into a sweep with WithResultCache or into the checker with
// WithCheckCache. The fingerprint argument folds the build's identity
// into every key (use CacheFingerprint for the running binary's VCS
// revision), so entries written by one version of the code are invisible
// to another.

// ResultCache stores cached run payloads; the store OpenCache returns
// satisfies it.
type ResultCache = core.ResultCache

// Cache is the on-disk store: append-only digested segments under one
// directory, safe for concurrent use within a process and for
// concurrent readers across processes.
type Cache = cache.Cache

// CacheStats snapshots a store's traffic counters.
type CacheStats = cache.Stats

// CacheGCResult reports what a GC pass kept and dropped.
type CacheGCResult = cache.GCResult

// OpenCache opens (or creates) the result cache rooted at dir,
// verifying or quarantining anything damaged it finds there.
func OpenCache(dir string) (*Cache, error) { return cache.Open(dir) }

// OpenResultCache resolves a -cache flag value: the store rooted at dir
// and its Close, or a nil store and a no-op when dir is empty.
func OpenResultCache(dir string) (ResultCache, func() error, error) {
	if dir == "" {
		return nil, func() error { return nil }, nil
	}
	c, err := OpenCache(dir)
	if err != nil {
		return nil, nil, err
	}
	return c, c.Close, nil
}

// CacheFingerprint identifies the running binary for cache keying: the
// VCS revision when built from a repository ("+dirty" when modified),
// else the module version, else "unversioned".
func CacheFingerprint() string { return cache.Fingerprint() }

// WithCheckCache makes BuildShardIndex restore its stripe's index from
// the cache when the same stripe of the same stack was built before, and
// store the index it builds otherwise; BuildSystem treats the whole
// sweep as one stripe. Restored and built indexes are bit-identical.
func WithCheckCache(c ResultCache, fingerprint string) CheckOption {
	return episteme.WithCache(c, fingerprint)
}
