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
// Wire a cache into a sweep with WithResultCache, into the checker with
// WithCheckCache, or into a fabric worker via WorkerConfig.Cache. The
// fingerprint argument folds the build's identity into every key (use
// CacheFingerprint for the running binary's VCS revision), so entries
// written by one version of the code are invisible to another.

// ResultCache stores cached run payloads; OpenCache, NewCacheClient,
// and NewTieredCache all satisfy it.
type ResultCache = core.ResultCache

// Cache is the on-disk store: append-only digested segments under one
// directory, safe for concurrent use within a process and for
// concurrent readers across processes.
type Cache = cache.Cache

// CacheStats snapshots a store's traffic counters.
type CacheStats = cache.Stats

// CacheGCResult reports what a GC pass kept and dropped.
type CacheGCResult = cache.GCResult

// CacheStore is the storage interface the shared cache server exposes
// over HTTP; Cache, CacheClient, and TieredCache all satisfy it.
type CacheStore = cache.Store

// CacheClient is an HTTP client of a shared cache server (ebacoord
// -cache, or any mount of NewCacheServer). Transport and server
// failures degrade to misses.
type CacheClient = cache.Client

// TieredCache layers a local store over a remote one: local hits win,
// remote hits back-fill the local store, puts write through to both.
type TieredCache = cache.Tiered

// OpenCache opens (or creates) the result cache rooted at dir,
// verifying or quarantining anything damaged it finds there.
func OpenCache(dir string) (*Cache, error) { return cache.Open(dir) }

// NewCacheClient returns a client of the shared cache server at
// baseURL (for ebacoord -cache, that is coordinatorURL + "/cache").
func NewCacheClient(baseURL string) *CacheClient { return cache.NewClient(baseURL) }

// NewTieredCache layers local over remote.
func NewTieredCache(local, remote CacheStore) *TieredCache { return cache.NewTiered(local, remote) }

// OpenResultCache resolves a cache directory and a shared cache server
// URL (either may be empty) into one store: the directory alone, the
// server alone, or the directory tiered over the server. The returned
// close function closes the local store, if any; the store is nil when
// both arguments are empty.
func OpenResultCache(dir, url string) (ResultCache, func() error, error) {
	noop := func() error { return nil }
	switch {
	case dir == "" && url == "":
		return nil, noop, nil
	case dir == "":
		return NewCacheClient(url), noop, nil
	}
	local, err := OpenCache(dir)
	if err != nil {
		return nil, nil, err
	}
	if url == "" {
		return local, local.Close, nil
	}
	return NewTieredCache(local, NewCacheClient(url)), local.Close, nil
}

// NewCacheServer exposes a store over HTTP for NewCacheClient to
// consume. Mount it on any mux; both directions are digest-verified.
func NewCacheServer(store CacheStore) *cache.Server { return cache.NewServer(store) }

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
