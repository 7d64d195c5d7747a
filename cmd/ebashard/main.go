// Command ebashard runs one stripe of an exhaustive sweep — or of the
// model checker's enumeration — and merges stripes back together, so a
// sweep that saturates one machine can run as K cooperating processes.
//
// Striding is deterministic: stripe i of K holds the scenarios at global
// ordinals ≡ i mod K of the canonical enumeration, so K processes given
// the same parameters and distinct -shard values partition the sweep
// exactly. Merging verifies it: headers must agree, record digests must
// match their content, and ordinals must cover 0..total-1 with no gap
// and no overlap. The merged outcome stream is byte-identical to the
// stream a single -shard 0/1 process writes (the CI shard-equivalence
// smoke pins this with cmp), and a merged model-checker index yields
// verdicts bit-identical to the single-process checker.
//
// Sweep mode (outcome streams; every run is checked against the EBA
// specification, and a violation aborts the stripe):
//
//	ebashard -stack fip -n 3 -t 1 -shard 0/3 -out shard0.jsonl
//	ebashard -stack fip -n 3 -t 1 -shard 1/3 -out shard1.jsonl
//	ebashard -stack fip -n 3 -t 1 -shard 2/3 -out shard2.jsonl
//	ebashard -merge -out merged.jsonl shard0.jsonl shard1.jsonl shard2.jsonl
//
// Model-checker mode (partial epistemic indexes):
//
//	ebashard -check -stack fip -n 3 -t 1 -shard 0/3 -out idx0.json   # ×3
//	ebashard -check -merge idx0.json idx1.json idx2.json
//
// -check -merge re-interns the partial indexes into one system and
// prints deterministic verdict lines (implements / safety / optimality),
// so sharded and unsharded checker outputs can be diffed directly.
// -shard defaults to $EBA_SHARD when set ("i/k"), else to 0/1.
//
// -quotient is a sweep-mode flag: it reduces the enumeration to one
// representative per agent-permutation orbit (up to n! fewer executions)
// and the outcome records carry their orbit size as a multiplicity — a
// different stream, so the caller chooses. The model checker takes no
// such flag: it enumerates representatives whenever the stack's exchange
// lets it rebuild the full system from them (fip; -check -merge expands),
// its verdict lines are the same bytes either way, and -check -quotient
// is a usage error. Plain sweeps relabel within orbits (relabeled=N).
//
// Result cache: -cache DIR answers already-swept scenarios from a
// persistent content-addressed store instead of re-executing them, and
// in -check mode restores a stripe's whole index when the same stripe of
// the same stack was built before — streams and indexes stay
// byte-identical, a warm re-run just skips the work (the stderr summary
// says executed=/hits= for a sweep, "index built" or "index restored" for
// a check). Keys fold in the binary's VCS revision, so a rebuilt binary
// never reuses stale entries, and every entry is digest-verified on
// read — damage means recompute, never a wrong answer. -cache-gc
// compacts the directory (bound its size with -cache-max-bytes) and
// exits.
//
//	ebashard -stack fip -n 4 -t 1 -quotient -cache ~/.eba-cache -out sweep.jsonl
//	ebashard -cache-gc -cache ~/.eba-cache -cache-max-bytes 1000000000
//
// Exit codes: 2 for failed verdicts (a rerun reproduces them), 1 for
// everything else.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/pprof"

	eba "repro"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "ebashard:", err)
		os.Exit(exitCode(err))
	}
}

// exitCode maps an error to the command's exit code: failed verdicts
// are distinguishable from every other failure by the caller.
func exitCode(err error) int {
	if errors.Is(err, eba.ErrFabricVerification) {
		return 2
	}
	return 1
}

func run(args []string) (err error) {
	fs := flag.NewFlagSet("ebashard", flag.ContinueOnError)
	var (
		stackName  = fs.String("stack", "fip", "protocol stack (see eba.Stacks)")
		n          = fs.Int("n", 3, "number of agents")
		t          = fs.Int("t", 1, "failure bound t")
		out        = fs.String("out", "-", "output file (\"-\" for stdout)")
		merge      = fs.Bool("merge", false, "merge the listed shard files instead of running a stripe")
		check      = fs.Bool("check", false, "model-checker mode: build (or, with -merge, merge) epistemic shard indexes")
		parallel   = fs.Int("parallel", 0, "workers per process (0 = one per CPU; never changes the output)")
		safety     = fs.Bool("safety", false, "-check -merge: also check the Definition 6.2 safety condition")
		optimality = fs.Bool("optimality", true, "-check -merge: for fip, check the Theorem 7.5 characterization")
		quotient   = fs.Bool("quotient", false, "sweep mode: enumerate one representative per agent-permutation orbit, weighting outcomes by orbit size")
		cacheDir   = fs.String("cache", "", "result cache directory: answer already-swept scenarios (-check: an already-built stripe index) from it instead of re-executing")
		cacheGC    = fs.Bool("cache-gc", false, "compact the -cache directory (drop dead and damaged entries) and exit")
		cacheMax   = fs.Int64("cache-max-bytes", 0, "-cache-gc: evict oldest entries until the cache payload fits this budget (0 = keep everything live)")
		cpuProfile = fs.String("cpuprofile", "", "write a CPU profile of the whole command to this file (go tool pprof reads it)")
		memProfile = fs.String("memprofile", "", "write a heap profile to this file when the command returns (go tool pprof reads it)")
	)
	shard := eba.ShardSpec{}
	if env := os.Getenv(eba.ShardEnvVar); env != "" {
		parsed, err := eba.ParseShardSpec(env)
		if err != nil {
			return fmt.Errorf("$%s: %w", eba.ShardEnvVar, err)
		}
		shard = parsed
	}
	fs.Var(&shard, "shard", "stripe to run, as index/count (default $"+eba.ShardEnvVar+" or 0/1)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *parallel < 0 {
		return fmt.Errorf("-parallel %d: need 0 (one worker per CPU) or more", *parallel)
	}
	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err != nil {
			return err
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			return errors.Join(err, f.Close())
		}
		defer func() {
			pprof.StopCPUProfile()
			err = errors.Join(err, f.Close())
		}()
	}
	if *memProfile != "" {
		f, err := os.Create(*memProfile)
		if err != nil {
			return err
		}
		defer func() {
			runtime.GC() // the profile's in-use figures are then what survives the command
			err = errors.Join(err, pprof.WriteHeapProfile(f), f.Close())
		}()
	}
	if shard == (eba.ShardSpec{}) {
		// No -shard and no $EBA_SHARD: the documented default is the
		// whole sweep (RunShard takes the raw index/count pair, which
		// must not stay 0/0).
		shard = eba.ShardSpec{Index: 0, Count: 1}
	}

	if *check && *quotient {
		return fmt.Errorf("-quotient applies to sweeps, where it changes the stream; the checker decides from the stack's exchange whether to enumerate orbit representatives, and the verdicts are the same bytes either way")
	}
	if *cacheGC {
		return runCacheGC(*cacheDir, *cacheMax)
	}
	store, closeStore, err := eba.OpenResultCache(*cacheDir)
	if err != nil {
		return err
	}
	defer closeStore()

	switch {
	case *merge && *check:
		return mergeIndexes(fs.Args(), *out, *parallel, *safety, *optimality)
	case *merge:
		return mergeStreams(fs.Args(), *out)
	case *check:
		return buildIndex(*stackName, *n, *t, shard, *out, *parallel, store)
	default:
		return runStripe(*stackName, *n, *t, shard, *out, *parallel, *quotient, store)
	}
}

// runCacheGC compacts the cache directory and reports what survived.
func runCacheGC(dir string, maxBytes int64) error {
	if dir == "" {
		return fmt.Errorf("-cache-gc needs -cache DIR")
	}
	c, err := eba.OpenCache(dir)
	if err != nil {
		return err
	}
	defer c.Close()
	res, err := c.GC(maxBytes)
	if err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "ebashard: cache %s: %d entries kept, %d dropped; %d segment(s) %d bytes -> %d segment(s) %d bytes\n",
		dir, res.Kept, res.Dropped, res.SegmentsBefore, res.BytesBefore, res.SegmentsAfter, res.BytesAfter)
	return nil
}

// openOut resolves -out: stdout for "-", else the file (truncated).
func openOut(path string) (io.Writer, func() error, error) {
	if path == "" || path == "-" {
		return os.Stdout, func() error { return nil }, nil
	}
	f, err := os.Create(path)
	if err != nil {
		return nil, nil, err
	}
	return f, f.Close, nil
}

// runStripe executes one stripe of the stack's exhaustive SO(t) sweep,
// spec-checking every run (a violation aborts the stripe), and writes its
// outcome stream. With quotient, the sweep is reduced to
// one representative per agent-permutation orbit BEFORE striding, so the
// stripes partition the representative enumeration and each outcome
// record carries its orbit size as a multiplicity.
func runStripe(stackName string, n, t int, shard eba.ShardSpec, out string, parallel int, quotient bool, store eba.ResultCache) error {
	if err := shard.Validate(); err != nil {
		return err
	}
	stack, err := eba.NewStack(stackName, eba.WithN(n), eba.WithT(t))
	if err != nil {
		return err
	}
	src, err := eba.SourceSO(n, t, stack.Horizon())
	if err != nil {
		return err
	}
	if quotient {
		src = eba.SourceQuotient(src)
	}
	opts := []eba.RunnerOption{
		eba.WithParallelism(parallel),
		eba.WithSpecCheck(eba.SpecOptions{RoundBound: stack.Horizon(), ValidityAllAgents: true}),
	}
	if store != nil {
		opts = append(opts, eba.WithResultCache(store, eba.CacheFingerprint()))
	}
	w, closeOut, err := openOut(out)
	if err != nil {
		return err
	}
	sum, err := eba.NewRunner(stack, opts...).RunShard(context.Background(), src, shard.Index, shard.Count, w)
	if cerr := closeOut(); err == nil {
		err = cerr
	}
	if err != nil {
		return err
	}
	cacheNote := fmt.Sprintf(" (relabeled=%d)", sum.Relabeled)
	if store != nil {
		// The CI warm-cache smoke greps executed=0 off this line.
		cacheNote = fmt.Sprintf(" (executed=%d hits=%d relabeled=%d)", sum.Executed, sum.CacheHits, sum.Relabeled)
	}
	if sum.Weighted != sum.Records {
		fmt.Fprintf(os.Stderr, "ebashard: shard %s of %s n=%d t=%d: %d runs standing for %d, digest %s%s\n",
			shard.String(), stack.Name, n, t, sum.Records, sum.Weighted, sum.Digest, cacheNote)
		return nil
	}
	fmt.Fprintf(os.Stderr, "ebashard: shard %s of %s n=%d t=%d: %d runs, digest %s%s\n",
		shard.String(), stack.Name, n, t, sum.Records, sum.Digest, cacheNote)
	return nil
}

// mergeStreams fans the listed outcome streams back into canonical order.
func mergeStreams(paths []string, out string) error {
	if len(paths) == 0 {
		return fmt.Errorf("-merge needs the shard files as arguments")
	}
	readers := make([]io.Reader, len(paths))
	for i, p := range paths {
		f, err := os.Open(p)
		if err != nil {
			return err
		}
		defer f.Close()
		readers[i] = f
	}
	w, closeOut, err := openOut(out)
	if err != nil {
		return err
	}
	sum, err := eba.MergeOutcomes(w, readers...)
	if cerr := closeOut(); err == nil {
		err = cerr
	}
	if err != nil {
		return err
	}
	if sum.Weighted != sum.Total {
		fmt.Fprintf(os.Stderr, "ebashard: merged %d shards: %d runs standing for %d, digest %s\n",
			sum.Shards, sum.Total, sum.Weighted, sum.Digest)
		return nil
	}
	fmt.Fprintf(os.Stderr, "ebashard: merged %d shards: %d runs, digest %s\n", sum.Shards, sum.Total, sum.Digest)
	return nil
}

// buildIndex builds one stripe of the model checker's enumeration and
// writes the partial epistemic index. Over an exchange that allows it the
// stripe holds orbit representatives with their multiplicities;
// -check -merge expands the merged system back to the full sweep before
// writing verdicts.
func buildIndex(stackName string, n, t int, shard eba.ShardSpec, out string, parallel int, store eba.ResultCache) error {
	if err := shard.Validate(); err != nil {
		return err
	}
	stack, err := eba.NewStack(stackName, eba.WithN(n), eba.WithT(t))
	if err != nil {
		return err
	}
	opts := []eba.CheckOption{eba.WithCheckParallelism(parallel)}
	var watch *putWatcher
	if store != nil {
		watch = &putWatcher{ResultCache: store}
		opts = append(opts, eba.WithCheckCache(watch, eba.CacheFingerprint()))
	}
	idx, err := eba.BuildShardIndex(context.Background(), stack, shard.Index, shard.Count, opts...)
	if err != nil {
		return err
	}
	w, closeOut, err := openOut(out)
	if err != nil {
		return err
	}
	err = eba.WriteShardIndex(w, idx)
	if cerr := closeOut(); err == nil {
		err = cerr
	}
	if err != nil {
		return err
	}
	cacheNote := ""
	if watch != nil {
		// The CI cache-restore smoke greps "index restored" off this line.
		cacheNote = " (index restored)"
		if watch.stored {
			cacheNote = " (index built)"
		}
	}
	fmt.Fprintf(os.Stderr, "ebashard: indexed shard %s of %s n=%d t=%d: %d runs%s\n",
		shard.String(), stack.Name, n, t, len(idx.Runs), cacheNote)
	return nil
}

// putWatcher notes whether a checker build stored anything: BuildShardIndex
// stores its stripe's index exactly when it built the stripe instead of
// restoring it.
type putWatcher struct {
	eba.ResultCache
	stored bool
}

func (w *putWatcher) Put(key string, val []byte) error {
	w.stored = true
	return w.ResultCache.Put(key, val)
}

// mergeIndexes re-interns the listed partial indexes into one system and
// prints deterministic verdict lines to -out.
func mergeIndexes(paths []string, out string, parallel int, safety, optimality bool) error {
	if len(paths) == 0 {
		return fmt.Errorf("-check -merge needs the index files as arguments")
	}
	shards := make([]*eba.ShardIndex, len(paths))
	for i, p := range paths {
		f, err := os.Open(p)
		if err != nil {
			return err
		}
		idx, err := eba.ReadShardIndex(f)
		f.Close()
		if err != nil {
			return fmt.Errorf("%s: %w", p, err)
		}
		shards[i] = idx
	}
	ctx := context.Background()
	sys, err := eba.MergeSystems(ctx, shards, eba.WithCheckParallelism(parallel))
	if err != nil {
		return err
	}

	// Stack is optional index metadata; MergeSystems has already verified
	// that every non-empty name agrees, so the first one found is THE name.
	stackName := ""
	for _, idx := range shards {
		if idx.Stack != "" {
			stackName = idx.Stack
			break
		}
	}
	if stackName == "" {
		return fmt.Errorf("shard indexes carry no stack name (rebuild them with ebashard -check, which records it)")
	}

	w, closeOut, err := openOut(out)
	if err != nil {
		return err
	}
	// The one shared verdict writer: ebacheck and ebaserve's /v1/check go
	// through the same function, so their verdicts and this command's
	// diff clean.
	verdictErr := eba.WriteVerdicts(ctx, w, sys, stackName, eba.VerdictOptions{Safety: safety, Optimality: optimality})
	if cerr := closeOut(); verdictErr == nil {
		verdictErr = cerr
	}
	return verdictErr
}
