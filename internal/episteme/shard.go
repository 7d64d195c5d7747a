// Sharded system construction: the model checker's multi-process face.
//
// BuildSystem's enumeration is the expensive half of every check, so it
// splits across processes, riding the same deterministic striding the
// Runner's sweeps use: shard i of K enumerates the scenarios at global
// ordinals ≡ i mod K, runs them through the memoizing executor, and
// interns its own (time, agent) class tables over its stripe. The
// resulting ShardIndex is serializable — runs are reduced to their
// decision ledger plus the interned class rows keyed by the canonical
// local-state key — so K processes can each emit one and a fan-in process
// can MergeSystems them back into a single *System.
//
// The merge invariant, pinned by TestMergeSystemsBitIdentical and the CI
// shard-equivalence smoke: class keys are canonical fingerprints of local
// states (model.State.AppendKey), so handing the index kernel (index.go) the K
// partial tables in global run order reproduces the exact class structure
// — ids, member lists, global interning — the single-process build
// produces, and every verdict (CheckImplements, CheckSafety,
// CheckOptimalityFIP) over the merged System is bit-identical to the
// unsharded one.

package episteme

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"slices"
	"strconv"
	"sync"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/model"
	"repro/internal/wire"
)

const (
	shardIndexKind    = "eba-episteme-shard"
	shardIndexVersion = 1
)

// ShardRun is one enumerated run reduced to what the knowledge checkers
// consult: the scenario (pattern text + inits), the decision ledger, the
// recorded actions, and the traffic stats — core's trace-free run ledger.
// The class rows below carry the state keys, once per class; state traces
// stay in the process that ran them.
type ShardRun = core.CachedRun

// ShardIndex is one shard's serializable contribution to a sharded
// System: its stripe's runs plus the per-(time, agent) interned class
// tables over that stripe. Local run k is global run Shard + k·Shards.
type ShardIndex struct {
	// Kind is "eba-episteme-shard"; Version the format version.
	Kind    string `json:"kind"`
	Version int    `json:"v"`
	// Shard and Shards identify the stripe of the canonical enumeration.
	Shard  int `json:"shard"`
	Shards int `json:"shards"`
	// Stack optionally names the protocol stack the shard enumerated
	// (callers that resolve stacks by registry name fill it; MergeSystems
	// requires agreement when set).
	Stack string `json:"stack,omitempty"`
	// N, T, and Horizon describe the system being built.
	N       int `json:"n"`
	T       int `json:"t"`
	Horizon int `json:"horizon"`
	// Runs holds the stripe's runs in stripe order.
	Runs []ShardRun `json:"runs"`
	// Quotient marks a symmetry-quotiented stripe (every build over an
	// exchange with model.KeyPermuter — buildOptions): Runs are canonical
	// orbit representatives and Mults[k] is run k's orbit size.
	// MergeSystems requires the flag to agree across shards and
	// reassembles a quotiented System; ExpandQuotient then rebuilds the
	// full one.
	Quotient bool    `json:"quotient,omitempty"`
	Mults    []int64 `json:"mults,omitempty"`
	// ClassKeys[slot] lists the class keys of slot (time m, agent i),
	// slot = m·N+i, in the shard's first-appearance order — the canonical
	// local-state fingerprints the merge re-interns by.
	ClassKeys [][]string `json:"classKeys"`
	// ClassOf[slot][k] is local run k's shard-local class id in the slot.
	ClassOf [][]int32 `json:"classOf"`
}

// BuildShardIndex enumerates stripe shardIndex of a shardCount-way
// deterministic split of the context's exhaustive sweep, exactly as
// BuildSystem enumerates the whole of it (same scenario source, same
// memoizing executor, same parallel index build), and exports the
// stripe's interned index. K processes running distinct stripes of the
// same context partition BuildSystem's enumeration exactly; MergeSystems
// reassembles their indexes into the single-process System. Like
// BuildSystem, it takes the symmetry quotient whenever the exchange allows
// (ShardIndex.Quotient says which sweep the stripe is of); the merge of
// quotiented stripes is expanded once, by ExpandQuotient.
func BuildShardIndex(ctx context.Context, c Context, act model.ActionProtocol, shardIndex, shardCount int, opts ...Option) (*ShardIndex, error) {
	if c.Exchange == nil || act == nil {
		return nil, fmt.Errorf("episteme: Exchange and action protocol are required")
	}
	o := buildOptions(c, opts)
	n := c.Exchange.N()
	horizon := c.horizonOrDefault()
	// A hit is the verified WriteShardIndex serialization; its decode
	// round-trips to identical bytes (the digest identity the fabric's
	// duplicate resolution already relies on), so a restored index is
	// bit-identical to a built one.
	var idxKey string
	if o.cache != nil {
		version := cacheStack(c, act, n, horizon).VersionDigest(o.fingerprint)
		idxKey = shardIndexCacheKey(version, c, shardIndex, shardCount, o.quotient)
		if payload, ok := o.cache.Get(idxKey); ok {
			if idx, err := decodeCachedIndex(payload, shardIndex, shardCount, n, c.T, horizon, o.quotient); err == nil {
				return idx, nil
			}
			// Corrupt or misfiled: rebuild below and overwrite.
		}
	}
	sys, err := buildStripe(ctx, c, act, shardIndex, shardCount, o)
	if err != nil {
		return nil, err
	}
	idx, err := exportShardIndex(sys, shardIndex, shardCount)
	if err != nil {
		return nil, err
	}
	if o.cache != nil {
		// Best-effort, like every cache store: a full disk never fails the
		// build.
		bp := encodeIndex(idx, 0)
		o.cache.Put(idxKey, *bp)
		indexBufs.Put(bp)
	}
	return idx, nil
}

// exportShardIndex reduces a stripe's System to its serializable partial
// index. A slot's class keys become strings that share one copy of its
// slab, and its class ids are unpacked: BuildShardIndex drops the System
// once it is exported.
func exportShardIndex(sys *System, shardIndex, shardCount int) (*ShardIndex, error) {
	idx := &ShardIndex{
		Kind:    shardIndexKind,
		Version: shardIndexVersion,
		Shard:   shardIndex,
		Shards:  shardCount,
		N:       sys.N,
		T:       sys.T,
		Horizon: sys.Horizon,
		Runs:    make([]ShardRun, len(sys.Runs)),
	}
	if sys.Quotiented() {
		idx.Quotient = true
		idx.Mults = append([]int64{}, sys.weights...)
	}
	var res engine.Result
	for k := range sys.Runs {
		sys.Ledger(k, &res)
		if err := idx.Runs[k].Encode(&res); err != nil {
			return nil, err
		}
	}
	x := sys.frame.(*indexFrame) // every build's frame; exported whole
	x.lastLayer()
	idx.ClassKeys, idx.ClassOf = make([][]string, len(x.slots)), make([][]int32, len(x.slots))
	for slot := range x.slots {
		t := &x.slots[slot]
		slab := string(t.keys.slab)
		idx.ClassKeys[slot] = make([]string, t.keys.len())
		for c := range idx.ClassKeys[slot] {
			idx.ClassKeys[slot][c] = slab[t.keys.off[c]:t.keys.off[c+1]]
		}
		idx.ClassOf[slot] = t.ids.unpack(make([]int32, t.ids.n))
	}
	return idx, nil
}

// The canonical index document is what encoding/json writes for a
// ShardIndex, followed by one newline: the fields in declaration order
// under their JSON keys, no whitespace, integers in shortest decimal form,
// a nil slice as null, "stack" present exactly when non-empty,
// "quotient" exactly when true and "mults" exactly when non-empty, each
// run in CachedRun's canonical form, and strings escaped as the outcome
// stream's lines escape them (internal/wire). WriteShardIndex writes
// exactly that document and ReadShardIndex accepts nothing else, so two
// indexes are equal exactly when their files compare equal with cmp(1),
// and Digest hashes the document without its newline.

// indexBufs lends the codec its document buffers from call to call, the
// way encoding/json's encoder pool does.
var indexBufs = sync.Pool{New: func() any { return new([]byte) }}

// encodeIndex returns a pooled buffer holding idx's document, newline
// included; the caller puts it back. size, when known, is the document's
// length.
func encodeIndex(idx *ShardIndex, size int) *[]byte {
	if size == 0 {
		size = indexSize(idx)
	}
	bp := indexBufs.Get().(*[]byte)
	*bp = append(appendShardIndex(slices.Grow((*bp)[:0], size), idx), '\n')
	return bp
}

// indexSize estimates the length of idx's document, erring high, so that
// a buffer is sized once: append's own steps, a quarter of the length
// each, would allocate about five times a large document. Runs differ
// from the first run's encoding by their pattern texts and a few digits.
func indexSize(idx *ShardIndex) int {
	var scratch [512]byte
	size := 512 + len(idx.Stack) + 21*len(idx.Mults) // 21 bytes bound an int64 and its comma
	if len(idx.Runs) > 0 {
		size += len(idx.Runs) * (len(idx.Runs[0].AppendJSON(scratch[:0])) - len(idx.Runs[0].Pattern) + 16)
	}
	for k := range idx.Runs {
		size += len(idx.Runs[k].Pattern)
	}
	for slot, keys := range idx.ClassKeys {
		for _, key := range keys {
			size += len(key) + 3
		}
		if slot < len(idx.ClassOf) {
			size += len(idx.ClassOf[slot]) * (len(strconv.AppendInt(scratch[:0], int64(len(keys)), 10)) + 1)
		}
	}
	return size + 4*len(idx.ClassOf)
}

// appendShardIndex appends idx's canonical document, without its newline.
func appendShardIndex(dst []byte, idx *ShardIndex) []byte {
	dst = append(dst, `{"kind":`...)
	dst = wire.AppendString(dst, idx.Kind)
	dst = append(dst, `,"v":`...)
	dst = strconv.AppendInt(dst, int64(idx.Version), 10)
	dst = append(dst, `,"shard":`...)
	dst = strconv.AppendInt(dst, int64(idx.Shard), 10)
	dst = append(dst, `,"shards":`...)
	dst = strconv.AppendInt(dst, int64(idx.Shards), 10)
	if idx.Stack != "" {
		dst = append(dst, `,"stack":`...)
		dst = wire.AppendString(dst, idx.Stack)
	}
	dst = append(dst, `,"n":`...)
	dst = strconv.AppendInt(dst, int64(idx.N), 10)
	dst = append(dst, `,"t":`...)
	dst = strconv.AppendInt(dst, int64(idx.T), 10)
	dst = append(dst, `,"horizon":`...)
	dst = strconv.AppendInt(dst, int64(idx.Horizon), 10)
	dst = append(dst, `,"runs":`...)
	dst = wire.AppendList(dst, idx.Runs, func(dst []byte, r *ShardRun) []byte { return r.AppendJSON(dst) })
	if idx.Quotient {
		dst = append(dst, `,"quotient":true`...)
	}
	if len(idx.Mults) != 0 {
		dst = append(dst, `,"mults":`...)
		dst = wire.AppendInts(dst, idx.Mults)
	}
	dst = append(dst, `,"classKeys":`...)
	dst = wire.AppendList(dst, idx.ClassKeys, func(dst []byte, keys *[]string) []byte {
		return wire.AppendList(dst, *keys, func(dst []byte, key *string) []byte { return wire.AppendString(dst, *key) })
	})
	dst = append(dst, `,"classOf":`...)
	dst = wire.AppendList(dst, idx.ClassOf, func(dst []byte, row *[]int32) []byte { return wire.AppendInts(dst, *row) })
	return append(dst, '}')
}

// WriteShardIndex writes the index's canonical document in one Write.
func WriteShardIndex(w io.Writer, idx *ShardIndex) error {
	bp := encodeIndex(idx, 0)
	defer indexBufs.Put(bp)
	if _, err := w.Write(*bp); err != nil {
		return fmt.Errorf("episteme: writing shard index %d/%d: %w", idx.Shard, idx.Shards, err)
	}
	return nil
}

// ReadShardIndex reads a WriteShardIndex document: the whole stream, into
// one pooled buffer sized from the reader when it can tell (a bytes or
// strings reader, a file). Only the canonical document is accepted.
func ReadShardIndex(r io.Reader) (*ShardIndex, error) {
	size := 0
	switch r := r.(type) {
	case interface{ Len() int }:
		size = r.Len()
	case interface{ Stat() (fs.FileInfo, error) }:
		if fi, err := r.Stat(); err == nil {
			size = int(fi.Size())
		}
	}
	bp := indexBufs.Get().(*[]byte)
	defer indexBufs.Put(bp)
	buf := bytes.NewBuffer((*bp)[:0])
	buf.Grow(size + bytes.MinRead) // room for the read that meets EOF
	_, err := buf.ReadFrom(r)
	*bp = buf.Bytes()
	if err != nil {
		return nil, fmt.Errorf("episteme: reading shard index: %w", err)
	}
	return parseShardIndex(buf.Bytes())
}

// parseShardIndex decodes one canonical index document. A foreign kind or
// version is reported as such as soon as the header is read.
func parseShardIndex(data []byte) (*ShardIndex, error) {
	p := wire.Parser{Rest: data}
	idx := new(ShardIndex)
	p.Lit(`{"kind":`)
	idx.Kind = string(p.Str())
	if !p.Bad && idx.Kind != shardIndexKind {
		return nil, fmt.Errorf("episteme: not a shard index (kind %q, want %q)", idx.Kind, shardIndexKind)
	}
	p.Lit(`,"v":`)
	idx.Version = int(p.Int64())
	if !p.Bad && idx.Version != shardIndexVersion {
		return nil, fmt.Errorf("episteme: shard index version %d, this reader speaks %d", idx.Version, shardIndexVersion)
	}
	p.Lit(`,"shard":`)
	idx.Shard = int(p.Int64())
	p.Lit(`,"shards":`)
	idx.Shards = int(p.Int64())
	if p.Opt(`,"stack":`) {
		idx.Stack = string(p.Str())
	}
	p.Lit(`,"n":`)
	idx.N = int(p.Int64())
	p.Lit(`,"t":`)
	idx.T = int(p.Int64())
	p.Lit(`,"horizon":`)
	idx.Horizon = int(p.Int64())
	p.Lit(`,"runs":`)
	// A canonical document holds no other `{"pattern":`: the count sizes
	// the runs exactly.
	idx.Runs = make([]ShardRun, 0, bytes.Count(p.Rest, []byte(`{"pattern":`)))
	if !p.Elems(func() {
		idx.Runs = append(idx.Runs, ShardRun{})
		idx.Runs[len(idx.Runs)-1].Parse(&p)
	}) {
		idx.Runs = nil
	}
	idx.Quotient = p.Opt(`,"quotient":true`)
	if p.Opt(`,"mults":`) {
		idx.Mults, _ = wire.Exact[int64](&p, nil)
	}
	p.Lit(`,"classKeys":`)
	var keys []string
	idx.ClassKeys = [][]string{}
	if !p.Elems(func() {
		keys = keys[:0]
		var row []string
		if p.Elems(func() { keys = append(keys, string(p.Str())) }) {
			row = append(make([]string, 0, len(keys)), keys...)
		}
		idx.ClassKeys = append(idx.ClassKeys, row)
	}) {
		idx.ClassKeys = nil
	}
	p.Lit(`,"classOf":`)
	var scratch []int32
	idx.ClassOf = make([][]int32, 0, len(idx.ClassKeys))
	if !p.Elems(func() {
		var row []int32
		row, scratch = wire.Exact(&p, scratch)
		idx.ClassOf = append(idx.ClassOf, row)
	}) {
		idx.ClassOf = nil
	}
	p.Lit("}\n")
	if p.Bad || len(p.Rest) != 0 {
		return nil, errors.New("episteme: reading shard index: malformed document")
	}
	bp := encodeIndex(idx, len(data))
	defer indexBufs.Put(bp)
	if !bytes.Equal(*bp, data) {
		return nil, errors.New("episteme: reading shard index: not the canonical encoding of its content")
	}
	return idx, nil
}

// Digest fingerprints the index's canonical document (without its
// newline). Two indexes digest equal exactly when WriteShardIndex would
// emit identical bytes for them — the identity the fabric coordinator
// resolves duplicate stripe uploads by (first sealed valid upload wins; a
// conflicting digest for the same stripe is a fatal inconsistency).
func (idx *ShardIndex) Digest() string {
	bp := encodeIndex(idx, 0)
	defer indexBufs.Put(bp)
	sum := sha256.Sum256((*bp)[:len(*bp)-1])
	return hex.EncodeToString(sum[:16])
}

// Validate checks the index's internal consistency: bounds, table shapes,
// class ids referencing declared classes, every run's ledgers in shape and
// in range (ShardRun.WellFormed), its decisions its actions' first
// decides, and every run's pattern text naming the index's n and horizon
// (model.PatternShape). ReadShardIndex callers that
// accept indexes across a trust boundary (the fabric coordinator) call it
// before merging; MergeSystems always does.
func (idx *ShardIndex) Validate() error {
	if idx.Shards < 1 || idx.Shard < 0 || idx.Shard >= idx.Shards {
		return fmt.Errorf("episteme: shard index declares shard %d of %d", idx.Shard, idx.Shards)
	}
	if idx.N < 1 || idx.Horizon < 0 {
		return fmt.Errorf("episteme: shard %d/%d declares n=%d, horizon=%d", idx.Shard, idx.Shards, idx.N, idx.Horizon)
	}
	nSlots := (idx.Horizon + 1) * idx.N
	if len(idx.ClassKeys) != nSlots || len(idx.ClassOf) != nSlots {
		return fmt.Errorf("episteme: shard %d/%d carries %d/%d slot tables, want %d",
			idx.Shard, idx.Shards, len(idx.ClassKeys), len(idx.ClassOf), nSlots)
	}
	for slot := 0; slot < nSlots; slot++ {
		if len(idx.ClassOf[slot]) != len(idx.Runs) {
			return fmt.Errorf("episteme: shard %d/%d slot %d classifies %d runs, stripe has %d",
				idx.Shard, idx.Shards, slot, len(idx.ClassOf[slot]), len(idx.Runs))
		}
		for k, c := range idx.ClassOf[slot] {
			if c < 0 || int(c) >= len(idx.ClassKeys[slot]) {
				return fmt.Errorf("episteme: shard %d/%d slot %d run %d references class %d of %d",
					idx.Shard, idx.Shards, slot, k, c, len(idx.ClassKeys[slot]))
			}
		}
	}
	if idx.Quotient {
		if len(idx.Mults) != len(idx.Runs) {
			return fmt.Errorf("episteme: quotiented shard %d/%d carries %d multiplicities for %d runs",
				idx.Shard, idx.Shards, len(idx.Mults), len(idx.Runs))
		}
		for k, m := range idx.Mults {
			if m < 1 {
				return fmt.Errorf("episteme: quotiented shard %d/%d run %d has orbit size %d", idx.Shard, idx.Shards, k, m)
			}
		}
	} else if len(idx.Mults) != 0 {
		return fmt.Errorf("episteme: shard %d/%d carries multiplicities but is not quotiented", idx.Shard, idx.Shards)
	}
	for k := range idx.Runs {
		sr := &idx.Runs[k]
		if !sr.WellFormed(idx.N, idx.Horizon) {
			return fmt.Errorf("episteme: shard %d/%d run %d has malformed ledgers", idx.Shard, idx.Shards, k)
		}
		for i := range idx.N {
			d, r := model.None, 0
			for m := len(sr.Actions) - 1; m >= 0; m-- {
				if v := model.Action(sr.Actions[m][i]).Decision(); v.IsSet() {
					d, r = v, m+1
				}
			}
			if sr.Decisions[i] != int(d) || sr.Rounds[i] != r {
				return fmt.Errorf("episteme: shard %d/%d run %d: agent %d's decision is not its first decide", idx.Shard, idx.Shards, k, i)
			}
		}
		n, h, err := model.PatternShape([]byte(idx.Runs[k].Pattern))
		if err == nil && (n != idx.N || h != idx.Horizon) {
			err = fmt.Errorf("its pattern is for n=%d, horizon=%d", n, h)
		}
		if err != nil {
			return fmt.Errorf("episteme: shard %d/%d run %d: %w", idx.Shard, idx.Shards, k, err)
		}
	}
	return nil
}

// MergeSystems re-interns K partial indexes — one per stripe of a K-way
// deterministic split, in any order — into one System. Global run r comes
// from shard r mod K at stripe position r div K, restoring the canonical
// enumeration order; each (time, agent) slot's classes are re-interned by
// their canonical keys through the index kernel every build uses
// (index.go), so the merged class tables — ids, member lists, and the
// system-wide global interning — and every verdict computed from them are
// bit-identical to the unsharded BuildSystem's. The merge verifies the
// stripes partition one sweep: K distinct shards of a K-way split,
// agreeing on (n, t, horizon), with stripe lengths consistent with one
// total (no gap, no overlap).
//
// A merged System's labels are the stripes' recorded actions, and the
// index kernel refuses a class whose runs act differently.
func MergeSystems(ctx context.Context, shards []*ShardIndex, opts ...Option) (*System, error) {
	if len(shards) == 0 {
		return nil, fmt.Errorf("episteme: merge of zero shard indexes")
	}
	o := newOptions(opts)
	k := shards[0].Shards
	if k != len(shards) {
		return nil, fmt.Errorf("episteme: merging %d shard indexes but they declare a %d-way split", len(shards), k)
	}
	byShard := make([]*ShardIndex, k)
	for _, idx := range shards {
		if err := idx.Validate(); err != nil {
			return nil, err
		}
		if idx.Shards != k {
			return nil, fmt.Errorf("episteme: shard %d declares a %d-way split, shard %d a %d-way one",
				idx.Shard, idx.Shards, shards[0].Shard, k)
		}
		if byShard[idx.Shard] != nil {
			return nil, fmt.Errorf("episteme: two indexes both claim shard %d/%d (overlap)", idx.Shard, k)
		}
		byShard[idx.Shard] = idx
	}
	ref := byShard[0]
	total := 0
	stackName := ""
	for i, idx := range byShard {
		if idx.N != ref.N || idx.T != ref.T || idx.Horizon != ref.Horizon {
			return nil, fmt.Errorf("episteme: shard %d built (n=%d,t=%d,h=%d), shard 0 built (n=%d,t=%d,h=%d)",
				i, idx.N, idx.T, idx.Horizon, ref.N, ref.T, ref.Horizon)
		}
		if idx.Quotient != ref.Quotient {
			return nil, fmt.Errorf("episteme: shard %d quotiented=%v, shard 0 quotiented=%v; the stripes enumerate different sweeps",
				i, idx.Quotient, ref.Quotient)
		}
		// Stack is optional metadata: agreement is required only between
		// shards that carry it.
		if idx.Stack != "" {
			if stackName != "" && idx.Stack != stackName {
				return nil, fmt.Errorf("episteme: shard %d enumerated stack %q, an earlier shard stack %q",
					i, idx.Stack, stackName)
			}
			stackName = idx.Stack
		}
		total += len(idx.Runs)
	}
	for i, idx := range byShard {
		if want := core.StripeSize(int64(total), i, k); int64(len(idx.Runs)) != want {
			return nil, fmt.Errorf("episteme: shard %d carries %d runs; a %d-run sweep strides %d to it (gap or overlap)",
				i, len(idx.Runs), total, want)
		}
	}

	n, horizon := ref.N, ref.Horizon
	runs, stats := make([]Run, total), make([]engine.Stats, total)
	var weights []int64
	if ref.Quotient {
		weights = make([]int64, total)
	}
	for g := 0; g < total; g++ {
		idx := byShard[g%k]
		sr := &idx.Runs[g/k]
		pat := new(model.Pattern)
		if err := pat.UnmarshalText([]byte(sr.Pattern)); err != nil {
			return nil, fmt.Errorf("episteme: shard %d run %d (global %d): %w", g%k, g/k, g, err)
		}
		var bits uint64
		for i, v := range sr.Inits { // Validate has vetted them: each 0 or 1
			bits |= uint64(v) << uint(i)
		}
		stats[g] = engine.Stats(sr.Stats)
		runs[g] = Run{pat, &stats[g], bits}
		if weights != nil {
			weights[g] = idx.Mults[g/k]
		}
	}

	// The shard-merge producer: global run g's key is its shard's key for
	// its shard-local class, so (shard, local class) is the memo code; its
	// action is its stripe's record.
	sys := &System{N: n, T: ref.T, Horizon: horizon, Runs: runs, weights: weights, par: o.par}
	return sys.indexed(ctx, &indexFrame{}, func(slot int) slotRows {
		stride := 0
		for _, idx := range byShard {
			stride = max(stride, len(idx.ClassKeys[slot]))
		}
		return slotRows{
			n:     total,
			codes: k * stride,
			code: func(g int) int {
				return (g%k)*stride + int(byShard[g%k].ClassOf[slot][g/k])
			},
			key: func(dst []byte, g int) ([]byte, error) {
				idx := byShard[g%k]
				return append(dst, idx.ClassKeys[slot][idx.ClassOf[slot][g/k]]...), nil
			},
			act: func(g int) model.Action { return model.Action(byShard[g%k].Runs[g/k].Actions[slot/n][slot%n]) },
		}
	})
}
