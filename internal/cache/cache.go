// Package cache is the persistent content-addressed result cache: keys
// name a (stack version digest, payload kind, scenario digest) triple and
// values are the digested payloads the sweep and checker layers already
// serialize (outcome ledgers, interned class rows). The cache makes
// re-verification incremental — a re-run after a protocol tweak executes
// only the scenarios whose inputs changed; everything else is read and
// verified, never recomputed.
//
// The on-disk layout of a cache directory is
//
//	seg-000001.seg    sealed append-only segments (see segment.go)
//	seg-000002.tmp    an unsealed segment a live writer is appending to
//	index.json        the entry index over the sealed segments
//	*.rejected        quarantined torn or corrupt files
//	LOCK              flock(2)ed by the one open Cache of the directory
//
// Without flock(2) — on Windows, say — Open takes no lock (lock_other.go).
// Writers append to a .tmp segment and seal it — fsync, rename — only on
// Close, so a crash leaves a temp file the next Open quarantines (the
// same discipline as the fabric coordinator's spool). Open trusts the
// index only when it exactly describes the sealed segments on disk;
// otherwise it rescans them, verifying every record digest and setting
// torn segments aside as .rejected. Reads of sealed entries go through
// ReadAt on the open segment and verify the record digest on every Get —
// a corrupted entry is dropped and reported as a miss (forcing
// recomputation), never served.
//
// Verification is against corruption, not against an adversary with
// write access to the directory: keys address inputs, so a consistently
// rewritten (value, digest) pair is indistinguishable from a genuine
// entry. Treat the cache directory with the trust you would give the
// build tree.
package cache

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"

	"repro/internal/wire"
)

// Stats is a point-in-time snapshot of a cache's traffic counters.
type Stats struct {
	// Hits and Misses count Get probes; Puts counts stored entries.
	Hits   int64 `json:"hits"`
	Misses int64 `json:"misses"`
	Puts   int64 `json:"puts"`
	// Rejects counts entries that failed digest verification on read and
	// were dropped instead of served.
	Rejects int64 `json:"rejects,omitempty"`
	// BytesServed and BytesWritten total the payload bytes of hits and
	// puts.
	BytesServed  int64 `json:"bytesServed"`
	BytesWritten int64 `json:"bytesWritten"`
}

// Add returns the fieldwise sum of two snapshots.
func (s Stats) Add(o Stats) Stats {
	return Stats{
		Hits:         s.Hits + o.Hits,
		Misses:       s.Misses + o.Misses,
		Puts:         s.Puts + o.Puts,
		Rejects:      s.Rejects + o.Rejects,
		BytesServed:  s.BytesServed + o.BytesServed,
		BytesWritten: s.BytesWritten + o.BytesWritten,
	}
}

// Key assembles the canonical cache key of a payload: the stack version
// digest, the payload kind ("run" for sweep outcomes, "idx" for the
// checker's stripe indexes), and the scenario (for "idx", stripe) digest,
// slash-joined.
func Key(versionDigest, kind, scenarioDigest string) string {
	return versionDigest + "/" + kind + "/" + scenarioDigest
}

// counters is the atomic backing of Stats.
type counters struct {
	hits, misses, puts, rejects atomic.Int64
	bytesServed, bytesWritten   atomic.Int64
}

func (c *counters) snapshot() Stats {
	return Stats{
		Hits:         c.hits.Load(),
		Misses:       c.misses.Load(),
		Puts:         c.puts.Load(),
		Rejects:      c.rejects.Load(),
		BytesServed:  c.bytesServed.Load(),
		BytesWritten: c.bytesWritten.Load(),
	}
}

// entryLoc locates a sealed entry: segment (index into Cache.segs),
// value offset, length, and the stored digest.
type entryLoc struct {
	seg  int
	off  int64
	vlen int
	sum  [sha256.Size]byte
}

// memEntry is an entry in the open (unsealed) segment, served from
// memory until Close seals it.
type memEntry struct {
	val []byte
	sum [sha256.Size]byte
}

// segFile is one sealed segment opened for reading.
type segFile struct {
	name string // file name within the cache directory
	seq  int
	size int64
	f    *os.File
}

// Cache is the on-disk store. Get and Put are safe for concurrent use;
// Close seals the write segment and rewrites the index. One process per
// cache directory: an open Cache holds its lock until Close and a second
// Open fails, because Open quarantines every .tmp segment as a dead
// writer's. Processes may share a directory one after another (CI's warm
// runs).
type Cache struct {
	dir  string
	lock *os.File // LOCK, flocked for the life of the Cache

	mu      sync.RWMutex
	closed  bool
	entries map[string]entryLoc
	segs    []*segFile
	mem     map[string]memEntry
	w       *segWriter
	nextSeq int

	stats counters
}

const indexName = "index.json"

// indexFile is the JSON index over the sealed segments (appendIndex
// writes it, parseIndex reads it): which segments
// (by name and exact size) the entries live in. An index that does not
// exactly describe the directory is discarded and rebuilt by rescan.
type indexFile struct {
	Version  int        `json:"v"`
	Segments []indexSeg `json:"segments"`
	Entries  []indexEnt `json:"entries"`
}

type indexSeg struct {
	Name string `json:"name"`
	Size int64  `json:"size"`
}

type indexEnt struct {
	Key string `json:"key"`
	Seg int    `json:"seg"`
	Off int64  `json:"off"`
	Len int    `json:"len"`
	Sum string `json:"sum"`
}

// appendIndex appends idx's document: exactly what json.Marshal writes
// for it, and the only spelling parseIndex accepts.
func appendIndex(dst []byte, idx *indexFile) []byte {
	dst = append(dst, `{"v":`...)
	dst = strconv.AppendInt(dst, int64(idx.Version), 10)
	dst = append(dst, `,"segments":`...)
	dst = wire.AppendList(dst, idx.Segments, func(dst []byte, s *indexSeg) []byte {
		dst = append(dst, `{"name":`...)
		dst = wire.AppendString(dst, s.Name)
		dst = append(dst, `,"size":`...)
		dst = strconv.AppendInt(dst, s.Size, 10)
		return append(dst, '}')
	})
	dst = append(dst, `,"entries":`...)
	dst = wire.AppendList(dst, idx.Entries, func(dst []byte, e *indexEnt) []byte {
		dst = append(dst, `{"key":`...)
		dst = wire.AppendString(dst, e.Key)
		dst = append(dst, `,"seg":`...)
		dst = strconv.AppendInt(dst, int64(e.Seg), 10)
		dst = append(dst, `,"off":`...)
		dst = strconv.AppendInt(dst, e.Off, 10)
		dst = append(dst, `,"len":`...)
		dst = strconv.AppendInt(dst, int64(e.Len), 10)
		dst = append(dst, `,"sum":`...)
		dst = wire.AppendString(dst, e.Sum)
		return append(dst, '}')
	})
	return append(dst, '}')
}

// parseIndex decodes an index document, accepting only appendIndex's
// spelling of what it holds.
func parseIndex(data []byte) (*indexFile, bool) {
	p := wire.Parser{Rest: data}
	idx := new(indexFile)
	p.Lit(`{"v":`)
	idx.Version = int(p.Int64())
	p.Lit(`,"segments":`)
	idx.Segments = []indexSeg{}
	if !p.Elems(func() {
		var s indexSeg
		p.Lit(`{"name":`)
		s.Name = string(p.Str())
		p.Lit(`,"size":`)
		s.Size = p.Int64()
		p.Lit("}")
		idx.Segments = append(idx.Segments, s)
	}) {
		idx.Segments = nil
	}
	p.Lit(`,"entries":`)
	idx.Entries = make([]indexEnt, 0, bytes.Count(p.Rest, []byte(`{"key":`)))
	if !p.Elems(func() {
		var e indexEnt
		p.Lit(`{"key":`)
		e.Key = string(p.Str())
		p.Lit(`,"seg":`)
		e.Seg = int(p.Int64())
		p.Lit(`,"off":`)
		e.Off = p.Int64()
		p.Lit(`,"len":`)
		e.Len = int(p.Int64())
		p.Lit(`,"sum":`)
		e.Sum = string(p.Str())
		p.Lit("}")
		idx.Entries = append(idx.Entries, e)
	}) {
		idx.Entries = nil
	}
	p.Lit("}")
	if p.Bad || len(p.Rest) != 0 {
		return nil, false
	}
	return idx, bytes.Equal(appendIndex(make([]byte, 0, len(data)), idx), data)
}

// Open opens (creating if needed) the cache directory: takes its lock or
// fails when another Cache holds it, quarantines leftover temp files, loads the index when it exactly matches the
// sealed segments on disk, and otherwise rescans them with full record
// verification, setting torn segments aside as .rejected.
func Open(dir string) (c *Cache, err error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("cache: creating %s: %w", dir, err)
	}
	lock, err := os.OpenFile(filepath.Join(dir, "LOCK"), os.O_CREATE|os.O_RDWR, 0o644)
	if err != nil {
		return nil, fmt.Errorf("cache: locking %s: %w", dir, err)
	}
	defer func() {
		if err != nil {
			lock.Close()
		}
	}()
	// Exclusive, non-blocking, and the file's: closing it, or the process
	// dying, frees the directory.
	if err := lockDir(lock.Fd()); err != nil {
		return nil, fmt.Errorf("cache: %s is held by another open Cache (one process per cache directory): %w", dir, err)
	}
	listing, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("cache: reading %s: %w", dir, err)
	}
	c = &Cache{
		dir:     dir,
		lock:    lock,
		entries: make(map[string]entryLoc),
		mem:     make(map[string]memEntry),
		nextSeq: 1,
	}
	var segNames []string
	for _, ent := range listing {
		name := ent.Name()
		switch {
		case strings.HasSuffix(name, ".tmp"):
			// A writer died mid-segment. The segment was never sealed, so
			// nothing in it was ever promised; set it aside like the
			// coordinator's torn stripes.
			if err := os.Rename(filepath.Join(dir, name), filepath.Join(dir, name+".rejected")); err != nil {
				return nil, fmt.Errorf("cache: quarantining %s: %w", name, err)
			}
		case strings.HasPrefix(name, "seg-") && strings.HasSuffix(name, ".seg"):
			segNames = append(segNames, name)
			if seq := segSeq(name); seq >= c.nextSeq {
				c.nextSeq = seq + 1
			}
		}
	}
	sort.Strings(segNames)
	if !c.loadIndex(segNames) {
		if err := c.rescan(segNames); err != nil {
			return nil, err
		}
	}
	return c, nil
}

// Dir returns the cache directory.
func (c *Cache) Dir() string { return c.dir }

// segSeq parses the sequence number out of "seg-%06d.seg" (0 when the
// name does not parse — such a segment still loads, it just never
// collides with generated names).
func segSeq(name string) int {
	var seq int
	if _, err := fmt.Sscanf(name, "seg-%d.seg", &seq); err != nil {
		return 0
	}
	return seq
}

// loadIndex loads index.json when it exactly describes the sealed
// segments on disk (same names in the same order, same sizes). Entries
// are trusted structurally only — every Get re-verifies its record
// digest — so a stale or corrupt index costs a rescan, never a wrong
// payload.
func (c *Cache) loadIndex(segNames []string) bool {
	data, err := os.ReadFile(filepath.Join(c.dir, indexName))
	if err != nil {
		return false
	}
	idx, ok := parseIndex(data)
	if !ok || idx.Version != 1 {
		return false
	}
	if len(idx.Segments) != len(segNames) {
		return false
	}
	for i, s := range idx.Segments {
		if s.Name != segNames[i] {
			return false
		}
		fi, err := os.Stat(filepath.Join(c.dir, s.Name))
		if err != nil || fi.Size() != s.Size {
			return false
		}
	}
	segs := make([]*segFile, len(idx.Segments))
	for i, s := range idx.Segments {
		sf, err := openSeg(c.dir, s.Name, s.Size)
		if err != nil {
			closeSegs(segs[:i])
			return false
		}
		segs[i] = sf
	}
	entries := make(map[string]entryLoc, len(idx.Entries))
	for _, e := range idx.Entries {
		sum, err := hex.DecodeString(e.Sum)
		if err != nil || len(sum) != sha256.Size || e.Seg < 0 || e.Seg >= len(segs) ||
			e.Off < 0 || e.Len < 0 || e.Off+int64(e.Len) > segs[e.Seg].size {
			closeSegs(segs)
			return false
		}
		loc := entryLoc{seg: e.Seg, off: e.Off, vlen: e.Len}
		copy(loc.sum[:], sum)
		entries[e.Key] = loc
	}
	c.segs = segs
	c.entries = entries
	return true
}

// rescan rebuilds the entry map from the sealed segments themselves,
// verifying every record digest; a segment that fails anywhere is
// quarantined whole and its entries dropped (they will be recomputed).
// Later segments override earlier ones, preserving append order.
func (c *Cache) rescan(segNames []string) error {
	for _, name := range segNames {
		path := filepath.Join(c.dir, name)
		fi, err := os.Stat(path)
		if err != nil {
			return fmt.Errorf("cache: reading %s: %w", name, err)
		}
		sf, err := openSeg(c.dir, name, fi.Size())
		if err != nil {
			return fmt.Errorf("cache: opening %s: %w", name, err)
		}
		recs, serr := sf.scan()
		if serr != nil {
			sf.close()
			if err := os.Rename(path, path+".rejected"); err != nil {
				return fmt.Errorf("cache: quarantining %s: %w", name, err)
			}
			continue
		}
		segIdx := len(c.segs)
		c.segs = append(c.segs, sf)
		for _, r := range recs {
			c.entries[r.key] = entryLoc{seg: segIdx, off: r.off, vlen: r.vlen, sum: r.sum}
		}
	}
	// Persist the rebuilt index so the next Open skips the rescan; a
	// failed write only costs that next Open another scan.
	c.writeIndexLocked(nil)
	return nil
}

// openSeg opens one sealed segment for reading; the handle stays open
// for ReadAt.
func openSeg(dir, name string, size int64) (*segFile, error) {
	f, err := os.Open(filepath.Join(dir, name))
	if err != nil {
		return nil, err
	}
	return &segFile{name: name, seq: segSeq(name), size: size, f: f}, nil
}

// scan reads the whole segment and parses its records.
func (s *segFile) scan() ([]segRecord, error) {
	img := make([]byte, s.size)
	if _, err := s.f.ReadAt(img, 0); err != nil {
		return nil, err
	}
	return scanSegment(img)
}

func (s *segFile) close() {
	if s.f != nil {
		s.f.Close()
		s.f = nil
	}
}

func closeSegs(segs []*segFile) {
	for _, s := range segs {
		if s != nil {
			s.close()
		}
	}
}

// Get returns the payload stored under key. Sealed entries are verified
// against their stored digest on every read; a failing entry is dropped
// and reported as a miss — the caller recomputes, the poisoned bytes are
// never served.
func (c *Cache) Get(key string) ([]byte, bool) {
	c.mu.RLock()
	if e, ok := c.mem[key]; ok {
		val := append([]byte(nil), e.val...)
		c.mu.RUnlock()
		c.stats.hits.Add(1)
		c.stats.bytesServed.Add(int64(len(val)))
		return val, true
	}
	loc, ok := c.entries[key]
	var val []byte
	var err error
	if ok {
		val, err = c.readLocked(loc, key)
	}
	c.mu.RUnlock()
	if !ok {
		c.stats.misses.Add(1)
		return nil, false
	}
	if err != nil {
		// Verification failed: drop the entry (if it has not been
		// replaced meanwhile) and miss.
		c.stats.rejects.Add(1)
		c.mu.Lock()
		if cur, still := c.entries[key]; still && cur == loc {
			delete(c.entries, key)
		}
		c.mu.Unlock()
		c.stats.misses.Add(1)
		return nil, false
	}
	c.stats.hits.Add(1)
	c.stats.bytesServed.Add(int64(len(val)))
	return val, true
}

// readLocked reads and digest-verifies one sealed entry (read lock held).
func (c *Cache) readLocked(loc entryLoc, key string) ([]byte, error) {
	val := make([]byte, loc.vlen)
	if _, err := c.segs[loc.seg].f.ReadAt(val, loc.off); err != nil {
		return nil, err
	}
	if recordSum(key, val) != loc.sum {
		return nil, errors.New("cache: entry fails digest verification")
	}
	return val, nil
}

// Put stores the payload under key, appending to the open write segment
// (created on first Put, sealed on Close). Re-storing a payload the
// cache already holds with an identical digest is a no-op.
func (c *Cache) Put(key string, val []byte) error {
	if key == "" || len(key) > maxKeyLen {
		return fmt.Errorf("cache: key of %d bytes (limit %d)", len(key), maxKeyLen)
	}
	if len(val) > maxValLen {
		return fmt.Errorf("cache: value of %d bytes (limit %d)", len(val), maxValLen)
	}
	sum := recordSum(key, val)
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed {
		return errors.New("cache: closed")
	}
	if e, ok := c.mem[key]; ok && e.sum == sum {
		return nil
	}
	if loc, ok := c.entries[key]; ok && loc.sum == sum {
		return nil
	}
	if c.w == nil {
		w, err := newSegWriter(c.dir, &c.nextSeq)
		if err != nil {
			return err
		}
		c.w = w
	}
	if err := c.w.append(key, val, sum); err != nil {
		return err
	}
	c.mem[key] = memEntry{val: append([]byte(nil), val...), sum: sum}
	c.stats.puts.Add(1)
	c.stats.bytesWritten.Add(int64(len(val)))
	return nil
}

// Stats snapshots the cache's traffic counters.
func (c *Cache) Stats() Stats { return c.stats.snapshot() }

// Len returns the number of distinct keys currently readable.
func (c *Cache) Len() int {
	c.mu.RLock()
	defer c.mu.RUnlock()
	n := len(c.entries)
	for key := range c.mem {
		if _, sealed := c.entries[key]; !sealed {
			n++
		}
	}
	return n
}

// Close seals the open write segment (flush, fsync, rename) and rewrites
// the index atomically. The cache is unusable afterwards.
func (c *Cache) Close() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed {
		return nil
	}
	c.closed = true
	var firstErr error
	if c.w != nil {
		sealed, err := c.w.seal()
		if err != nil {
			firstErr = err
		} else if sealed != nil {
			segIdx := len(c.segs)
			c.segs = append(c.segs, sealed)
			for _, r := range c.w.recs {
				c.entries[r.key] = entryLoc{seg: segIdx, off: r.off, vlen: r.vlen, sum: r.sum}
			}
		}
		c.w = nil
	}
	if err := c.writeIndexLocked(nil); err != nil && firstErr == nil {
		firstErr = err
	}
	closeSegs(c.segs)
	c.segs = nil
	c.entries = nil
	c.mem = nil
	c.lock.Close() // frees the directory; nothing was written through it
	return firstErr
}

// writeIndexLocked rewrites index.json atomically from the current
// sealed state (write lock held). keep, when non-nil, restricts the
// written entries (the GC path).
func (c *Cache) writeIndexLocked(keep map[string]bool) error {
	idx := indexFile{Version: 1}
	// size bounds the document from above, so its buffer is allocated once.
	size := 64
	for _, s := range c.segs {
		idx.Segments = append(idx.Segments, indexSeg{Name: s.name, Size: s.size})
		size += len(s.name) + 48
	}
	for key, loc := range c.entries {
		if keep != nil && !keep[key] {
			continue
		}
		size += len(key) + 2*len(loc.sum) + 64
		idx.Entries = append(idx.Entries, indexEnt{
			Key: key, Seg: loc.seg, Off: loc.off, Len: loc.vlen, Sum: hex.EncodeToString(loc.sum[:]),
		})
	}
	// Deterministic order: by location in the log (segment, then offset).
	sort.Slice(idx.Entries, func(a, b int) bool {
		if idx.Entries[a].Seg != idx.Entries[b].Seg {
			return idx.Entries[a].Seg < idx.Entries[b].Seg
		}
		return idx.Entries[a].Off < idx.Entries[b].Off
	})
	data := appendIndex(make([]byte, 0, size), &idx)
	tmp := filepath.Join(c.dir, indexName+".tmp")
	if err := os.WriteFile(tmp, data, 0o644); err != nil {
		return fmt.Errorf("cache: writing index: %w", err)
	}
	if err := os.Rename(tmp, filepath.Join(c.dir, indexName)); err != nil {
		return fmt.Errorf("cache: publishing index: %w", err)
	}
	return nil
}

// segWriter appends records to an unsealed .tmp segment.
type segWriter struct {
	f    *os.File
	tmp  string // the .tmp path
	name string // the sealed file name
	dir  string
	size int64
	recs []segRecord
	buf  []byte
}

// newSegWriter claims the next free segment sequence number with an
// O_EXCL create: a name some earlier file still holds is skipped, never
// overwritten.
func newSegWriter(dir string, nextSeq *int) (*segWriter, error) {
	for tries := 0; tries < 10000; tries++ {
		seq := *nextSeq
		*nextSeq = seq + 1
		name := fmt.Sprintf("seg-%06d.seg", seq)
		tmp := filepath.Join(dir, fmt.Sprintf("seg-%06d.tmp", seq))
		f, err := os.OpenFile(tmp, os.O_CREATE|os.O_EXCL|os.O_WRONLY, 0o644)
		if errors.Is(err, os.ErrExist) {
			continue
		}
		if err != nil {
			return nil, fmt.Errorf("cache: creating segment: %w", err)
		}
		w := &segWriter{f: f, tmp: tmp, name: name, dir: dir}
		if err := w.write([]byte(segMagic)); err != nil {
			f.Close()
			os.Remove(tmp)
			return nil, err
		}
		return w, nil
	}
	return nil, errors.New("cache: no free segment sequence number")
}

func (w *segWriter) write(b []byte) error {
	if _, err := w.f.Write(b); err != nil {
		return fmt.Errorf("cache: appending to segment: %w", err)
	}
	w.size += int64(len(b))
	return nil
}

func (w *segWriter) append(key string, val []byte, sum [sha256.Size]byte) error {
	w.buf = appendRecord(w.buf[:0], key, val, sum)
	voff := w.size + recHeadLen + int64(len(key))
	if err := w.write(w.buf); err != nil {
		return err
	}
	w.recs = append(w.recs, segRecord{key: key, off: voff, vlen: len(val), sum: sum})
	return nil
}

// seal fsyncs and renames the segment into place and reopens it for
// reading; an empty segment is removed and seal returns (nil, nil).
func (w *segWriter) seal() (*segFile, error) {
	if len(w.recs) == 0 {
		w.f.Close()
		os.Remove(w.tmp)
		return nil, nil
	}
	if err := w.f.Sync(); err != nil {
		w.f.Close()
		return nil, fmt.Errorf("cache: syncing segment: %w", err)
	}
	if err := w.f.Close(); err != nil {
		return nil, fmt.Errorf("cache: closing segment: %w", err)
	}
	final := filepath.Join(w.dir, w.name)
	if err := os.Rename(w.tmp, final); err != nil {
		return nil, fmt.Errorf("cache: sealing segment: %w", err)
	}
	return openSeg(w.dir, w.name, w.size)
}

// GCResult reports a completed GC pass.
type GCResult struct {
	// SegmentsBefore/After and BytesBefore/After measure the sealed
	// segment files.
	SegmentsBefore, SegmentsAfter int
	BytesBefore, BytesAfter       int64
	// Kept and Dropped count live entries written into the compacted
	// segment and entries evicted (over budget or failing verification).
	Kept, Dropped int
}

// GC compacts the cache: live entries (the latest record per key) are
// rewritten into one fresh segment, dead records, superseded segments,
// and quarantined .rejected files are deleted, and the index is
// rewritten. When maxBytes > 0, the oldest live entries are evicted
// until the projected payload fits the budget; entries failing digest
// verification are dropped. Call it on an otherwise idle cache — it is a
// maintenance verb (ebashard -cache-gc), not a concurrent fast path.
func (c *Cache) GC(maxBytes int64) (GCResult, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed {
		return GCResult{}, errors.New("cache: closed")
	}
	if c.w != nil || len(c.mem) > 0 {
		return GCResult{}, errors.New("cache: GC with an open write segment; close and reopen first")
	}
	var res GCResult
	res.SegmentsBefore = len(c.segs)
	for _, s := range c.segs {
		res.BytesBefore += s.size
	}

	// Live entries, oldest first (log order), so the budget evicts from
	// the front.
	type liveEnt struct {
		key string
		loc entryLoc
	}
	live := make([]liveEnt, 0, len(c.entries))
	for key, loc := range c.entries {
		live = append(live, liveEnt{key, loc})
	}
	sort.Slice(live, func(a, b int) bool {
		if live[a].loc.seg != live[b].loc.seg {
			return live[a].loc.seg < live[b].loc.seg
		}
		return live[a].loc.off < live[b].loc.off
	})
	if maxBytes > 0 {
		projected := int64(len(segMagic))
		sizes := make([]int64, len(live))
		for i, e := range live {
			sizes[i] = recHeadLen + int64(len(e.key)) + int64(e.loc.vlen) + sumLen
			projected += sizes[i]
		}
		drop := 0
		for drop < len(live) && projected > maxBytes {
			projected -= sizes[drop]
			drop++
		}
		res.Dropped += drop
		live = live[drop:]
	}

	// Read the survivors (verifying each) before touching any file.
	vals := make([][]byte, 0, len(live))
	kept := live[:0]
	for _, e := range live {
		val, err := c.readLocked(e.loc, e.key)
		if err != nil {
			c.stats.rejects.Add(1)
			res.Dropped++
			continue
		}
		vals = append(vals, val)
		kept = append(kept, e)
	}

	// Write the compacted segment, seal it, then drop the old files.
	var newSeg *segFile
	var newRecs []segRecord
	if len(kept) > 0 {
		w, err := newSegWriter(c.dir, &c.nextSeq)
		if err != nil {
			return GCResult{}, err
		}
		for i, e := range kept {
			if err := w.append(e.key, vals[i], e.loc.sum); err != nil {
				w.f.Close()
				os.Remove(w.tmp)
				return GCResult{}, err
			}
		}
		newSeg, err = w.seal()
		if err != nil {
			return GCResult{}, err
		}
		newRecs = w.recs
	}
	old := c.segs
	c.segs = nil
	c.entries = make(map[string]entryLoc, len(kept))
	if newSeg != nil {
		c.segs = []*segFile{newSeg}
		for _, r := range newRecs {
			c.entries[r.key] = entryLoc{seg: 0, off: r.off, vlen: r.vlen, sum: r.sum}
		}
		res.SegmentsAfter = 1
		res.BytesAfter = newSeg.size
	}
	res.Kept = len(kept)
	for _, s := range old {
		s.close()
		os.Remove(filepath.Join(c.dir, s.name))
	}
	listing, err := os.ReadDir(c.dir)
	if err == nil {
		for _, ent := range listing {
			if strings.HasSuffix(ent.Name(), ".rejected") {
				os.Remove(filepath.Join(c.dir, ent.Name()))
			}
		}
	}
	if err := c.writeIndexLocked(nil); err != nil {
		return res, err
	}
	return res, nil
}
