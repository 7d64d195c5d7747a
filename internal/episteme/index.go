// Index construction: the one place class ids and actions are assigned.
//
// Three constructions produce a System — the direct build (system.go),
// the shard merge (shard.go) and the quotient expansion (quotient.go) —
// and all three must yield the same tables for the same sweep. They do
// because none of them assigns an id: each only says, per slot, what run
// g's local-state key is and, before the horizon, what g does there
// (slotRows), and indexed numbers the classes by first appearance in
// ascending run order into the System's frame, an indexFrame, which alone
// knows how its rows are laid out, and labels each class with its action.
// Keys (model.State.AppendKey) and run order are functions of the sweep
// alone, so the tables are — whichever producer supplied the rows and
// however many workers interned them. docs/architecture.md, "Index
// construction: one kernel, three producers".

package episteme

import (
	"bytes"
	"cmp"
	"context"
	"fmt"
	"hash/maphash"
	"math"
	"math/bits"
	"slices"
	"sync"

	"repro/internal/model"
)

// frame is the Kripke frame the checkers read, and all they read of the
// index: at each time the points grouped into rows, and per (time, agent)
// slot the classes of rows that carry one local state. The runs of a row
// share every agent's local state at that time, their actions (labels) and
// their faulty set, so a predicate that reads only those — a row function — may
// be asked once per row, at its first run. A time's rows ascend with
// their first runs. How rows are laid out is the implementation's
// business: indexFrame's are prefix units before the horizon of an
// expanded system and runs everywhere else. Safe for concurrent use.
type frame interface {
	layout(m int) *layout      // how the time-m rows group the runs; do not mutate
	faulty(m int) []uint64     // each time-m row's faulty set, a mask over agents
	classes(slot int) classIDs // slot m*N+i's class id of each time-m row
	members(slot int) members  // the slot's member lists: class c's rows, ascending
	keys(slot int) classKeys   // the local-state key of each of the slot's classes
}

// layout is how one time's n rows group a system's runs: with prefix nil
// a row is a run. Otherwise the rows are an expanded system's prefix units
// (indexFrame, "Rows"). Its sweep is pattern-major over all 2^shift
// initial vectors, so run g is pattern g>>shift at vector g mod 2^shift;
// prefix[p] is pattern p's prefix ordinal by first appearance, pats.of(q)
// prefix q's patterns, ascending, and unit q·2^shift + v holds q's
// patterns' runs at vector v, firsts[u] the first. No table is per run,
// and no read allocates. masks, each row's faulty set, is made on first
// use (the C_N walk reads it per edge, where a Pattern is a pointer chase).
type layout struct {
	n      int
	prefix []int32
	pats   members
	firsts []int32
	shift  uint
	once   sync.Once
	masks  []uint64
}

// row returns run's row.
func (l *layout) row(run int) int {
	if l.prefix == nil {
		return run
	}
	return int(l.prefix[run>>l.shift])<<l.shift | run&(1<<l.shift-1)
}

// first returns row's lowest run.
func (l *layout) first(row int) int {
	if l.prefix == nil {
		return row
	}
	return int(l.firsts[row])
}

// each calls yield on row's runs in ascending order until it returns
// false, and reports whether it never did.
func (l *layout) each(row int, yield func(run int) bool) bool {
	if l.prefix == nil {
		return yield(row)
	}
	for _, p := range l.pats.of(int32(row >> l.shift)) {
		if !yield(int(p)<<l.shift | row&(1<<l.shift-1)) {
			return false
		}
	}
	return true
}

// indexFrame is the frame every construction builds: the interned index
// over the layout below, the one place that layout is known.
type indexFrame struct {
	sys *System // whose runs the rows group

	// Rows. Before the horizon of a time-layered system (units non-nil;
	// only ExpandQuotient builds one) a row is a prefix unit: the
	// runs sharing their initial vector, faulty set and every drop before
	// the last round, and so every local state before the horizon and
	// every action. Everywhere else a row is a run (perRun).
	// docs/architecture.md, "Time-layered expansion: prefix units".
	units  *layout
	perRun layout

	// Interned local-state index, one slotIndex per slot = m*N + i. Class
	// ids are by first appearance in run order either way: a class's first
	// run is always its unit's first run. The time-Horizon slots are empty
	// until lastLayer interns them from the producer's lastRows.
	slots    []slotIndex
	lastOnce sync.Once
	lastRows func(slot int) slotRows
}

// slotIndex is one slot's tables: ids.at(row) is the row's class id,
// keys.at(c) class c's local-state key, and lists.of(c) the rows of class
// c, ascending — made on first read (members), since safety and the folds
// read ids only.
type slotIndex struct {
	ids   classIDs
	keys  classKeys
	once  sync.Once
	lists members
}

// classKeys is one slot's class keys in one exact-sized slab: class c's key
// is slab[off[c]:off[c+1]], with no string or slice header per class.
type classKeys struct {
	slab []byte
	off  []int32
}

// len returns the number of classes.
func (k classKeys) len() int { return max(len(k.off)-1, 0) }

// at returns class c's key. The slice is shared; do not mutate.
func (k classKeys) at(c int32) []byte { return k.slab[k.off[c]:k.off[c+1]:k.off[c+1]] }

func (x *indexFrame) layout(m int) *layout {
	if x.units != nil && m < x.sys.Horizon {
		return x.units
	}
	return &x.perRun
}

func (x *indexFrame) faulty(m int) []uint64 {
	l := x.layout(m)
	l.once.Do(func() {
		l.masks = make([]uint64, l.n)
		for row := range l.masks {
			pat := x.sys.Runs[l.first(row)].Pattern
			for i := 0; i < x.sys.N; i++ {
				if pat.Faulty(model.AgentID(i)) {
					l.masks[row] |= 1 << uint(i)
				}
			}
		}
	})
	return l.masks
}

func (x *indexFrame) classes(slot int) classIDs { return x.read(slot).ids }
func (x *indexFrame) keys(slot int) classKeys   { return x.read(slot).keys }

func (x *indexFrame) members(slot int) members {
	t := x.read(slot)
	t.once.Do(func() {
		sc := internScratch.Get().(*scratch)
		sc.ids = t.ids.unpack(sc.ids)
		t.lists = packMembers(sc.ids, t.keys.len())
		internScratch.Put(sc)
	})
	return t.lists
}

// read returns slot's tables, interned: a time-Horizon slot is read
// through lastLayer.
func (x *indexFrame) read(slot int) *slotIndex {
	if slot >= x.sys.Horizon*x.sys.N {
		x.lastLayer()
	}
	return &x.slots[slot]
}

// slotRows is a producer's account of one slot: it has n rows, key(dst,
// g) appends row g's local-state key there to dst, and in a slot before
// the horizon act(g) is what row g's agent does there. A row is a run,
// except in the slots before the horizon of a time-layered system, where
// it is a prefix unit (indexFrame, "Rows") — the kernel is told a count
// and never looks. A producer that can tell cheaply that two rows carry
// the same key says so with a memo code — code(g) in [0, codes), equal
// codes implying equal keys — and the kernel asks key once per distinct
// code instead of once per row.
type slotRows struct {
	n     int
	codes int
	code  func(g int) int
	key   func(dst []byte, g int) ([]byte, error)
	act   func(g int) model.Action
}

// labels is the action protocol over the frame — the system's
// labelling — and all the checkers read of what the agents do: act(i, m,
// run) is agent i's action at (run, m) for m before the horizon, and
// decided[rows.row(run)·n+i] agent i's first decide in the run with its
// round, the run's decision. Both are row functions. newLabels makes every
// construction's from the kernel's class labels, acts[slot][c].
type labels struct {
	n       int
	act     func(i model.AgentID, m, run int) model.Action
	acts    [][]model.Action
	rows    *layout
	decided []firstDecide
}

// firstDecide is an agent's decision in a run and its round, or (None, 0)
// if it never decides.
type firstDecide struct {
	v     model.Value
	round uint8
}

// by reports whether the agent decided v in a round ≤ r.
func (d firstDecide) by(v model.Value, r int) bool {
	return d.v == v && d.round != 0 && int(d.round) <= r
}

// in reports whether the agent decided v in round r.
func (d firstDecide) in(v model.Value, r int) bool { return d.v == v && int(d.round) == r }

// of returns run's decisions, one per agent.
func (lb *labels) of(run int) []firstDecide { return lb.ofRow(lb.rows, lb.rows.row(run)) }

// ofRow returns the decisions of row of layout l: a row of the labels' own
// layout indexes them, any other is read at its first run.
func (lb *labels) ofRow(l *layout, row int) []firstDecide {
	if l != lb.rows {
		row = lb.rows.row(l.first(row))
	}
	k := row * lb.n
	return lb.decided[k : k+lb.n : k+lb.n]
}

// newLabels labels s's frame with acts, each pre-horizon class's action,
// and reads every pre-horizon row's decisions off them: the first decide
// at a time before the horizon is the decision.
func newLabels(s *System, acts [][]model.Action) *labels {
	f, n := s.frame, s.N
	lb := &labels{n: n, acts: acts, rows: f.layout(0), act: func(i model.AgentID, m, run int) model.Action {
		slot := m*n + int(i)
		return acts[slot][f.classes(slot).at(f.layout(m).row(run))]
	}}
	lb.decided = make([]firstDecide, lb.rows.n*n)
	for k := range lb.decided {
		lb.decided[k].v = model.None
	}
	for slot := range s.Horizon * n {
		m, i := slot/n, slot%n
		f.classes(slot).each(func(row int, c int32) {
			d := &lb.decided[row*n+i]
			if v := acts[slot][c].Decision(); d.round == 0 && v.IsSet() {
				*d = firstDecide{v, uint8(m + 1)}
			}
		})
	}
	return lb
}

// indexed builds s's frame x and its labelling from the producer's rows
// and returns s, or no System at all when the build fails: every
// construction ends here. x carries the producer's units, if any. The
// slots of times before the horizon are interned and labelled now; the
// time-Horizon slots keep the producer's rows and are interned on first
// read (lastLayer), since Theorems 6.5, 6.6 and A.21's checks never read
// them. The error is the context's cancellation cause, or else the lowest
// failing slot's first key error or refusal — the same error at every
// worker count.
func (s *System) indexed(ctx context.Context, x *indexFrame, rows func(slot int) slotRows) (*System, error) {
	if s.Horizon > 255 {
		return nil, fmt.Errorf("episteme: a decision round is a byte, the horizon is %d", s.Horizon)
	}
	nSlots := (s.Horizon + 1) * s.N
	x.sys, x.perRun.n = s, len(s.Runs)
	x.slots = make([]slotIndex, nSlots)
	acts := make([][]model.Action, s.Horizon*s.N)
	if err := x.intern(ctx, 0, len(acts), rows, acts); err != nil {
		return nil, err
	}
	x.lastRows = rows
	s.frame = x
	s.labels = newLabels(s, acts)
	return s, nil
}

// lastLayer interns the time-Horizon slots once, as an eager build would
// have, and drops the producer's rows; every read of such a slot asks
// for it first, and none has a context to give. Only ExpandQuotient's keys
// can fail, and it vets them before it returns the System.
func (x *indexFrame) lastLayer() {
	x.lastOnce.Do(func() {
		if x.lastRows == nil {
			return // a frame assembled literally
		}
		if err := x.intern(context.Background(), x.sys.Horizon*x.sys.N, len(x.slots), x.lastRows, nil); err != nil {
			panic(err)
		}
		x.lastRows = nil
	})
}

// intern builds index slots [from, to), one worker per slot: class ids by
// first appearance in ascending row order through a dense first-sight
// table over the memo codes (seen[code] = class id + 1, so the key is
// asked for and hashed once per first-seen code). A worker numbers the
// rows into scratch it reuses from slot to slot (internScratch), and packs
// them when the slot's class count is known. Keys are looked up through an
// open-addressed table of class ids (scratch.find) that holds no key
// bytes: a class is its first row, whose key is asked for again to compare
// with one that hashes alike and, once the slot is numbered, to fill its
// exact-sized slab. There are no ids across slots: a key names its time
// (conformance convention 10), so a slot and a class there identify one
// agent's local state system-wide. When acts is non-nil, acts[slot]
// receives each class's action, the action of its first row, and a class
// whose rows act differently is refused: an action protocol is a function
// of the local state, so its key hides something the protocol reads.
func (x *indexFrame) intern(ctx context.Context, from, to int, rows func(slot int) slotRows, acts [][]model.Action) error {
	slotErr := make([]error, to-from)
	err := x.sys.parallel(ctx, to-from, func(k int) {
		sc := internScratch.Get().(*scratch)
		defer internScratch.Put(sc)
		slot := from + k
		p := rows(slot)
		var classAct []model.Action
		sc.ids, sc.seen = slices.Grow(sc.ids[:0], p.n)[:p.n], append(sc.seen[:0], make([]int32, p.codes)...)
		sc.firsts, sc.sums, sc.size = sc.firsts[:0], sc.sums[:0], 0
		sc.resize(16)
		for g := range sc.ids {
			cell := &sc.seen[p.code(g)]
			if *cell == 0 {
				cls, err := sc.find(&p, g)
				if err != nil {
					slotErr[k] = err
					return
				}
				*cell = cls + 1
			}
			cls := *cell - 1
			sc.ids[g] = cls
			if acts == nil {
				continue
			}
			if a := p.act(g); int(cls) == len(classAct) {
				classAct = append(classAct, a)
			} else if a != classAct[cls] {
				key, _ := p.key(nil, int(sc.firsts[cls])) // asked before, without error
				slotErr[k] = fmt.Errorf("episteme: agent %d's local state %q at time %d (class %d) acts %v in row %d and %v in an earlier row: the action is not a function of the key (a key that hides what the protocol reads, or an asymmetric stack)",
					slot%x.sys.N, key, slot/x.sys.N, cls, a, g, classAct[cls])
				return
			}
		}
		if sc.size > math.MaxInt32 {
			slotErr[k] = fmt.Errorf("episteme: agent %d's class keys at time %d pass 2 GiB", slot%x.sys.N, slot/x.sys.N)
			return
		}
		keys := classKeys{make([]byte, 0, sc.size), make([]int32, 1, len(sc.firsts)+1)}
		for _, g := range sc.firsts {
			keys.slab, _ = p.key(keys.slab, int(g)) // asked before, without error
			keys.off = append(keys.off, int32(len(keys.slab)))
		}
		x.slots[slot].ids, x.slots[slot].keys = packClassIDs(sc.ids, len(sc.firsts)), keys
		if acts != nil {
			acts[slot] = classAct
		}
	})
	return cmp.Or(err, cmp.Or(slotErr...))
}

// internScratch lends the kernel's workers their tables, from slot to
// slot and build to build; internSeed hashes keys for the key table, on
// which no class id depends.
var (
	internScratch = sync.Pool{New: func() any { return new(scratch) }}
	internSeed    = maphash.MakeSeed()
)

// scratch is one kernel worker's tables: ids numbers the rows, seen the
// memo codes. Class c of the slot so far opened at row firsts[c] with a
// key whose hash's low 32 bits are sums[c], and size is the classes' key
// bytes. table, a power of two at most half full, holds c+1 at the first
// free place from sums[c] on, 0 elsewhere; buf and cand hold the keys
// being compared.
type scratch struct {
	ids, seen, firsts, table []int32
	sums                     []uint32
	buf, cand                []byte
	size                     int
}

// find returns the class of row g's key: the class whose first row's key
// is those bytes, or else a new class that opens at g.
func (sc *scratch) find(p *slotRows, g int) (int32, error) {
	var err error
	if sc.buf, err = p.key(sc.buf[:0], g); err != nil {
		return 0, err
	}
	h, mask := uint32(maphash.Bytes(internSeed, sc.buf)), uint32(len(sc.table)-1)
	i := h & mask
	for ; sc.table[i] != 0; i = (i + 1) & mask {
		if c := sc.table[i] - 1; sc.sums[c] == h {
			if sc.cand, err = p.key(sc.cand[:0], int(sc.firsts[c])); err != nil || bytes.Equal(sc.cand, sc.buf) {
				return c, err
			}
		}
	}
	c := int32(len(sc.firsts))
	sc.table[i], sc.firsts, sc.sums, sc.size = c+1, append(sc.firsts, int32(g)), append(sc.sums, h), sc.size+len(sc.buf)
	if 2*len(sc.firsts) > len(sc.table) {
		sc.resize(2 * len(sc.table))
	}
	return c, nil
}

// resize empties the key table at size places, reusing its storage, and
// enters every class again.
func (sc *scratch) resize(size int) {
	sc.table = append(sc.table[:0], make([]int32, size)...)
	mask := uint32(size - 1)
	for c, h := range sc.sums {
		i := h & mask
		for sc.table[i] != 0 {
			i = (i + 1) & mask
		}
		sc.table[i] = int32(c) + 1
	}
}

// classIDs is one slot's class id of each of its n rows, packed at the
// width its class count needs, ⌈log₂ classes⌉ bits, into words: row r's
// id is bits [r·width, (r+1)·width) of the table, low bits first, and may
// straddle two words. A word past the last lets at read two words
// without a branch; one class packs to width 0.
type classIDs struct {
	words       []uint64
	width, mask uint64
	n           int
}

// packClassIDs packs ids, each below classes.
func packClassIDs(ids []int32, classes int) classIDs {
	width := uint64(bits.Len(uint(max(classes, 1) - 1)))
	c := classIDs{make([]uint64, uint64(len(ids))*width/64+2), width, 1<<width - 1, len(ids)}
	var word, bit uint64 // the word being filled, and the next id's first bit
	for _, id := range ids {
		if word |= uint64(id) << (bit % 64); bit%64+width >= 64 { // full: id's high bits open the next
			c.words[bit/64], word = word, uint64(id)>>1>>(^bit%64)
		}
		bit += width
	}
	c.words[bit/64] = word
	return c
}

// at returns row's class id.
func (c classIDs) at(row int) int32 {
	bit := uint64(row) * c.width
	hi := c.words[bit/64+1] // the id's high bits, if it straddles
	return int32((c.words[bit/64]>>(bit%64) | hi<<1<<(^bit%64)) & c.mask)
}

// each calls fn with every row and its class id, in row order: at, with
// the bit offset stepped instead of multiplied.
func (c classIDs) each(fn func(row int, id int32)) {
	var bit uint64
	for row := range c.n {
		hi := c.words[bit/64+1]
		fn(row, int32((c.words[bit/64]>>(bit%64)|hi<<1<<(^bit%64))&c.mask))
		bit += c.width
	}
}

// unpack returns the ids in dst's storage, grown as needed.
func (c classIDs) unpack(dst []int32) []int32 {
	dst = slices.Grow(dst[:0], c.n)[:c.n]
	c.each(func(r int, id int32) { dst[r] = id })
	return dst
}

// members is a table of member lists in compressed sparse rows: list c
// is rows[off[c]:off[c+1]], with no slice header per list.
type members struct {
	rows, off []int32
}

// of returns list c. The slice is shared; do not mutate.
func (ms members) of(c int32) []int32 { return ms.rows[ms.off[c]:ms.off[c+1]] }

// packMembers lists the rows of each of nClasses classes: a counting pass
// finds where each list ends, and a fill pass from the last row down steps
// each list's offset back to its start, so the lists come out ascending.
func packMembers(classOf []int32, nClasses int) members {
	ms := members{rows: make([]int32, len(classOf)), off: make([]int32, nClasses+1)}
	for _, c := range classOf {
		ms.off[c]++
	}
	for c := 1; c <= nClasses; c++ {
		ms.off[c] += ms.off[c-1]
	}
	for r := len(classOf) - 1; r >= 0; r-- {
		c := classOf[r]
		ms.off[c]--
		ms.rows[ms.off[c]] = int32(r)
	}
	return ms
}
