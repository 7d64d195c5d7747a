// Index construction: the one place class ids are assigned.
//
// Three constructions produce a System — the direct build (system.go),
// the shard merge (shard.go) and the quotient expansion (quotient.go) —
// and all three must yield the same tables for the same sweep. They do
// because none of them assigns an id: each only says, per slot, what run
// g's local-state key is (slotRows), and indexed numbers the classes
// by first appearance in ascending run order. Keys
// (model.State.AppendKey) and run order are functions of the sweep
// alone, so the tables are —
// whichever producer supplied the rows and however many workers interned
// them. docs/architecture.md, "Index construction: one kernel, three
// producers".

package episteme

import (
	"cmp"
	"context"
)

// slotRows is a producer's account of one slot: it has n rows, and
// key(dst, g) appends row g's local-state key there to dst. A row is a
// run, except in the slots before the horizon of a time-layered system,
// where it is a prefix unit (system.go, "Rows") — the kernel is told a
// count and never looks. A producer that can tell cheaply that two rows
// carry the same key says so with a memo code — code(g) in [0, codes),
// equal codes implying equal keys — and the kernel asks key once per
// distinct code instead of once per row. classes sizes the key map.
type slotRows struct {
	n       int
	codes   int
	classes int
	code    func(g int) int
	key     func(dst []byte, g int) ([]byte, error)
}

// indexed builds s's index from the producer's rows and returns s, or no
// System at all when the build fails: every construction ends here. The
// slots of times before the horizon are interned now; the time-Horizon
// slots keep the producer's rows and are interned on first read
// (lastLayer), since Theorems 6.5, 6.6 and A.21's checks never read them.
// The error is the context's cancellation cause, or else the lowest
// failing slot's first key error — the same error at every worker count.
func (s *System) indexed(ctx context.Context, rows func(slot int) slotRows) (*System, error) {
	nSlots := (s.Horizon + 1) * s.N
	s.classOf = make([][]int32, nSlots)
	s.classRuns = make([]members, nSlots)
	s.classKey = make([][]string, nSlots)
	if err := s.intern(ctx, 0, s.Horizon*s.N, rows); err != nil {
		return nil, err
	}
	s.lastRows = rows
	return s, nil
}

// lastLayer interns the time-Horizon slots once, as an eager build would
// have, and drops the producer's rows; every reader of such a slot asks
// for it first, and none has a context to give. Only ExpandQuotient's keys
// can fail, and it vets them before it returns the System.
func (s *System) lastLayer() {
	s.lastOnce.Do(func() {
		if s.lastRows == nil {
			return // a System assembled literally
		}
		if err := s.intern(context.Background(), s.Horizon*s.N, len(s.classOf), s.lastRows); err != nil {
			panic(err)
		}
		s.lastRows = nil
	})
}

// intern builds index slots [from, to), one worker per slot: class ids by
// first appearance in ascending row order through a dense first-sight
// table over the memo codes (seen[code] = class id + 1, so the key is
// asked for and hashed once per first-seen code), member lists packed per
// class. A worker's keys are written into one buffer and looked up there;
// a key becomes a string only when it opens a class. There are no ids
// across slots: a key names its time (conformance convention 10), so a
// slot and a class there identify one agent's local state system-wide.
func (s *System) intern(ctx context.Context, from, to int, rows func(slot int) slotRows) error {
	slotErr := make([]error, to-from)
	err := s.parallel(ctx, to-from, func(k int) {
		slot := from + k
		p := rows(slot)
		byKey := make(map[string]int32, p.classes)
		var classKey []string
		var buf []byte
		classOf := make([]int32, p.n)
		seen := make([]int32, p.codes)
		for g := range classOf {
			cell := &seen[p.code(g)]
			if *cell != 0 {
				classOf[g] = *cell - 1
				continue
			}
			var err error
			if buf, err = p.key(buf[:0], g); err != nil {
				slotErr[k] = err
				return
			}
			cls, known := byKey[string(buf)]
			if !known {
				cls = int32(len(classKey))
				classKey = append(classKey, string(buf))
				byKey[classKey[cls]] = cls
			}
			*cell = cls + 1
			classOf[g] = cls
		}
		s.classOf[slot], s.classKey[slot] = classOf, classKey
		if !s.Quotiented() { // nothing reads a representative system's member lists
			s.classRuns[slot] = packMembers(classOf, len(classKey))
		}
	})
	return cmp.Or(err, cmp.Or(slotErr...))
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
