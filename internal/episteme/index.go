// Index construction: the one place class ids are assigned.
//
// Three constructions produce a System — the direct build (system.go),
// the shard merge (shard.go) and the quotient expansion (quotient.go) —
// and all three must yield the same tables for the same sweep. They do
// because none of them assigns an id: each only says, per slot, what run
// g's local-state key is (slotRows), and indexed numbers the classes
// by first appearance in ascending run order. Keys (model.State.Key) and
// run order are functions of the sweep alone, so the tables are —
// whichever producer supplied the rows and however many workers interned
// them. docs/architecture.md, "Index construction: one kernel, three
// producers".

package episteme

import "context"

// slotRows is a producer's account of one slot: it has n rows, and key(g)
// is row g's local-state key there. A row is a run, except in the slots
// before the horizon of a time-layered system, where it is a prefix unit
// (system.go, "Rows") — the kernel is told a count and never looks. A
// producer that can tell cheaply that two rows carry the same key says so
// with a memo code — code(g) in [0, codes), equal codes implying equal
// keys — and the kernel asks key once per distinct code instead of once
// per row.
type slotRows struct {
	n     int
	codes int
	code  func(g int) int
	key   func(g int) (string, error)
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
	s.classGlobal = make([][]int32, nSlots)
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
// class. The classes are then folded into the system-wide ids in slot
// order, replaying slots [0, from): a map sized once costs less than one
// kept and grown.
func (s *System) intern(ctx context.Context, from, to int, rows func(slot int) slotRows) error {
	slotErr := make([]error, to-from)
	err := s.parallel(ctx, to-from, func(k int) {
		slot := from + k
		p := rows(slot)
		// A producer's codes bound its keys from above; half of that is
		// where the late slots of a sweep land, and starting there spares
		// the map most of its doublings.
		byKey := make(map[string]int32, min(p.codes, p.n)/2)
		var classKey []string
		classOf := make([]int32, p.n)
		seen := make([]int32, p.codes)
		for g := range classOf {
			cell := &seen[p.code(g)]
			if *cell != 0 {
				classOf[g] = *cell - 1
				continue
			}
			key, err := p.key(g)
			if err != nil {
				slotErr[k] = err
				return
			}
			cls, known := byKey[key]
			if !known {
				cls = int32(len(classKey))
				byKey[key] = cls
				classKey = append(classKey, key)
			}
			*cell = cls + 1
			classOf[g] = cls
		}
		s.classOf[slot] = classOf
		s.classRuns[slot] = packMembers(classOf, len(classKey))
		s.classKey[slot] = classKey
	})
	if err != nil {
		return err
	}
	for _, e := range slotErr {
		if e != nil {
			return e
		}
	}
	classes := 0
	for _, keys := range s.classKey[:to] {
		classes += len(keys)
	}
	globalByKey := make(map[string]int32, classes)
	for slot, keys := range s.classKey[:to] {
		global := make([]int32, len(keys))
		for c, key := range keys {
			id, known := globalByKey[key]
			if !known {
				id = int32(len(globalByKey))
				globalByKey[key] = id
			}
			global[c] = id
		}
		if slot >= from {
			s.classGlobal[slot] = global
		}
	}
	return nil
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
