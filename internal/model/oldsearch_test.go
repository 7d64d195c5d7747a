package model

import "bytes"

// The canonicalization search as it stood before Canonicalizer replaced
// it: one full f!·(n−f)! search per scenario over (drops, inits) keys.
// Kept verbatim as the reference the differential tests compare against —
// same representative, same orbit, same first-in-search-order permutation.

func oldCanonicalizeScenarioPerm(p *Pattern, inits []Value) (*Pattern, []Value, int64, []AgentID) {
	s := newCanonSearch(p, inits)
	s.run()
	return p.Permute(s.best), PermuteValues(inits, s.best), s.orbit(), s.best
}

func oldIsCanonicalScenario(p *Pattern, inits []Value) (int64, bool) {
	s := newCanonSearch(p, inits)
	s.run()
	return s.orbit(), s.isIdentityMin()
}

// canonSearch enumerates the split-respecting permutations of one
// scenario and tracks the minimal permuted key.
type canonSearch struct {
	p     *Pattern
	inits []Value
	n     int

	// slots[k] lists the old agents that may occupy new index k's block:
	// nonfaulty agents fill indices 0..n-f-1, faulty agents the rest.
	nonfaulty []AgentID
	faulty    []AgentID

	// inv[a] is the old agent at new index a for the candidate under
	// construction; perm is its inverse (old → new).
	inv  []AgentID
	perm []AgentID

	// cur and min hold candidate key bytes: the drop bitmap in new-index
	// order followed by the permuted inits. The faulty bitmap is omitted —
	// every candidate shares it.
	cur []byte
	min []byte

	best     []AgentID // first permutation achieving min
	minCount int64     // permutations achieving min = stabilizer order
}

func newCanonSearch(p *Pattern, inits []Value) *canonSearch {
	if len(inits) != p.n {
		panic("model: CanonicalizeScenario inits length does not match pattern")
	}
	s := &canonSearch{
		p:         p,
		inits:     inits,
		n:         p.n,
		nonfaulty: p.NonfaultySet(),
		faulty:    p.FaultySet(),
		inv:       make([]AgentID, p.n),
		perm:      make([]AgentID, p.n),
		cur:       make([]byte, len(p.drops)+p.n),
		min:       nil,
	}
	return s
}

// run enumerates every assignment of nonfaulty agents to the low block
// and faulty agents to the high block, evaluating each candidate key.
func (s *canonSearch) run() {
	s.permuteBlock(s.nonfaulty, 0, func() {
		s.permuteBlock(s.faulty, len(s.nonfaulty), func() {
			s.evaluate()
		})
	})
}

// permuteBlock assigns every ordering of agents to new indices base,
// base+1, ... via Heap-style recursion on a scratch copy.
func (s *canonSearch) permuteBlock(agents []AgentID, base int, done func()) {
	var rec func(k int)
	rec = func(k int) {
		if k == len(agents) {
			done()
			return
		}
		for i := k; i < len(agents); i++ {
			agents[k], agents[i] = agents[i], agents[k]
			s.inv[base+k] = agents[k]
			rec(k + 1)
			agents[k], agents[i] = agents[i], agents[k]
		}
	}
	rec(0)
}

// evaluate renders the candidate key for the current inv assignment and
// folds it into the running minimum.
func (s *canonSearch) evaluate() {
	p, n := s.p, s.n
	buf := s.cur
	w := 0
	for m := 0; m < p.horizon; m++ {
		mBase := m * n * n
		for a := 0; a < n; a++ {
			row := mBase + int(s.inv[a])*n
			for b := 0; b < n; b++ {
				buf[w] = boolByte(p.drops[row+int(s.inv[b])])
				w++
			}
		}
	}
	for a := 0; a < n; a++ {
		buf[w] = valueByte(s.inits[s.inv[a]])
		w++
	}
	switch {
	case s.min == nil || bytes.Compare(buf, s.min) < 0:
		if s.min == nil {
			s.min = make([]byte, len(buf))
		}
		copy(s.min, buf)
		s.minCount = 1
		s.best = s.currentPerm()
	case bytes.Equal(buf, s.min):
		s.minCount++
	}
}

// currentPerm snapshots the old→new permutation for the current inv.
func (s *canonSearch) currentPerm() []AgentID {
	perm := make([]AgentID, s.n)
	for a := 0; a < s.n; a++ {
		perm[s.inv[a]] = AgentID(a)
	}
	return perm
}

// orbit returns n!/|stabilizer|; the candidates achieving the minimum
// are exactly one coset of the scenario's stabilizer.
func (s *canonSearch) orbit() int64 {
	return Factorial(s.n) / s.minCount
}

// isIdentityMin reports whether the identity permutation attains the
// minimal key — i.e. the scenario is already canonical. The identity is
// split-respecting only when the faulty agents already occupy the top
// index block.
func (s *canonSearch) isIdentityMin() bool {
	f := len(s.faulty)
	for k, a := range s.faulty {
		if int(a) != s.n-f+k {
			return false
		}
	}
	p, n := s.p, s.n
	w := 0
	for m := 0; m < p.horizon; m++ {
		mBase := m * n * n
		for a := 0; a < n; a++ {
			row := mBase + a*n
			for b := 0; b < n; b++ {
				if s.min[w] != boolByte(p.drops[row+b]) {
					return false
				}
				w++
			}
		}
	}
	for a := 0; a < n; a++ {
		if s.min[w] != valueByte(s.inits[a]) {
			return false
		}
		w++
	}
	return true
}
