package model

import (
	"bytes"
	"slices"
)

// This file implements the agent-permutation symmetry of the paper's
// failure models: the exchanges and action protocols treat agents
// uniformly, so relabeling agents maps runs to runs and preserves every
// verdict. Quotienting a sweep by this S_n action — executing one
// representative per orbit and weighting it by the orbit size — shrinks
// exhaustive sweeps by up to n!.
//
// The canonical representative of a scenario (pattern, inits) is the
// lexicographic minimum, over all agent permutations, of the pair
// (Pattern.Key(), inits). Because Pattern.Key() renders the faulty bitmap
// first and '0' < '1', the minimum places the faulty agents at the
// highest indices, so the search only needs the f!·(n−f)! permutations
// that map the faulty set onto the top index block.

// Permute returns the pattern relabeled by perm, where perm[i] is the new
// identity of old agent i: agent perm[i] of the result plays the role
// agent i played in p (it is faulty iff i was, and its message to perm[j]
// at time m is dropped iff i's message to j was). perm must be a
// permutation of 0..n-1; Permute panics otherwise.
func (p *Pattern) Permute(perm []AgentID) *Pattern {
	checkPerm(p.n, perm)
	q := NewPattern(p.n, p.horizon)
	for i := 0; i < p.n; i++ {
		q.faulty[perm[i]] = p.faulty[i]
	}
	for m := 0; m < p.horizon; m++ {
		for i := 0; i < p.n; i++ {
			for j := 0; j < p.n; j++ {
				if p.drops[p.idx(m, AgentID(i), AgentID(j))] {
					q.drops[q.idx(m, perm[i], perm[j])] = true
				}
			}
		}
	}
	return q
}

// checkPerm panics unless perm is a permutation of 0..n-1.
func checkPerm(n int, perm []AgentID) {
	if len(perm) != n {
		panic("model: permutation length does not match agent count")
	}
	var seen [64]bool
	big := n > len(seen)
	var seenBig map[AgentID]bool
	if big {
		seenBig = make(map[AgentID]bool, n)
	}
	for _, v := range perm {
		if int(v) < 0 || int(v) >= n {
			panic("model: permutation entry out of range")
		}
		if big {
			if seenBig[v] {
				panic("model: permutation entry repeated")
			}
			seenBig[v] = true
		} else {
			if seen[v] {
				panic("model: permutation entry repeated")
			}
			seen[v] = true
		}
	}
}

// PermuteValues returns the value vector relabeled by perm: the result's
// entry perm[i] is vals[i]. perm must be a permutation of 0..len(vals)-1;
// PermuteValues panics otherwise.
func PermuteValues(vals []Value, perm []AgentID) []Value {
	checkPerm(len(vals), perm)
	out := make([]Value, len(vals))
	for i, v := range vals {
		out[perm[i]] = v
	}
	return out
}

// CanonicalizeScenario returns the canonical representative of the
// scenario (p, inits) under agent permutation, together with the orbit
// size (the number of distinct scenarios obtained by permuting agents,
// including the scenario itself). The representative is the
// lexicographically minimal (Pattern.Key(), inits) pair over all n!
// permutations; two scenarios permute into each other iff they share a
// representative. len(inits) must equal p.N().
//
// The search cost is f!·(n−f)! candidate keys for f faulty agents — the
// only permutations that can reach the minimum are those mapping the
// faulty set onto the top index block. Callers canonicalizing many
// scenarios should hold a Canonicalizer, which pays that search once per
// pattern instead of once per scenario.
func CanonicalizeScenario(p *Pattern, inits []Value) (*Pattern, []Value, int64) {
	rep, repInits, orbit, _ := CanonicalizeScenarioPerm(p, inits)
	return rep, repInits, orbit
}

// CanonicalizeScenarioPerm is CanonicalizeScenario, additionally
// returning a permutation that carries (p, inits) onto the
// representative: rep = p.Permute(perm), repInits = PermuteValues(inits,
// perm). When several permutations reach the representative (the
// scenario has a non-trivial stabilizer) the returned one is the first in
// the deterministic search order.
func CanonicalizeScenarioPerm(p *Pattern, inits []Value) (*Pattern, []Value, int64, []AgentID) {
	var c Canonicalizer
	c.Canonicalize(p, inits)
	perm := c.Perm(nil)
	return p.Permute(perm), PermuteValues(inits, perm), c.Orbit(), perm
}

// IsCanonicalScenario reports whether (p, inits) is its own orbit
// representative, returning the orbit size.
func IsCanonicalScenario(p *Pattern, inits []Value) (int64, bool) {
	var c Canonicalizer
	c.Canonicalize(p, inits)
	return c.Orbit(), c.IsCanonical()
}

// Canonicalizer canonicalizes scenarios one after another, reusing its
// storage: after warm-up Canonicalize does not allocate. It splits the
// lexicographic minimum the way the key is ordered. The drop bitmap
// comes first, so per pattern it searches the split-respecting
// permutations once for the minimal bitmap and keeps the coset of
// permutations reaching it; per scenario it minimises only the n permuted
// inits over that coset (a handful of members for most patterns, all n!
// for the failure-free one).
//
// The pattern half is remembered for the most recent pattern, compared by
// content against a private copy — an enumerator that mutates one Pattern
// in place between calls cannot alias it. Exhaustive sweeps cross each
// pattern with 2ⁿ initial vectors back to back, which is where the memo
// pays; a source whose patterns never repeat pays one extra comparison.
//
// The zero value is ready to use. A Canonicalizer is not safe for
// concurrent use, and the results of Canonicalize are valid until the
// next call.
type Canonicalizer struct {
	// The remembered pattern: shape and a copy of its contents.
	n, horizon int
	faulty     []bool
	drops      []bool

	// Pattern half. agents is the search scratch: the nonfaulty agents
	// (new indices 0..nonfaulty-1) then the faulty ones, each block
	// permuted in place; at a leaf agents[a] is the old agent at new
	// index a. minDrops is the minimal drop bitmap, in new-index order as
	// '0'/'1' bytes. coset lists, n entries each and in search order,
	// every leaf whose bitmap equals minDrops.
	nonfaulty int
	agents    []AgentID
	minDrops  []byte
	coset     []AgentID
	idInCoset bool // the identity permutation is a coset member

	// Scenario half: the inits as key bytes by old agent, their minimum
	// over the coset, the first member attaining it and how many do (the
	// scenario's stabilizer order).
	vals     []byte
	minInits []byte
	best     int
	minCount int64
}

// Canonicalize finds the canonical representative of (p, inits); the
// other methods report it. len(inits) must equal p.N().
func (c *Canonicalizer) Canonicalize(p *Pattern, inits []Value) {
	if len(inits) != p.n {
		panic("model: CanonicalizeScenario inits length does not match pattern")
	}
	if !c.remembers(p) {
		c.searchPattern(p)
	}
	n := c.n
	c.vals = c.vals[:0]
	for _, v := range inits {
		c.vals = append(c.vals, valueByte(v))
	}
	for k := 0; k*n < len(c.coset); k++ {
		member := c.coset[k*n : (k+1)*n]
		cmp := -1 // the first member always becomes the minimum
		if k > 0 {
			cmp = 0
			for a, old := range member {
				if d := int(c.vals[old]) - int(c.minInits[a]); d != 0 {
					cmp = d
					break
				}
			}
		}
		switch {
		case cmp < 0:
			for a, old := range member {
				c.minInits[a] = c.vals[old]
			}
			c.best, c.minCount = k, 1
		case cmp == 0:
			c.minCount++
		}
	}
}

// CanonicalPattern reports whether some scenario of p is its own
// representative. That needs the faulty agents in the top index block,
// which is checked first and without a search, and the identity among
// the permutations attaining the minimal drop bitmap, which is the
// remembered pattern half. The answer is exact: with all-equal inits
// every coset member ties on the inits, so the identity attains the
// minimal key whenever it attains the minimal bitmap. When the answer is
// false no scenario of p is canonical. A search invalidates the results
// of an earlier Canonicalize.
func (c *Canonicalizer) CanonicalPattern(p *Pattern) bool {
	for i := 1; i < p.n; i++ {
		if p.faulty[i-1] && !p.faulty[i] {
			return false
		}
	}
	if !c.remembers(p) {
		c.searchPattern(p)
	}
	return c.idInCoset
}

// remembers reports whether p is the pattern the pattern half was run for.
func (c *Canonicalizer) remembers(p *Pattern) bool {
	return c.n == p.n && c.horizon == p.horizon && slices.Equal(c.faulty, p.faulty) && slices.Equal(c.drops, p.drops)
}

// searchPattern remembers p and runs the pattern half for it.
func (c *Canonicalizer) searchPattern(p *Pattern) {
	c.n, c.horizon = p.n, p.horizon
	c.faulty = append(c.faulty[:0], p.faulty...)
	c.drops = append(c.drops[:0], p.drops...)

	c.agents = c.agents[:0]
	for i, f := range c.faulty {
		if !f {
			c.agents = append(c.agents, AgentID(i))
		}
	}
	c.nonfaulty = len(c.agents)
	for i, f := range c.faulty {
		if f {
			c.agents = append(c.agents, AgentID(i))
		}
	}
	// The identity is split-respecting only when the faulty agents
	// already occupy the top index block, i.e. agents starts out sorted.
	c.idInCoset = true
	for a, old := range c.agents {
		if int(old) != a {
			c.idInCoset = false
		}
	}

	c.minDrops = slices.Grow(c.minDrops[:0], len(c.drops))[:len(c.drops)]
	c.minInits = slices.Grow(c.minInits[:0], c.n)[:c.n]
	c.coset = c.coset[:0]
	c.search(0)

	for i, d := range c.drops {
		if c.minDrops[i] != boolByte(d) {
			c.idInCoset = false
			break
		}
	}
}

// search assigns every ordering of the nonfaulty agents to the low index
// block and, inside each, every ordering of the faulty agents to the high
// block, by swap recursion on agents. The order is part of the contract:
// it decides which permutation Perm returns for a scenario with a
// non-trivial stabilizer.
func (c *Canonicalizer) search(k int) {
	if k == c.n {
		c.evaluate()
		return
	}
	end := c.n
	if k < c.nonfaulty {
		end = c.nonfaulty
	}
	for i := k; i < end; i++ {
		c.agents[k], c.agents[i] = c.agents[i], c.agents[k]
		c.search(k + 1)
		c.agents[k], c.agents[i] = c.agents[i], c.agents[k]
	}
}

// evaluate renders the drop bitmap under the current assignment straight
// into minDrops, giving up at the first byte that loses to the running
// minimum, and folds the leaf into the coset. The faulty bitmap is not
// rendered: every candidate shares it.
func (c *Canonicalizer) evaluate() {
	n, w := c.n, 0
	less := len(c.coset) == 0 // the first leaf always becomes the minimum
	for m := 0; m < c.horizon; m++ {
		mBase := m * n * n
		for _, from := range c.agents {
			row := mBase + int(from)*n
			for _, to := range c.agents {
				b := boolByte(c.drops[row+int(to)])
				if !less && b != c.minDrops[w] {
					if b > c.minDrops[w] {
						return
					}
					less = true
				}
				c.minDrops[w] = b
				w++
			}
		}
	}
	if less {
		c.coset = c.coset[:0]
	}
	c.coset = append(c.coset, c.agents...)
}

// Orbit returns the orbit size n!/|stabilizer|: the coset members
// attaining the minimal inits are exactly one coset of the scenario's
// stabilizer.
func (c *Canonicalizer) Orbit() int64 {
	return factorial(c.n) / c.minCount
}

// IsCanonical reports whether the scenario is its own representative,
// i.e. the identity permutation attains the minimal key.
func (c *Canonicalizer) IsCanonical() bool {
	return c.idInCoset && bytes.Equal(c.vals, c.minInits)
}

// Perm returns the permutation carrying the scenario onto its
// representative (perm[i] is the new identity of old agent i, as
// Pattern.Permute takes it), the first in search order when several do.
// It is written over dst when dst has the capacity.
func (c *Canonicalizer) Perm(dst []AgentID) []AgentID {
	n := c.n
	dst = slices.Grow(dst[:0], n)[:n]
	for a, old := range c.coset[c.best*n : (c.best+1)*n] {
		dst[old] = AgentID(a)
	}
	return dst
}

// AppendRepresentativeKey appends the representative's scenario key —
// what AppendScenarioKey renders for the permuted pattern and inits,
// without materializing either.
func (c *Canonicalizer) AppendRepresentativeKey(dst []byte) []byte {
	dst = appendInt(dst, c.n)
	dst = append(dst, ':')
	for a := 0; a < c.n; a++ {
		dst = append(dst, boolByte(a >= c.nonfaulty))
	}
	dst = append(dst, ':')
	dst = append(dst, c.minDrops...)
	dst = append(dst, '/')
	return append(dst, c.minInits...)
}

// AppendScenarioKey appends a fingerprint of the scenario (p, inits):
// Pattern.Key(), a '/', and one byte per initial preference. Scenarios of
// one shape are equal iff their keys are.
func AppendScenarioKey(dst []byte, p *Pattern, inits []Value) []byte {
	dst = append(p.appendKey(dst), '/')
	for _, v := range inits {
		dst = append(dst, valueByte(v))
	}
	return dst
}

func valueByte(v Value) byte {
	switch v {
	case Zero:
		return '0'
	case One:
		return '1'
	default:
		return '?'
	}
}

func factorial(n int) int64 {
	f := int64(1)
	for k := 2; k <= n; k++ {
		f *= int64(k)
	}
	return f
}
