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
	seen := make([]bool, n)
	for _, v := range perm {
		if int(v) < 0 || int(v) >= n {
			panic("model: permutation entry out of range")
		}
		if seen[v] {
			panic("model: permutation entry repeated")
		}
		seen[v] = true
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
// storage: after warm-up it does not allocate. It takes the lexicographic
// minimum in two halves, the way the key is ordered. The drop bitmap
// comes first, so the pattern half (SearchPattern) searches the
// split-respecting permutations once per pattern for the minimal bitmap
// and keeps the coset of permutations reaching it; the inits half
// (MinimizeInits) minimises only the n permuted inits over that coset (a
// handful of members for most patterns, all n! for the failure-free one).
// Canonicalize is the two halves in sequence. A caller that holds a
// pattern's scenarios together runs the pattern half once and the inits
// half per scenario, and can find the representative by its pattern key
// (AppendPatternKey) and its inits as bits (InitsBits).
//
// The pattern half is remembered for the most recent pattern, compared by
// content against a private copy — an enumerator that mutates one Pattern
// in place between calls cannot alias it. Exhaustive sweeps cross each
// pattern with 2ⁿ initial vectors back to back, which is where the memo
// pays; a source whose patterns never repeat pays one extra comparison.
//
// The zero value is ready to use. A Canonicalizer is not safe for
// concurrent use, and its results are valid until the next call.
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

	// Inits half: the inits as key bytes by old agent, their minimum
	// over the coset, the first member attaining it and how many do (the
	// scenario's stabilizer order).
	vals     []byte
	minInits []byte
	best     int
	minCount int64
}

// Canonicalize finds the canonical representative of (p, inits), the
// pattern half then the inits half; the other methods report it.
// len(inits) must equal p.N().
func (c *Canonicalizer) Canonicalize(p *Pattern, inits []Value) {
	c.SearchPattern(p)
	c.MinimizeInits(inits)
}

// MinimizeInits runs the inits half for the scenario (p, inits), p the
// pattern SearchPattern last ran for: the minimal permuted inits over the
// coset, and the first member in search order attaining them.
// len(inits) must equal p.N().
func (c *Canonicalizer) MinimizeInits(inits []Value) {
	if len(inits) != c.n {
		panic("model: CanonicalizeScenario inits length does not match pattern")
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
	c.SearchPattern(p)
	return c.idInCoset
}

// SearchPattern runs the pattern half for p, unless p is the pattern it
// last ran for (compared by content): the minimal drop bitmap over the
// split-respecting permutations, and the coset of those reaching it.
func (c *Canonicalizer) SearchPattern(p *Pattern) {
	if c.n == p.n && c.horizon == p.horizon && slices.Equal(c.faulty, p.faulty) && slices.Equal(c.drops, p.drops) {
		return
	}
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

	// The nonfaulty senders' rows are '0' under every candidate: a
	// Pattern cannot hold a drop by a nonfaulty agent (Drop marks the
	// sender faulty, SetNonfaulty clears its row). They are filled here
	// once, and evaluate renders only the faulty block's rows.
	c.minDrops = slices.Grow(c.minDrops[:0], len(c.drops))[:len(c.drops)]
	for i := range c.minDrops {
		c.minDrops[i] = '0'
	}
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

// evaluate renders the faulty senders' rows of the drop bitmap under the
// current assignment straight into minDrops, giving up at the first byte
// that loses to the running minimum, and folds the leaf into the coset.
// The faulty bitmap and the nonfaulty senders' rows are not rendered:
// every candidate shares them.
func (c *Canonicalizer) evaluate() {
	n := c.n
	less := len(c.coset) == 0 // the first leaf always becomes the minimum
	for m := 0; m < c.horizon; m++ {
		mBase := m * n * n
		for a := c.nonfaulty; a < n; a++ {
			row, w := mBase+int(c.agents[a])*n, mBase+a*n
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
	return Factorial(c.n) / c.minCount
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

// AppendPatternKey appends the representative's pattern key — what
// Pattern.Key renders for the permuted pattern, without materializing
// it. Every scenario of one pattern shares it.
func (c *Canonicalizer) AppendPatternKey(dst []byte) []byte {
	dst = appendInt(dst, c.n)
	dst = append(dst, ':')
	for a := 0; a < c.n; a++ {
		dst = append(dst, boolByte(a >= c.nonfaulty))
	}
	dst = append(dst, ':')
	return append(dst, c.minDrops...)
}

// AppendRepresentativeKey appends the representative's scenario key —
// what AppendScenarioKey renders for the permuted pattern and inits: the
// pattern key, a '/', and the minimal inits.
func (c *Canonicalizer) AppendRepresentativeKey(dst []byte) []byte {
	return append(append(c.AppendPatternKey(dst), '/'), c.minInits...)
}

// InitsBits returns the representative's inits as an integer, bit a set
// iff its agent a prefers 1, and whether that identifies them: ok is
// false when some preference is neither 0 nor 1.
func (c *Canonicalizer) InitsBits() (bits int, ok bool) {
	for a, v := range c.minInits {
		if v != '0' && v != '1' {
			return 0, false
		}
		bits |= int(v-'0') << a
	}
	return bits, true
}

// AppendScenarioKey appends a fingerprint of the scenario (p, inits):
// Pattern.Key(), a '/', and one byte per initial preference. Scenarios of
// one shape are equal iff their keys are.
func AppendScenarioKey(dst []byte, p *Pattern, inits []Value) []byte {
	dst = append(p.AppendKey(dst), '/')
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

// Factorial returns n!, the number of relabelings of n agents.
func Factorial(n int) int64 {
	f := int64(1)
	for k := 2; k <= n; k++ {
		f *= int64(k)
	}
	return f
}
