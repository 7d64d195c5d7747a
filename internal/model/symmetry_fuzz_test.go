package model

import (
	"slices"
	"testing"
)

// fuzzScenario decodes an arbitrary byte string into a small scenario
// plus one extra agent permutation, treating the bytes as a bit stream
// (exhausted streams read as zero, so every input decodes). Sizes stay
// small — n ≤ 5, horizon ≤ 3 — because the canonicalization cost is a
// sum over split-respecting permutations.
type fuzzScenario struct {
	data []byte
	pos  int
	cur  byte
	bit  uint
}

func (s *fuzzScenario) nextByte() byte {
	if s.pos >= len(s.data) {
		return 0
	}
	v := s.data[s.pos]
	s.pos++
	return v
}

func (s *fuzzScenario) nextBit() bool {
	if s.bit == 0 {
		s.cur = s.nextByte()
		s.bit = 8
	}
	s.bit--
	return s.cur>>s.bit&1 == 1
}

// decode returns the scenario and a permutation drawn from the stream.
func (s *fuzzScenario) decode() (*Pattern, []Value, []AgentID) {
	n := 2 + int(s.nextByte())%4       // 2..5
	horizon := 1 + int(s.nextByte())%3 // 1..3
	p := NewPattern(n, horizon)
	for m := 0; m < horizon; m++ {
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				if s.nextBit() {
					p.Drop(m, AgentID(i), AgentID(j))
				}
			}
		}
	}
	inits := make([]Value, n)
	for i := range inits {
		if s.nextBit() {
			inits[i] = One
		} else {
			inits[i] = Zero
		}
	}
	// Lehmer-decode a permutation from the remaining bytes.
	avail := make([]AgentID, n)
	for i := range avail {
		avail[i] = AgentID(i)
	}
	perm := make([]AgentID, 0, n)
	for len(avail) > 0 {
		k := int(s.nextByte()) % len(avail)
		perm = append(perm, avail[k])
		avail = append(avail[:k], avail[k+1:]...)
	}
	return p, inits, perm
}

// FuzzCanonicalizeScenario pins the canonicalization contract on
// arbitrary scenarios: it never panics, it is idempotent, every member
// of an orbit canonicalizes to the same representative with the same
// orbit size, the orbit size divides n!, and IsCanonicalScenario agrees
// with the representative comparison. These are exactly the properties
// the quotiented sweeps (source.Quotient, episteme.ExpandQuotient) rely
// on for full-sweep equivalence. CanonicalPattern, Quotient's per-pattern
// prefilter, must be exact. One Canonicalizer lives across the whole
// fuzzed sequence, as it does in those sweeps, and must answer every
// scenario as a fresh one does whatever it was shown or asked before; so
// must a second one driven through the two halves.
func FuzzCanonicalizeScenario(f *testing.F) {
	var long, split Canonicalizer
	f.Add([]byte{})
	f.Add([]byte{0, 0})
	f.Add([]byte{1, 1, 0xff, 0x0f, 3, 1, 2})
	f.Add([]byte{2, 2, 0xa5, 0x5a, 0xa5, 0x5a, 0xa5, 0x5a, 7, 11, 13})
	f.Add([]byte{3, 2, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 1, 2, 3, 4, 5})
	f.Add([]byte{3, 0, 0x01, 0x80, 0x00, 0x40, 2, 0, 1, 9})
	f.Add([]byte{1, 0, 0x40}) // only agent 0 drops: a top-block reject
	f.Add([]byte{1, 0, 0x01}) // only agent 2 drops, to agent 1: a canonical pattern
	f.Fuzz(func(t *testing.T, data []byte) {
		p, inits, sigma := (&fuzzScenario{data: data}).decode()
		n := p.N()

		rep, repInits, orbit, perm := CanonicalizeScenarioPerm(p, inits)
		isRep := rep.Key() == p.Key() && slices.Equal(repInits, inits)

		// The pattern question is exact: it answers whether the scenario
		// with all-equal inits is canonical, and a pattern it rejects has
		// no canonical scenario. The long-lived canonicalizer is asked it
		// about a relabeling of p between scenarios — often a faulty set
		// outside the top block, rejected without a search — and must
		// still answer the scenario below as a fresh one does.
		zeros := make([]Value, n)
		var fresh Canonicalizer
		_, want := IsCanonicalScenario(p, zeros)
		if got := fresh.CanonicalPattern(p); got != want {
			t.Fatalf("CanonicalPattern = %v, IsCanonicalScenario with all-zero inits = %v", got, want)
		}
		if !want && isRep {
			t.Fatalf("CanonicalPattern rejects a pattern whose scenario (%s, %v) is canonical", p.Key(), inits)
		}
		q := p.Permute(sigma)
		qInits := PermuteValues(inits, sigma)
		if _, want := IsCanonicalScenario(q, zeros); long.CanonicalPattern(q) != want {
			t.Fatalf("long-lived canonicalizer: CanonicalPattern(%s) = %v, want %v", q.Key(), !want, want)
		}

		long.Canonicalize(p, inits)
		if got, want := string(long.AppendRepresentativeKey(nil)), string(AppendScenarioKey(nil, rep, repInits)); got != want ||
			long.Orbit() != orbit || !slices.Equal(long.Perm(nil), perm) {
			t.Fatalf("long-lived canonicalizer = (%s, %d, %v), fresh one (%s, %d, %v)",
				got, long.Orbit(), long.Perm(nil), want, orbit, perm)
		}

		split.SearchPattern(p)
		checkHalves(t, &split, p, inits, wantCanon{string(AppendScenarioKey(nil, rep, repInits)), orbit, perm, isRep})

		// The returned permutation is split-respecting: the
		// representative has the same shape with its faulty agents in
		// the top index block.
		if rep.N() != n || rep.Horizon() != p.Horizon() || rep.NumFaulty() != p.NumFaulty() {
			t.Fatalf("representative changed shape: %v vs %v", rep, p)
		}
		f0 := n - rep.NumFaulty()
		for i := 0; i < n; i++ {
			if rep.Faulty(AgentID(i)) != (i >= f0) {
				t.Fatalf("representative's faulty set is not the top block: %v", rep)
			}
		}
		if len(perm) != n {
			t.Fatalf("returned permutation has length %d for n=%d", len(perm), n)
		}

		// The orbit size divides n! (orbit-stabilizer).
		if orbit < 1 || Factorial(n)%orbit != 0 {
			t.Fatalf("orbit %d does not divide %d! = %d", orbit, n, Factorial(n))
		}

		// Idempotent: the representative is its own representative.
		rep2, repInits2, orbit2 := CanonicalizeScenario(rep, repInits)
		if rep2.Key() != rep.Key() || !slices.Equal(repInits2, repInits) || orbit2 != orbit {
			t.Fatalf("canonicalization is not idempotent: (%s, %v, %d) -> (%s, %v, %d)",
				rep.Key(), repInits, orbit, rep2.Key(), repInits2, orbit2)
		}
		if o, ok := IsCanonicalScenario(rep, repInits); !ok || o != orbit {
			t.Fatalf("IsCanonicalScenario(rep) = (%d, %v), want (%d, true)", o, ok, orbit)
		}

		// IsCanonicalScenario agrees with the representative comparison
		// on the original scenario.
		if o, ok := IsCanonicalScenario(p, inits); ok != isRep || o != orbit {
			t.Fatalf("IsCanonicalScenario = (%d, %v), want (%d, %v)", o, ok, orbit, isRep)
		}
		if long.IsCanonical() != isRep {
			t.Fatalf("long-lived canonicalizer: IsCanonical = %v, want %v", long.IsCanonical(), isRep)
		}

		// Permutation-invariant: any relabeling of the scenario reaches
		// the same representative and orbit.
		rq, rqInits, orbitQ := CanonicalizeScenario(q, qInits)
		if rq.Key() != rep.Key() || !slices.Equal(rqInits, repInits) || orbitQ != orbit {
			t.Fatalf("orbit member canonicalizes differently: (%s, %v, %d) vs (%s, %v, %d)",
				rq.Key(), rqInits, orbitQ, rep.Key(), repInits, orbit)
		}
	})
}
