package model

import (
	"math/rand"
	"testing"
)

// randPerm returns a random permutation of 0..n-1 as AgentIDs.
func randPerm(rng *rand.Rand, n int) []AgentID {
	p := rng.Perm(n)
	out := make([]AgentID, n)
	for i, v := range p {
		out[i] = AgentID(v)
	}
	return out
}

// invPerm inverts a permutation.
func invPerm(perm []AgentID) []AgentID {
	inv := make([]AgentID, len(perm))
	for i, v := range perm {
		inv[v] = AgentID(i)
	}
	return inv
}

// randPattern builds a random SO pattern with up to maxF faulty agents.
func randPattern(rng *rand.Rand, n, horizon, maxF int) *Pattern {
	p := NewPattern(n, horizon)
	f := rng.Intn(maxF + 1)
	for _, i := range rng.Perm(n)[:f] {
		p.SetFaulty(AgentID(i))
		for m := 0; m < horizon; m++ {
			for j := 0; j < n; j++ {
				if rng.Intn(3) == 0 {
					p.Drop(m, AgentID(i), AgentID(j))
				}
			}
		}
	}
	return p
}

func randInits(rng *rand.Rand, n int) []Value {
	out := make([]Value, n)
	for i := range out {
		out[i] = Value(rng.Intn(2))
	}
	return out
}

func TestPermuteConvention(t *testing.T) {
	// drop(m=1, 0→2) with perm (0→1, 1→2, 2→0) must become drop(m=1, 1→0).
	p := NewPattern(3, 2)
	p.Drop(1, 0, 2)
	q := p.Permute([]AgentID{1, 2, 0})
	if !q.Faulty(1) || q.Faulty(0) || q.Faulty(2) {
		t.Fatalf("faulty set not relabeled: %v", q)
	}
	if q.Delivered(1, 1, 0) {
		t.Fatalf("drop (1, 0→2) did not move to (1, 1→0): %v", q)
	}
	for m := 0; m < 2; m++ {
		for i := 0; i < 3; i++ {
			for j := 0; j < 3; j++ {
				if (m == 1 && i == 1 && j == 0) == q.Delivered(m, AgentID(i), AgentID(j)) {
					t.Fatalf("unexpected delivery table at m=%d %d→%d: %v", m, i, j, q)
				}
			}
		}
	}
}

func TestPermuteRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 200; trial++ {
		n := 2 + rng.Intn(4)
		p := randPattern(rng, n, 1+rng.Intn(3), n-1)
		perm := randPerm(rng, n)
		back := p.Permute(perm).Permute(invPerm(perm))
		if back.Key() != p.Key() {
			t.Fatalf("permute round-trip changed pattern:\n %s\n %s", p.Key(), back.Key())
		}
		inits := randInits(rng, n)
		vb := PermuteValues(PermuteValues(inits, perm), invPerm(perm))
		for i := range inits {
			if vb[i] != inits[i] {
				t.Fatalf("value round-trip changed inits: %v vs %v", inits, vb)
			}
		}
	}
}

func TestPermuteRejectsNonPermutation(t *testing.T) {
	p := NewPattern(3, 1)
	for _, perm := range [][]AgentID{
		{0, 1},          // wrong length
		{0, 1, 1},       // repeated
		{0, 1, 3},       // out of range
		{0, -1, 2},      // negative
		{0, 1, 2, 3, 4}, // too long
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("Permute(%v) did not panic", perm)
				}
			}()
			p.Permute(perm)
		}()
	}
}

func TestCanonicalizeIdempotent(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for trial := 0; trial < 200; trial++ {
		n := 2 + rng.Intn(4)
		p := randPattern(rng, n, 1+rng.Intn(3), n-1)
		inits := randInits(rng, n)
		rep, repInits, orbit := CanonicalizeScenario(p, inits)
		rep2, repInits2, orbit2 := CanonicalizeScenario(rep, repInits)
		if rep2.Key() != rep.Key() || orbit2 != orbit {
			t.Fatalf("canonicalization not idempotent:\n %s (orbit %d)\n %s (orbit %d)",
				rep.Key(), orbit, rep2.Key(), orbit2)
		}
		for i := range repInits {
			if repInits2[i] != repInits[i] {
				t.Fatalf("canonical inits not stable: %v vs %v", repInits, repInits2)
			}
		}
		if gotOrbit, ok := IsCanonicalScenario(rep, repInits); !ok || gotOrbit != orbit {
			t.Fatalf("representative not reported canonical (ok=%v orbit %d vs %d)", ok, gotOrbit, orbit)
		}
	}
}

func TestCanonicalizePermutationInvariant(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 200; trial++ {
		n := 2 + rng.Intn(4)
		p := randPattern(rng, n, 1+rng.Intn(3), n-1)
		inits := randInits(rng, n)
		rep, repInits, orbit, perm := CanonicalizeScenarioPerm(p, inits)

		// The returned permutation must actually carry (p, inits) onto
		// the representative.
		if got := p.Permute(perm); got.Key() != rep.Key() {
			t.Fatalf("returned perm does not reach representative:\n %s\n %s", got.Key(), rep.Key())
		}
		gotInits := PermuteValues(inits, perm)
		for i := range gotInits {
			if gotInits[i] != repInits[i] {
				t.Fatalf("returned perm does not reach canonical inits: %v vs %v", gotInits, repInits)
			}
		}

		// Every permuted variant canonicalizes to the same representative
		// with the same orbit size.
		sigma := randPerm(rng, n)
		rep2, repInits2, orbit2 := CanonicalizeScenario(p.Permute(sigma), PermuteValues(inits, sigma))
		if rep2.Key() != rep.Key() || orbit2 != orbit {
			t.Fatalf("orbit members disagree on representative:\n %s (orbit %d)\n %s (orbit %d)",
				rep.Key(), orbit, rep2.Key(), orbit2)
		}
		for i := range repInits {
			if repInits2[i] != repInits[i] {
				t.Fatalf("orbit members disagree on canonical inits: %v vs %v", repInits, repInits2)
			}
		}
	}
}

// TestOrbitSizeExhaustive pins orbit sizes against a brute-force count of
// distinct permuted images over all of S_n.
func TestOrbitSizeExhaustive(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	for trial := 0; trial < 60; trial++ {
		n := 2 + rng.Intn(3) // n ≤ 4 keeps n! small
		p := randPattern(rng, n, 1+rng.Intn(2), n-1)
		inits := randInits(rng, n)
		_, _, orbit := CanonicalizeScenario(p, inits)

		seen := map[string]bool{}
		perm := make([]AgentID, n)
		var rec func(k int, used int)
		rec = func(k int, used int) {
			if k == n {
				q := p.Permute(perm)
				key := q.Key() + "|"
				for _, v := range PermuteValues(inits, perm) {
					key += v.String()
				}
				seen[key] = true
				return
			}
			for v := 0; v < n; v++ {
				if used&(1<<v) != 0 {
					continue
				}
				perm[k] = AgentID(v)
				rec(k+1, used|1<<v)
			}
		}
		rec(0, 0)
		if int64(len(seen)) != orbit {
			t.Fatalf("orbit size %d, brute force found %d images (n=%d)", orbit, len(seen), n)
		}
	}
}

func TestOrbitSizeHandPicked(t *testing.T) {
	// Fault-free, inits 011: orbit = C(3,2) = 3.
	p := NewPattern(3, 1)
	if _, _, orbit := CanonicalizeScenario(p, []Value{Zero, One, One}); orbit != 3 {
		t.Fatalf("fault-free 011 orbit = %d, want 3", orbit)
	}
	// Fault-free, uniform inits: orbit 1.
	if _, _, orbit := CanonicalizeScenario(p, []Value{One, One, One}); orbit != 1 {
		t.Fatalf("fault-free 111 orbit = %d, want 1", orbit)
	}
	// One silent agent, uniform inits: orbit = n (choice of the silent
	// agent).
	q := NewPattern(3, 1)
	q.Silence(0, 0, 1)
	if _, _, orbit := CanonicalizeScenario(q, []Value{One, One, One}); orbit != 3 {
		t.Fatalf("silent-agent orbit = %d, want 3", orbit)
	}
	// The canonical representative of that orbit silences the top agent.
	rep, _, _ := CanonicalizeScenario(q, []Value{One, One, One})
	if !rep.Faulty(2) || rep.Faulty(0) || rep.Faulty(1) {
		t.Fatalf("canonical faulty set is not the top block: %v", rep)
	}
}

func TestOrbitSizeDividesFactorial(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 100; trial++ {
		n := 2 + rng.Intn(5)
		p := randPattern(rng, n, 1+rng.Intn(3), n-1)
		inits := randInits(rng, n)
		_, _, orbit := CanonicalizeScenario(p, inits)
		if orbit <= 0 || Factorial(n)%orbit != 0 {
			t.Fatalf("orbit %d does not divide %d! (n=%d)", orbit, n, n)
		}
	}
}
