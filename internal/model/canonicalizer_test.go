package model

import (
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"testing"
)

// so1Patterns enumerates SO(1) over n agents the way the exhaustive sweep
// does — one Pattern mutated in place with Drop/Undrop, handed to visit
// between mutations: the failure-free pattern, then for each agent every
// subset of its messages to the others (the empty subset is the faulty
// agent that drops nothing).
func so1Patterns(n, horizon int, visit func(*Pattern)) {
	visit(NewPattern(n, horizon))
	for i := 0; i < n; i++ {
		p := NewPattern(n, horizon)
		p.SetFaulty(AgentID(i))
		type msg struct {
			m int
			j AgentID
		}
		var msgs []msg
		for m := 0; m < horizon; m++ {
			for j := 0; j < n; j++ {
				if j != i {
					msgs = append(msgs, msg{m, AgentID(j)})
				}
			}
		}
		for set := 0; set < 1<<len(msgs); set++ {
			for b, e := range msgs {
				if set>>b&1 == 1 {
					p.Drop(e.m, AgentID(i), e.j)
				} else {
					p.Undrop(e.m, AgentID(i), e.j)
				}
			}
			visit(p)
		}
	}
}

// allInits calls visit with every vector in {0,1}ⁿ, reusing one slice.
func allInits(n int, visit func([]Value)) {
	inits := make([]Value, n)
	for bits := 0; bits < 1<<n; bits++ {
		for i := range inits {
			inits[i] = Value(bits >> i & 1)
		}
		visit(inits)
	}
}

// wantCanon is one scenario's expected canonicalization.
type wantCanon struct {
	repKey    string
	orbit     int64
	perm      []AgentID
	canonical bool
}

// checkCanon compares the canonicalizer's answer for the scenario it was
// just given against want.
func checkCanon(t *testing.T, c *Canonicalizer, p *Pattern, inits []Value, want wantCanon) {
	t.Helper()
	if got := string(c.AppendRepresentativeKey(nil)); got != want.repKey {
		t.Fatalf("%v %v: representative %s, want %s", p, inits, got, want.repKey)
	}
	if got := c.Orbit(); got != want.orbit {
		t.Fatalf("%v %v: orbit %d, want %d", p, inits, got, want.orbit)
	}
	if got := c.IsCanonical(); got != want.canonical {
		t.Fatalf("%v %v: IsCanonical %v, want %v", p, inits, got, want.canonical)
	}
	if got := c.Perm(nil); !slices.Equal(got, want.perm) {
		t.Fatalf("%v %v: perm %v, want %v", p, inits, got, want.perm)
	}
}

// checkHalves runs the inits half of split, whose pattern half last ran
// for p, on inits, and holds the answer and its pattern key to want: the
// scenario key is the pattern key, a '/', and the inits.
func checkHalves(t *testing.T, split *Canonicalizer, p *Pattern, inits []Value, want wantCanon) {
	t.Helper()
	split.MinimizeInits(inits)
	checkCanon(t, split, p, inits, want)
	patKey, _, _ := strings.Cut(want.repKey, "/")
	if got := string(split.AppendPatternKey(nil)); got != patKey {
		t.Fatalf("%v %v: pattern key %s, want %s", p, inits, got, patKey)
	}
}

// VectorsMatchInits holds MinimizeVectors, for the pattern c last
// searched, to what MinimizeInits gives for every vector of zeros and
// ones: the representative's inits (AppendRepresentativeKey's, read as
// bits), Perm, ranked by its place in a lexicographic listing of the n!
// permutations, and Orbit. It returns the first disagreement, and leaves
// c's inits half at the last vector. It is exported for the sweep test in
// package model_test.
func VectorsMatchInits(c *Canonicalizer, out []VectorOrbit) error {
	c.MinimizeVectors(out)
	inits, ranks := make([]Value, c.n), lexRanks[c.n]
	var key []byte
	var perm []AgentID
	for v, got := range out {
		for i := range inits {
			inits[i] = Value(v >> i & 1)
		}
		c.MinimizeInits(inits)
		key = c.AppendRepresentativeKey(key[:0])
		bits := 0
		for a, b := range key[len(key)-c.n:] {
			bits |= int(b-'0') << a
		}
		perm = c.Perm(perm)
		if want := (VectorOrbit{int32(bits), ranks[packPerm(perm)], c.Orbit()}); got != want {
			return fmt.Errorf("inits %v: MinimizeVectors gives %+v, the inits half %+v (relabeling %v)", inits, got, want, perm)
		}
	}
	return nil
}

// packPerm packs a permutation of at most 16 agents four bits an agent.
func packPerm(perm []AgentID) (code uint64) {
	for _, a := range perm {
		code = code<<4 | uint64(a)
	}
	return code
}

// lexRanks[n] numbers the permutations of n ≤ 6 agents as a
// lexicographic listing does, keyed by packPerm.
var lexRanks = func() (tables [7]map[uint64]int32) {
	for n := range tables {
		ranks := make(map[uint64]int32)
		var list func(prefix []AgentID)
		list = func(prefix []AgentID) {
			if len(prefix) == n {
				ranks[packPerm(prefix)] = int32(len(ranks))
			}
			for a := range AgentID(n) {
				if !slices.Contains(prefix, a) {
					list(append(prefix, a))
				}
			}
		}
		list(make([]AgentID, 0, n))
		tables[n] = ranks
	}
	return tables
}()

// oneShot asks the one-shot wrappers.
func oneShot(p *Pattern, inits []Value) wantCanon {
	rep, repInits, orbit, perm := CanonicalizeScenarioPerm(p, inits)
	_, canonical := IsCanonicalScenario(p, inits)
	return wantCanon{string(AppendScenarioKey(nil, rep, repInits)), orbit, perm, canonical}
}

// oldCanon asks the reference search.
func oldCanon(p *Pattern, inits []Value) wantCanon {
	rep, repInits, orbit, perm := oldCanonicalizeScenarioPerm(p, inits)
	orbit2, canonical := oldIsCanonicalScenario(p, inits)
	if orbit2 != orbit {
		panic("reference search disagrees with itself")
	}
	return wantCanon{string(AppendScenarioKey(nil, rep, repInits)), orbit, perm, canonical}
}

// TestCanonicalizerMatchesOldSearch pins the contract the goldens ride
// on: for every scenario of the n=4,t=1 sweep (and n=3), in sweep order
// through one long-lived Canonicalizer and through the one-shot wrappers,
// the representative, orbit, canonical flag and — tie-break included —
// the permutation are the old per-scenario search's. A third canonicalizer
// runs the pattern half once per pattern and the inits half per scenario,
// as ExpandQuotient's workers do.
func TestCanonicalizerMatchesOldSearch(t *testing.T) {
	for _, n := range []int{3, 4} {
		var c, split Canonicalizer
		scenarios := 0
		so1Patterns(n, 3, func(p *Pattern) {
			split.SearchPattern(p)
			allInits(n, func(inits []Value) {
				scenarios++
				want := oldCanon(p, inits)
				c.Canonicalize(p, inits)
				checkCanon(t, &c, p, inits, want)
				checkHalves(t, &split, p, inits, want)

				rep, repInits, orbit, perm := CanonicalizeScenarioPerm(p, inits)
				if got := string(AppendScenarioKey(nil, rep, repInits)); got != want.repKey || orbit != want.orbit || !slices.Equal(perm, want.perm) {
					t.Fatalf("%v %v: CanonicalizeScenarioPerm = (%s, %d, %v), want (%s, %d, %v)",
						p, inits, got, orbit, perm, want.repKey, want.orbit, want.perm)
				}
				if o, ok := IsCanonicalScenario(p, inits); o != want.orbit || ok != want.canonical {
					t.Fatalf("%v %v: IsCanonicalScenario = (%d, %v), want (%d, %v)", p, inits, o, ok, want.orbit, want.canonical)
				}
			})
		})
		if want := (1 + n<<(3*(n-1))) << n; scenarios != want {
			t.Fatalf("n=%d: enumerated %d scenarios, SO(1) has %d", n, scenarios, want)
		}
	}
}

// bruteCanon canonicalizes by definition: the minimal (Pattern.Key(),
// inits) over all n! permutations, the orbit as the number of distinct
// images.
func bruteCanon(p *Pattern, inits []Value) (repKey string, orbit int64) {
	n := p.N()
	images := map[string]bool{}
	perm := make([]AgentID, n)
	var rec func(k, used int)
	rec = func(k, used int) {
		if k == n {
			key := string(AppendScenarioKey(nil, p.Permute(perm), PermuteValues(inits, perm)))
			images[key] = true
			if repKey == "" || key < repKey {
				repKey = key
			}
			return
		}
		for v := 0; v < n; v++ {
			if used>>v&1 == 0 {
				perm[k] = AgentID(v)
				rec(k+1, used|1<<v)
			}
		}
	}
	rec(0, 0)
	return repKey, int64(len(images))
}

// checkBrute holds one long-lived canonicalizer to the brute-force
// oracle on (p, inits), and the permutation to carrying the scenario onto
// the representative.
func checkBrute(t *testing.T, c *Canonicalizer, p *Pattern, inits []Value) {
	t.Helper()
	wantKey, wantOrbit := bruteCanon(p, inits)
	c.Canonicalize(p, inits)
	if got := string(c.AppendRepresentativeKey(nil)); got != wantKey {
		t.Fatalf("%v %v: representative %s, all-permutation minimum is %s", p, inits, got, wantKey)
	}
	if got := c.Orbit(); got != wantOrbit {
		t.Fatalf("%v %v: orbit %d, brute force counts %d images", p, inits, got, wantOrbit)
	}
	perm := c.Perm(nil)
	if got := string(AppendScenarioKey(nil, p.Permute(perm), PermuteValues(inits, perm))); got != wantKey {
		t.Fatalf("%v %v: perm %v carries the scenario to %s, not the representative %s", p, inits, perm, got, wantKey)
	}
	if got, want := c.IsCanonical(), string(AppendScenarioKey(nil, p, inits)) == wantKey; got != want {
		t.Fatalf("%v %v: IsCanonical %v, want %v", p, inits, got, want)
	}
}

// TestCanonicalizerBruteForce checks the split-respecting search against
// the definition over ALL n! permutations: every SO(1) scenario at n=3,
// seeded samples at n=4 and n=5 with up to two faulty agents. The two
// halves, the pattern half once per pattern, must give the one-shot
// answers.
func TestCanonicalizerBruteForce(t *testing.T) {
	var c, split Canonicalizer
	so1Patterns(3, 3, func(p *Pattern) {
		split.SearchPattern(p)
		allInits(3, func(inits []Value) {
			checkBrute(t, &c, p, inits)
			checkHalves(t, &split, p, inits, oneShot(p, inits))
		})
	})
	rng := rand.New(rand.NewSource(13))
	for _, cfg := range []struct{ n, maxF, patterns int }{{4, 1, 150}, {4, 2, 150}, {5, 1, 60}, {5, 2, 60}} {
		for k := 0; k < cfg.patterns; k++ {
			p := randPattern(rng, cfg.n, 1+rng.Intn(3), cfg.maxF)
			split.SearchPattern(p)
			// A few vectors per pattern, so the pattern memo is hit too.
			for v := 0; v < 4; v++ {
				inits := randInits(rng, cfg.n)
				checkBrute(t, &c, p, inits)
				checkHalves(t, &split, p, inits, oneShot(p, inits))
			}
		}
	}
}

// TestCanonicalizerMemoInvalidation drives one canonicalizer through
// everything that could fool a memo keyed on anything but content: one
// Pattern mutated in place between calls (same pointer, new contents),
// equal contents behind distinct pointers, and distinct patterns
// interleaved. Every answer must be a fresh canonicalizer's.
func TestCanonicalizerMemoInvalidation(t *testing.T) {
	var long Canonicalizer
	check := func(p *Pattern, inits []Value) {
		t.Helper()
		// The pattern half renders only the faulty senders' rows, which
		// rests on no mutation through the API leaving a nonfaulty
		// sender's drop behind.
		if err := SO(p.N()).Admits(p); err != nil {
			t.Fatalf("%v: %v", p, err)
		}
		var fresh Canonicalizer
		fresh.Canonicalize(p, inits)
		long.Canonicalize(p, inits)
		checkCanon(t, &long, p, inits, wantCanon{
			string(fresh.AppendRepresentativeKey(nil)), fresh.Orbit(), fresh.Perm(nil), fresh.IsCanonical(),
		})
	}

	inits := []Value{One, Zero, One, Zero}
	p := NewPattern(4, 2)
	check(p, inits)
	p.Drop(0, 1, 2) // marks 1 faulty: the split changes under the same pointer
	check(p, inits)
	p.Drop(1, 1, 0)
	check(p, inits)
	p.Undrop(0, 1, 2)
	check(p, inits)
	p.Undrop(1, 1, 0) // back to no drops, but 1 stays faulty
	check(p, inits)
	p.SetNonfaulty(1)
	check(p, inits)

	// Equal contents, distinct pointers; then a different shape with the
	// same n; then interleaving with changing inits.
	q := NewPattern(4, 2)
	q.Drop(1, 3, 0)
	check(q, inits)
	check(q.Clone(), inits)
	check(NewPattern(4, 3), inits)
	check(NewPattern(3, 2), inits[:3])
	rng := rand.New(rand.NewSource(17))
	pats := []*Pattern{p, q, randPattern(rng, 4, 2, 2), randPattern(rng, 4, 2, 2), randPattern(rng, 5, 3, 2)}
	for k := 0; k < 400; k++ {
		pat := pats[rng.Intn(len(pats))]
		if rng.Intn(4) == 0 {
			// In-place churn on a faulty agent's row, as the SO iterator does.
			if fs := pat.FaultySet(); len(fs) > 0 {
				i, j, m := fs[rng.Intn(len(fs))], AgentID(rng.Intn(pat.N())), rng.Intn(pat.Horizon())
				if pat.Delivered(m, i, j) {
					pat.Drop(m, i, j)
				} else {
					pat.Undrop(m, i, j)
				}
			}
		}
		check(pat, randInits(rng, pat.N()))
	}
}

// TestCanonicalizeDoesNotAllocate pins the steady state the quotiented
// sweeps and the expansion rely on: a warmed-up canonicalizer allocates
// nothing, whether the pattern memo hits or misses, and neither do its
// halves, its pattern key or the inits half over every vector at once.
func TestCanonicalizeDoesNotAllocate(t *testing.T) {
	rng := rand.New(rand.NewSource(19))
	pats := []*Pattern{NewPattern(5, 3), randPattern(rng, 5, 3, 1), randPattern(rng, 5, 3, 2)}
	inits := randInits(rng, 5)
	var c Canonicalizer
	var key []byte
	var perm []AgentID
	out := make([]VectorOrbit, 1<<5)
	run := func() {
		for _, p := range pats {
			c.Canonicalize(p, inits)
			c.Canonicalize(p, inits)
			key = c.AppendRepresentativeKey(key[:0])
			perm = c.Perm(perm)
			c.SearchPattern(p)
			c.MinimizeInits(inits)
			c.MinimizeInits(inits)
			key = c.AppendPatternKey(key[:0])
			c.MinimizeVectors(out)
		}
	}
	run()
	if allocs := testing.AllocsPerRun(20, run); allocs != 0 {
		t.Fatalf("warm Canonicalize allocates %.1f times per round", allocs)
	}
}
