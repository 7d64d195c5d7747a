// Symmetry-quotiented system construction: the expansion half.
//
// The enumeration half lives in source.Quotient — execute only the
// canonical representative of each agent-permutation orbit, annotated
// with its orbit size. This file turns a representative System back into
// the full one, exactly: the paper's exchanges and action protocols are
// agent-symmetric, so the run of any scenario g is the run of its
// canonical representative with the agents relabeled. ExpandQuotient
// re-enumerates the full sweep WITHOUT executing it, maps each scenario
// to (representative, relabeling), and synthesizes the full system's
// decision ledgers and interned class tables by permuting the
// representative's — class ids assigned by the same index kernel
// (index.go) every other construction uses, so every verdict over the
// expanded system is bit-identical to the unquotiented build's (pinned by
// TestQuotientSystemBitIdentical and the CI quotient smoke).
//
// Local-state identity crosses the relabeling through model.KeyPermuter:
// agent i's state key in run g is the key of agent π(i)'s state in the
// representative, rewritten under π⁻¹. Exchanges whose keys don't
// implement KeyPermuter cannot expand — ExpandQuotient refuses rather
// than producing silently wrong class structure.

package episteme

import (
	"context"
	"fmt"
	"slices"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/model"
)

// ExpandQuotient rebuilds the full interpreted system from a quotiented
// one (BuildSystem with WithQuotient builds and expands in one call;
// sharded flows expand once, after MergeSystems reassembles the
// representative system). c must be the context the quotiented system
// was built in — the expansion re-enumerates c's scenario source and
// cross-checks every orbit against the representative weights, so a
// mismatched context fails loudly instead of mis-expanding. The expanded
// system carries no state traces (like a merged one): System.Key and the
// checkers ride the interned class tables.
func ExpandQuotient(ctx context.Context, rep *System, c Context) (*System, error) {
	if !rep.Quotiented() {
		return nil, fmt.Errorf("episteme: ExpandQuotient on a system that is not quotiented")
	}
	if c.Exchange == nil {
		return nil, fmt.Errorf("episteme: ExpandQuotient needs the context's exchange")
	}
	kp, ok := c.Exchange.(model.KeyPermuter)
	if !ok {
		return nil, fmt.Errorf("episteme: exchange %q does not implement model.KeyPermuter; its local-state keys cannot cross an agent relabeling", c.Exchange.Name())
	}
	n, horizon := rep.N, rep.Horizon
	if c.Exchange.N() != n || c.T != rep.T || c.horizonOrDefault() != horizon {
		return nil, fmt.Errorf("episteme: expansion context (n=%d,t=%d,h=%d) does not match quotiented system (n=%d,t=%d,h=%d)",
			c.Exchange.N(), c.T, c.horizonOrDefault(), n, rep.T, horizon)
	}
	if n > maxPermCodeAgents {
		return nil, fmt.Errorf("episteme: ExpandQuotient interns relabelings of at most %d agents, system has %d", maxPermCodeAgents, n)
	}
	om, err := mapOrbits(ctx, rep, c)
	if err != nil {
		return nil, err
	}
	return om.intern(ctx, rep, kp)
}

// orbitMap is pass 1's account of the full sweep: scenario ordinal g is
// representative gRep[g] relabeled by perms[gPerm[g]] (π with π·g =
// representative; invs holds π⁻¹, isID marks the identity), and runs[g] is
// its synthesized run.
type orbitMap struct {
	gRep, gPerm []int32
	perms, invs [][]model.AgentID
	isID        []bool
	runs        []*engine.Result
}

// mapOrbits is pass 1 of ExpandQuotient, which has validated c against
// rep.
func mapOrbits(ctx context.Context, rep *System, c Context) (*orbitMap, error) {
	n, horizon := rep.N, rep.Horizon
	// Representatives by scenario fingerprint: the full enumeration below
	// resolves each scenario's canonical form against this.
	repOf := make(map[string]int32, len(rep.Runs))
	for r, res := range rep.Runs {
		fp := scenarioFingerprint(res.Pattern, res.Inits)
		if _, dup := repOf[fp]; dup {
			return nil, fmt.Errorf("episteme: quotiented system carries representative %q twice", fp)
		}
		repOf[fp] = int32(r)
	}

	src, err := c.scenarioSource(n, horizon)
	if err != nil {
		return nil, err
	}

	// Pass 1 — re-enumerate the full sweep, mapping scenario ordinal g to
	// (gRep[g], perms[gPerm[g]]): its representative and the relabeling π
	// with π·g = representative. Runs are synthesized on the way: ledgers
	// are the representative's with agents relabeled (g's agent i is the
	// representative's agent π(i)), stats are permutation-invariant. The
	// loop is serial and runs once per scenario of the full sweep, so it
	// works from the canonicalizer's key bytes and carves the runs from
	// slabs instead of allocating per scenario.
	total, _ := src.Count() // a capacity hint; 0 when the source cannot say
	var (
		gRep   = make([]int32, 0, total)
		gPerm  = make([]int32, 0, total)
		perms  [][]model.AgentID // interned relabelings π
		invs   [][]model.AgentID // their inverses π⁻¹
		isID   []bool
		permID = make(map[uint64]int32)
		counts = make([]int64, len(rep.Runs))
		runs   = make([]*engine.Result, 0, total)
		canon  model.Canonicalizer
		fp     []byte
		perm   []model.AgentID
		slabs  runSlabs
	)
	for sc, more := src.Next(); more; sc, more = src.Next() {
		if len(runs)%expandCancelStride == 0 && ctx.Err() != nil {
			return nil, context.Cause(ctx)
		}
		canon.Canonicalize(sc.Pattern, sc.Inits)
		fp = canon.AppendRepresentativeKey(fp[:0])
		r, known := repOf[string(fp)]
		if !known {
			return nil, fmt.Errorf("episteme: scenario %q canonicalizes outside the representative set (context mismatch?)",
				scenarioFingerprint(sc.Pattern, sc.Inits))
		}
		if w, orbit := rep.Weight(int(r)), canon.Orbit(); orbit != w {
			return nil, fmt.Errorf("episteme: representative %d carries weight %d, its orbit has size %d", r, w, orbit)
		}
		counts[r]++
		perm = canon.Perm(perm)
		code := permCode(perm)
		pid, seen := permID[code]
		if !seen {
			pid = int32(len(perms))
			permID[code] = pid
			perms = append(perms, slices.Clone(perm))
			invs = append(invs, invertPerm(perm))
			isID = append(isID, isIdentity(perm))
		}
		gRep = append(gRep, r)
		gPerm = append(gPerm, pid)
		runs = append(runs, slabs.expandRun(rep.Runs[r], sc, perm))
	}
	if es, isErr := src.(core.ErrorSource); isErr {
		if err := es.Err(); err != nil {
			return nil, err
		}
	}
	for r, cnt := range counts {
		if w := rep.Weight(r); cnt != w {
			return nil, fmt.Errorf("episteme: representative %d stands for %d scenarios, enumeration visited %d (context mismatch?)", r, w, cnt)
		}
	}
	return &orbitMap{gRep: gRep, gPerm: gPerm, perms: perms, invs: invs, isID: isID, runs: runs}, nil
}

// intern is pass 2 of ExpandQuotient: the expansion's rows for the index
// kernel (index.go). For slot (m, i), run g's key is the representative's
// key at (m, π(i)) rewritten under π⁻¹. Inside a slot the relabeling fixes
// the source agent π(i), so (relabeling, rep class) alone determines the
// key and is the memo code, pid*stride + rc: each distinct pair pays for
// the string rewrite once, and every other run is two integer reads.
func (om *orbitMap) intern(ctx context.Context, rep *System, kp model.KeyPermuter) (*System, error) {
	n := rep.N
	gRep, gPerm, perms, invs, isID := om.gRep, om.gPerm, om.perms, om.invs, om.isID
	// strides[m] is the largest representative class count of time slice m:
	// the row length of that slice's code space.
	strides := make([]int, rep.Horizon+1)
	for slot, keys := range rep.classKey {
		strides[slot/n] = max(strides[slot/n], len(keys))
	}
	sys := &System{N: n, T: rep.T, Horizon: rep.Horizon, Runs: om.runs, par: rep.parallelism()}
	return sys.indexed(ctx, func(slot int) slotRows {
		m, i := slot/n, slot%n
		stride := strides[m]
		return slotRows{
			codes: len(perms) * stride,
			code: func(g int) int {
				pid := gPerm[g]
				return int(pid)*stride + int(rep.classOf[m*n+int(perms[pid][i])][gRep[g]])
			},
			key: func(g int) (string, error) {
				pid := gPerm[g]
				repSlot := m*n + int(perms[pid][i])
				key := rep.classKey[repSlot][rep.classOf[repSlot][gRep[g]]]
				if isID[pid] {
					return key, nil
				}
				key, err := kp.PermuteKey(key, invs[pid])
				if err != nil {
					return "", fmt.Errorf("episteme: expanding quotiented keys: %w", err)
				}
				return key, nil
			},
		}
	})
}

// expandCancelStride is how many scenarios pass 1 enumerates between
// looks at the context.
const expandCancelStride = 4096

// runSlabs backs the runs pass 1 synthesizes: each field of an expanded
// Result is carved from a chunk shared with its neighbours, since the
// expanded System keeps every run alive together anyway.
type runSlabs struct {
	results []engine.Result
	values  []model.Value
	rounds  []int
	rows    [][]model.Action
	actions []model.Action
}

// slabRuns is the number of runs' worth of storage one slab chunk holds.
const slabRuns = 1024

// carve cuts k elements off the front of *slab, replacing an exhausted
// slab with a fresh chunk sized for slabRuns such requests.
func carve[T any](slab *[]T, k int) []T {
	if len(*slab) < k {
		*slab = make([]T, k*slabRuns)
	}
	out := (*slab)[:k:k]
	*slab = (*slab)[k:]
	return out
}

// expandRun synthesizes the run of scenario sc from its representative's
// run: by agent symmetry run(sc) is run(rep) with the agents relabeled
// under π⁻¹ (sc's agent i is rep's agent π(i)). State traces are not
// reconstructed — the expanded system answers knowledge queries through
// its interned class tables, like a merged one.
func (sl *runSlabs) expandRun(repRes *engine.Result, sc core.Scenario, perm []model.AgentID) *engine.Result {
	n := repRes.N
	res := &carve(&sl.results, 1)[0]
	*res = engine.Result{
		N:             n,
		Horizon:       repRes.Horizon,
		Pattern:       sc.Pattern,
		Inits:         carve(&sl.values, n),
		Actions:       carve(&sl.rows, len(repRes.Actions)),
		Decision:      carve(&sl.values, n),
		DecisionRound: carve(&sl.rounds, n),
		Stats:         repRes.Stats, // message counts are permutation-invariant
	}
	copy(res.Inits, sc.Inits)
	for i := 0; i < n; i++ {
		res.Decision[i] = repRes.Decision[perm[i]]
		res.DecisionRound[i] = repRes.DecisionRound[perm[i]]
	}
	for m, row := range repRes.Actions {
		acts := carve(&sl.actions, n)
		for i := range acts {
			acts[i] = row[perm[i]]
		}
		res.Actions[m] = acts
	}
	return res
}

// scenarioFingerprint renders a scenario's identity — the pattern's
// canonical key plus the initial preferences — for representative lookup.
func scenarioFingerprint(p *model.Pattern, inits []model.Value) string {
	return string(model.AppendScenarioKey(nil, p, inits))
}

// maxPermCodeAgents is the largest agent count permCode can encode.
const maxPermCodeAgents = 16

// permCode packs a permutation of at most maxPermCodeAgents agents into
// an integer, four bits per entry, for interning.
func permCode(perm []model.AgentID) uint64 {
	var code uint64
	for _, a := range perm {
		code = code<<4 | uint64(a)
	}
	return code
}

// invertPerm returns π⁻¹.
func invertPerm(perm []model.AgentID) []model.AgentID {
	inv := make([]model.AgentID, len(perm))
	for i, a := range perm {
		inv[a] = model.AgentID(i)
	}
	return inv
}

func isIdentity(perm []model.AgentID) bool {
	for i, a := range perm {
		if int(a) != i {
			return false
		}
	}
	return true
}
