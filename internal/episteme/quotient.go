// Symmetry-quotiented system construction: the expansion half.
//
// The enumeration half lives in source.Quotient — execute only the
// canonical representative of each agent-permutation orbit, annotated
// with its orbit size. This file turns a representative System back into
// the full one, exactly: the paper's exchanges and action protocols are
// agent-symmetric, so the run of any scenario g is the run of its
// canonical representative with the agents relabeled. ExpandQuotient
// re-enumerates the full sweep WITHOUT executing it, maps each scenario
// to (representative, relabeling) — per pattern one canonical search and
// one lookup of the representative pattern's slots (repTable), per
// scenario the inits minimised and one slot read — and synthesizes the
// full system's interned class tables and their labels by permuting the
// representative's — class ids assigned by the same index kernel
// (index.go) every other construction uses, so every verdict over the
// expanded system is bit-identical to the per-run build's (pinned by
// TestQuotientSystemBitIdentical against an exchange whose KeyPermuter is
// hidden, and by the committed verdict goldens).
//
// Local-state identity crosses the relabeling through model.KeyPermuter:
// agent i's state key in run g is the key of agent π(i)'s state in the
// representative, rewritten under π⁻¹. Exchanges whose keys don't
// implement KeyPermuter cannot expand, so the builders never quotient them
// (expandable) — and ExpandQuotient refuses rather than producing
// silently wrong class structure.
//
// The expanded system is time-layered (indexFrame, "Rows"). The sweep
// crosses every earlier history with every last-round drop set, and in a
// synchronous context nothing an agent holds before time Horizon can
// depend on the last round's omissions; so pass 1 also groups the
// scenarios into prefix units — same inits, same faulty set, same drops
// before the last round — and pass 2 interns and labels the slots of
// times < Horizon over units. Only the last time slice is
// interned over runs, under a memo code that says which unit a run
// belongs to and what the last round dropped toward the slot's agent —
// and only when something first reads it (indexFrame.lastLayer).

package episteme

import (
	"context"
	"fmt"
	"slices"

	"repro/internal/core"
	"repro/internal/model"
)

// expandable returns the key relabeling ExpandQuotient rebuilds a
// quotiented system of context c with, or why it cannot: the exchange's
// keys do not cross an agent relabeling, or n, n·t are beyond what the
// expansion's memo codes pack. It is the builders' selection
// (buildOptions) and ExpandQuotient's guard, so a stripe is quotiented
// exactly when the merge can expand it.
func expandable(c Context) (model.KeyPermuter, error) {
	kp, ok := c.Exchange.(model.KeyPermuter)
	if !ok {
		return nil, fmt.Errorf("episteme: exchange %q does not implement model.KeyPermuter; its local-state keys cannot cross an agent relabeling", c.Exchange.Name())
	}
	if n := c.Exchange.N(); n > maxPermCodeAgents {
		return nil, fmt.Errorf("episteme: ExpandQuotient interns relabelings of at most %d agents, system has %d", maxPermCodeAgents, n)
	} else if n*c.T > 64 {
		return nil, fmt.Errorf("episteme: ExpandQuotient packs a run's last-round drops into 64 bits, n·t = %d", n*c.T)
	}
	return kp, nil
}

// ExpandQuotient rebuilds the full interpreted system from a quotiented
// one (BuildSystem builds and expands in one call; sharded flows expand
// once, after MergeSystems reassembles the representative system). c must
// be the context the quotiented system was built in — the expansion
// re-enumerates c's scenario source and cross-checks every orbit against
// the representative weights, so a mismatched context fails loudly instead
// of mis-expanding. The expansion's labels are the representatives',
// relabeled, and the index kernel refuses a class whose units act
// differently: an asymmetric stack or a key that hides what the protocol
// reads. Its time-Horizon slots are interned on first read, which the
// implements checks never make; until then the system keeps pass 1's
// per-run arrays and rep alive.
func ExpandQuotient(ctx context.Context, rep *System, c Context) (*System, error) {
	if !rep.Quotiented() {
		return nil, fmt.Errorf("episteme: ExpandQuotient on a system that is not quotiented")
	}
	if c.Exchange == nil {
		return nil, fmt.Errorf("episteme: ExpandQuotient needs the context's exchange")
	}
	kp, err := expandable(c)
	if err != nil {
		return nil, err
	}
	n, horizon := rep.N, rep.Horizon
	if c.Exchange.N() != n || c.T != rep.T || c.horizonOrDefault() != horizon {
		return nil, fmt.Errorf("episteme: expansion context (n=%d,t=%d,h=%d) does not match quotiented system (n=%d,t=%d,h=%d)",
			c.Exchange.N(), c.T, c.horizonOrDefault(), n, rep.T, horizon)
	}
	om, err := mapOrbits(ctx, rep, c)
	if err != nil {
		return nil, err
	}
	return om.intern(ctx, rep, kp)
}

// orbitMap is pass 1's account of the full sweep: scenario ordinal g is
// representative r relabeled by perms[pid] (code[g] = r·n! + pid; π·g =
// representative, invs holds π⁻¹, isID marks the identity), runs[g] is
// its run and units the frame's layout (indexFrame, "Rows").
type orbitMap struct {
	code        []int32
	nPerms      int32
	perms, invs [][]model.AgentID
	isID        []bool
	runs        []Run
	units       *layout
}

// rep returns scenario g's representative and relabeling id.
func (om *orbitMap) rep(g int) (r, pid int32) { return om.code[g] / om.nPerms, om.code[g] % om.nPerms }

// mapOrbits is pass 1 of ExpandQuotient, which has validated c against
// rep: it re-enumerates the full sweep, mapping scenario ordinal g to its
// representative and the relabeling π with π·g = representative, and
// writes g's run: g's own pattern and initial preferences, and its
// representative's stats (message counts are permutation-invariant). The
// source is read in batches of one orbitChunk-scenario chunk per worker of
// rep's pool. The workers canonicalize their chunks; a serial stitch in
// ordinal order numbers relabelings and prefixes, counts the orbits and
// writes the runs. Ids depend on ordinals alone and the lowest ordinal's
// error is reported, so the map and its errors are the same at every
// worker count.
//
// The source is pattern-major over all 2ⁿ initial vectors, each pattern's
// scenarios sharing one *model.Pattern (immutable from here on, as the
// runs keep it), and a pattern off that grid is refused: a pattern's
// prefix ordinal, recorded once, and a run's ordinal give its unit.
func mapOrbits(ctx context.Context, rep *System, c Context) (*orbitMap, error) {
	n, horizon := rep.N, rep.Horizon
	nPerms := model.Factorial(n)
	if int64(len(rep.Runs)) > (1<<31-1)/nPerms {
		return nil, fmt.Errorf("episteme: ExpandQuotient codes a run's orbit in 31 bits, %d representatives × %d! relabelings do not fit", len(rep.Runs), n)
	}
	reps, err := newRepTable(rep)
	if err != nil {
		return nil, err
	}

	src, err := c.scenarioSource(n, horizon)
	if err != nil {
		return nil, err
	}
	total, _ := src.Count() // a capacity hint; 0 when the source cannot say
	om := &orbitMap{
		code:   make([]int32, 0, total),
		nPerms: int32(nPerms),
		runs:   make([]Run, 0, total),
		units:  &layout{shift: uint(n)},
	}
	var (
		permID    = make(map[uint64]int32)
		counts    = make([]int64, len(rep.Runs))
		prefixID  = make(map[string]int32)
		pat       *model.Pattern // the last pattern stitched
		prefixKey []byte
		grid      = 1<<n - 1 // g&grid is g's initial vector
		offGrid   = func() error {
			return fmt.Errorf("episteme: pattern %d does not carry all 2^%d initial vectors", len(om.units.prefix)-1, n)
		}
		workers = make([]orbitWorker, rep.parallelism())
		chunks  = func(fn func(wk *orbitWorker)) error {
			return parallelDo(ctx, len(workers), len(workers), func(w int) { fn(&workers[w]) })
		}
	)
	for w := range workers {
		workers[w] = orbitWorker{sc: make([]core.Scenario, 0, orbitChunk),
			rep: make([]int32, orbitChunk), inits: make([]uint64, orbitChunk), perm: make([]model.AgentID, n*orbitChunk)}
	}
	for more := true; more; {
		for w := range workers {
			wk := &workers[w]
			wk.base, wk.sc = len(om.runs)+w*orbitChunk, wk.sc[:0]
			for more && len(wk.sc) < orbitChunk {
				var sc core.Scenario
				if sc, more = src.Next(); more {
					wk.sc = append(wk.sc, sc)
				}
			}
		}
		if err := chunks(func(wk *orbitWorker) { wk.canonicalize(rep, reps) }); err != nil {
			return nil, err
		}
		failed := false
		for w := range workers {
			wk := &workers[w]
			if failed {
				wk.sc, wk.err = wk.sc[:0], nil // past an error, of a higher ordinal
			}
			failed = failed || wk.err != nil
			for k, sc := range wk.sc {
				g, r := wk.base+k, wk.rep[k]
				counts[r]++
				perm := wk.perm[k*n : (k+1)*n]
				code := permCode(perm)
				pid, seen := permID[code]
				if !seen {
					pid = int32(len(om.perms))
					permID[code] = pid
					om.perms = append(om.perms, slices.Clone(perm))
					om.invs = append(om.invs, invertPerm(perm))
					om.isID = append(om.isID, slices.IsSorted(perm)) // a sorted permutation is the identity
				}
				om.code = append(om.code, r*om.nPerms+pid)

				if (sc.Pattern != pat) != (g&grid == 0) {
					return nil, offGrid()
				}
				if sc.Pattern != pat {
					pat = sc.Pattern
					prefixKey = pat.AppendPrefixKey(prefixKey[:0], horizon-1)
					id, known := prefixID[string(prefixKey)]
					if !known {
						id = int32(len(prefixID))
						prefixID[string(prefixKey)] = id
						for v := range 1 << n { // the prefix's units open here
							om.units.firsts = append(om.units.firsts, int32(g+v))
						}
					}
					om.units.prefix = append(om.units.prefix, id)
				}
				om.runs = append(om.runs, Run{sc.Pattern, rep.Runs[r].Stats, wk.inits[k]})
			}
		}
		for w := range workers {
			if err := workers[w].err; err != nil {
				return nil, err
			}
		}
	}
	if es, isErr := src.(core.ErrorSource); isErr {
		if err := es.Err(); err != nil {
			return nil, err
		}
	}
	if len(om.runs)&grid != 0 {
		return nil, offGrid()
	}
	om.units.n, om.units.pats = len(om.units.firsts), packMembers(om.units.prefix, len(prefixID))
	for r, cnt := range counts {
		if w := rep.Weight(r); cnt != w {
			return nil, fmt.Errorf("episteme: representative %d stands for %d scenarios, enumeration visited %d (context mismatch?)", r, w, cnt)
		}
	}
	return om, nil
}

// orbitChunk is how many scenarios one pass-1 worker takes per batch.
const orbitChunk = 2048

// orbitWorker is one pass-1 worker: its chunk of the current batch —
// scenarios base, base+1, … — what canonicalize learned of each, the
// chunk's first error, and the scratch it keeps from batch to batch.
type orbitWorker struct {
	base  int
	sc    []core.Scenario
	rep   []int32
	inits []uint64        // Run.inits per scenario
	perm  []model.AgentID // n per scenario
	err   error
	canon model.Canonicalizer
	key   []byte
}

// canonicalize finds each scenario's representative and relabeling,
// checking the scenario against the fault bound and the representative's
// weight: per pattern the canonicalizer's pattern half and the lookup of
// the representative pattern's slots, per scenario its inits half and one
// slot read. At the first failure it records the error and cuts the chunk
// there.
func (wk *orbitWorker) canonicalize(rep *System, reps *repTable) {
	n := rep.N
	var pat *model.Pattern
	base := 0 // pat's slots in reps
	for k, sc := range wk.sc {
		g := wk.base + k
		if sc.Pattern != pat {
			pat = sc.Pattern
			if f := pat.NumFaulty(); f > rep.T {
				wk.err, wk.sc = fmt.Errorf("episteme: scenario %d has %d faulty agents, the system bounds them by %d (context mismatch?)", g, f, rep.T), wk.sc[:k]
				return
			}
			wk.canon.SearchPattern(pat)
			wk.key = wk.canon.AppendPatternKey(wk.key[:0])
			base = int(reps.base[string(wk.key)])
		}
		own, isBits := initsBits(sc.Inits)
		wk.canon.MinimizeInits(sc.Inits)
		bits, ok := wk.canon.InitsBits()
		r := reps.slots[base+bits] - 1
		if !ok || !isBits || r < 0 {
			wk.err, wk.sc = fmt.Errorf("episteme: scenario %q canonicalizes outside the representative set (context mismatch?)",
				scenarioFingerprint(sc.Pattern, sc.Inits)), wk.sc[:k]
			return
		}
		if w, orbit := rep.Weight(int(r)), wk.canon.Orbit(); orbit != w {
			wk.err, wk.sc = fmt.Errorf("episteme: representative %d carries weight %d, its orbit has size %d", r, w, orbit), wk.sc[:k]
			return
		}
		wk.rep[k], wk.inits[k] = r, uint64(own)
		wk.canon.Perm(wk.perm[k*n : (k+1)*n])
	}
}

// repTable finds a representative by its pattern key and its inits as
// bits: base maps a representative pattern's key to the offset of its 2ⁿ
// slots, and slots[base+bits] is the index + 1 of the representative of
// that pattern whose inits are bits, 0 where there is none. The first 2ⁿ
// slots belong to no pattern, so a key the map lacks reads empty slots.
type repTable struct {
	base  map[string]int32
	slots []int32
}

// newRepTable indexes rep's runs, refusing a representative that is there
// twice.
func newRepTable(rep *System) (*repTable, error) {
	n := rep.N
	reps := &repTable{base: make(map[string]int32), slots: make([]int32, 1<<n)}
	var key []byte
	for r, res := range rep.Runs {
		bits := int(res.inits)
		key = res.Pattern.AppendKey(key[:0])
		base, known := reps.base[string(key)]
		if !known {
			base = int32(len(reps.slots))
			reps.base[string(key)] = base
			reps.slots = append(reps.slots, make([]int32, 1<<n)...)
		}
		slot := &reps.slots[int(base)+bits]
		if *slot != 0 {
			return nil, fmt.Errorf("episteme: quotiented system carries representative %d twice, as run %d", *slot-1, r)
		}
		*slot = int32(r) + 1
	}
	return reps, nil
}

// initsBits packs an initial vector into an integer, bit i set iff agent
// i prefers 1, and reports whether that identifies the vector: ok is
// false when some preference is neither 0 nor 1.
func initsBits(inits []model.Value) (bits int, ok bool) {
	for i, v := range inits {
		if !v.IsSet() {
			return 0, false
		}
		bits |= int(v) << i // Zero is 0, One is 1
	}
	return bits, true
}

// intern is pass 2 of ExpandQuotient: the expansion's rows for the index
// kernel (index.go). For slot (m, i), run g's key is the representative's
// key at (m, π(i)) rewritten under π⁻¹, and before the horizon its action
// is the representative's label there.
//
// Before the horizon a row is a unit, read at its first run. Inside a
// slot the relabeling fixes the source agent π(i), so (relabeling, rep
// class) alone determines the key and is the memo code, pid*stride + rc:
// each distinct pair pays for the string rewrite once, and every other
// unit is two integer reads.
//
// At the horizon a row is a run, and the code is unit(g)<<t | (the last
// round's drops toward i): agent i's final state is a function
// of the states before the last round — the unit's — and of which of the
// faulty agents' last-round messages reach i, nonfaulty senders always
// delivering; so equal codes imply equal keys. A unit's runs differ in at
// most those t bits per agent, which makes the code near-exact: it asks
// for about one key per class where (relabeling, rep class) asked for
// more than two. The drops are read off the run's own pattern, once per
// pattern: a pattern's runs are consecutive and share one *Pattern.
func (om *orbitMap) intern(ctx context.Context, rep *System, kp model.KeyPermuter) (*System, error) {
	n, t := rep.N, uint(rep.T)
	perms, invs, isID, runs, units := om.perms, om.invs, om.isID, om.runs, om.units
	rx, racts := rep.frame.(*indexFrame), rep.labels.acts // a producer reads the tables whole
	rx.lastLayer()
	// strides[m] is the largest representative class count of time slice m:
	// the row length of that slice's code space. Every unit reads its
	// representative's class twice, so the few representatives' ids are
	// read unpacked.
	strides, repOf := make([]int, rep.Horizon+1), make([][]int32, len(rx.slots))
	for slot := range rx.slots {
		strides[slot/n] = max(strides[slot/n], rx.slots[slot].keys.len())
		repOf[slot] = rx.slots[slot].ids.unpack(nil)
	}
	sys := &System{N: n, T: rep.T, Horizon: rep.Horizon, Runs: runs, par: rep.parallelism()}
	sys, err := sys.indexed(ctx, &indexFrame{units: units}, func(slot int) slotRows {
		m, i := slot/n, slot%n
		key := func(dst []byte, g int) ([]byte, error) {
			r, pid := om.rep(g)
			repSlot := m*n + int(perms[pid][i])
			repKey := rx.slots[repSlot].keys.at(repOf[repSlot][r])
			if isID[pid] {
				return append(dst, repKey...), nil
			}
			dst, err := kp.AppendPermuteKey(dst, repKey, invs[pid])
			if err != nil {
				return dst, fmt.Errorf("episteme: expanding quotiented keys: %w", err)
			}
			return dst, nil
		}
		if m == rep.Horizon {
			var pat *model.Pattern // the pattern drops were read off
			var drops int
			return slotRows{
				n:     len(runs),
				codes: units.n << t,
				code: func(g int) int {
					if p := runs[g].Pattern; p != pat {
						pat, drops = p, int(p.FaultyDropsTo(m-1, model.AgentID(i)))
					}
					return units.row(g)<<t | drops
				},
				key: key,
			}
		}
		stride := strides[m]
		// repClass returns unit u's relabeling, and its representative's slot
		// and class there.
		repClass := func(u int) (pid int32, src int, rc int32) {
			r, pid := om.rep(units.first(u))
			src = m*n + int(perms[pid][i])
			return pid, src, repOf[src][r]
		}
		return slotRows{
			n:     units.n,
			codes: len(perms) * stride,
			code: func(u int) int {
				pid, _, rc := repClass(u)
				return int(pid)*stride + int(rc)
			},
			key: func(dst []byte, u int) ([]byte, error) { return key(dst, units.first(u)) },
			act: func(u int) model.Action {
				_, src, rc := repClass(u)
				return racts[src][rc]
			},
		}
	})
	if err != nil {
		return nil, err
	}
	// The time-Horizon slots are interned when first read, too late to
	// refuse; KeyPermuter's error is a function of the key alone, so every
	// representative key of that slice is rewritten once here, under the
	// first relabeling that moves an agent.
	if pid := slices.Index(isID, false); pid >= 0 {
		var buf []byte
		for slot := rep.Horizon * n; slot < len(rx.slots); slot++ {
			for c := range int32(rx.slots[slot].keys.len()) {
				if buf, err = kp.AppendPermuteKey(buf[:0], rx.slots[slot].keys.at(c), invs[pid]); err != nil {
					return nil, fmt.Errorf("episteme: expanding quotiented keys: %w", err)
				}
			}
		}
	}
	return sys, nil
}

// scenarioFingerprint renders a scenario's identity — the pattern's
// canonical key plus the initial preferences — for the expansion's errors.
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
