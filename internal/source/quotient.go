package source

import (
	"repro/internal/core"
	"repro/internal/model"
)

// Quotient filters the source down to the canonical representatives of
// the agent-permutation orbits (model.CanonicalizeScenario), annotating
// each survivor with its orbit size as the scenario Weight. A quotiented
// sweep executes up to n! fewer scenarios than the full one while
// standing for exactly the same set: the weights of the representatives
// sum to the full sweep's scenario count, which is how weighted
// aggregates (decision tallies, OutcomeRecord multiplicities, the model
// checker's expanded system) recover full-sweep numbers.
//
// Quotient composes with the other combinators, but order matters with
// the sharding ones: put it INSIDE Stride (quotient first), so the K
// stripes partition the quotient enumeration and every representative is
// executed exactly once across the stripes. The representative count is
// not predictable without running the enumeration, so Count is unknown —
// stripe sizes of a quotiented sweep are discovered, not declared.
//
// The source's scenarios must arrive on distinct orbits or distinct
// representatives are not guaranteed; exhaustive enumerations (CrossInits
// over SO/Crash patterns) satisfy this trivially since they never repeat
// a scenario.
//
// Handed the CrossInits product itself, Quotient first asks each pattern
// whether any of its scenarios can be canonical
// (model.Canonicalizer.CanonicalPattern) and skips a pattern that fails
// — faulty agents outside the top index block, or an identity that does
// not attain the minimal drop bitmap — before it is cloned or crossed
// with its 2ⁿ inits. No scenario of a skipped pattern could have
// survived, so the output (representatives, order and weights) is the
// same as filtering every scenario. Quotient takes over src: the product
// must not be drained elsewhere.
func Quotient(src Source) Source {
	q := &quotientSource{src: src}
	if cross, ok := src.(*crossInits); ok {
		cross.keep = q.canon.CanonicalPattern
	}
	return q
}

type quotientSource struct {
	src   Source
	canon model.Canonicalizer
}

func (s *quotientSource) Next() (core.Scenario, bool) {
	for {
		sc, ok := s.src.Next()
		if !ok {
			return core.Scenario{}, false
		}
		s.canon.Canonicalize(sc.Pattern, sc.Inits)
		if !s.canon.IsCanonical() {
			continue
		}
		sc.Weight = sc.EffectiveWeight() * s.canon.Orbit()
		return sc, true
	}
}

func (s *quotientSource) Count() (int64, bool) { return 0, false }

// Err surfaces the inner source's mid-stream failure, if it reports one,
// so Quotient is transparent to the Runner's error plumbing exactly like
// Stride.
func (s *quotientSource) Err() error {
	if es, ok := s.src.(core.ErrorSource); ok {
		return es.Err()
	}
	return nil
}
