package adversary

import (
	"fmt"
	"math/rand"
	"strconv"
	"strings"

	"repro/internal/model"
)

// SpecSyntax documents the adversary spec-string forms Parse accepts, for
// CLI help text. Like stack names in internal/registry, the forms live in
// one place so command-line tools cannot drift from the library.
const SpecSyntax = "none, example71, random, silent:<ids>, or pattern:<text>"

// Parse builds a failure pattern from a CLI-style adversary spec string:
//
//	none          — the failure-free pattern
//	example71     — agents 0..t-1 faulty and silent (Example 7.1)
//	random        — seeded random SO(t) with the given drop probability
//	silent:0,2    — the listed agents faulty and silent
//	pattern:<text> — a model.Pattern in its text form, e.g. an outcome
//	                record's, for the run's n and horizon and admitted by SO(t)
func Parse(spec string, n, t, horizon int, seed int64, drop float64) (*model.Pattern, error) {
	switch {
	case spec == "none":
		return FailureFree(n, horizon), nil
	case spec == "example71":
		return Example71(n, t, horizon), nil
	case spec == "random":
		return RandomSO(rand.New(rand.NewSource(seed)), n, t, horizon, drop), nil
	case strings.HasPrefix(spec, "silent:"):
		var agents []model.AgentID
		for _, part := range strings.Split(strings.TrimPrefix(spec, "silent:"), ",") {
			id, err := strconv.Atoi(strings.TrimSpace(part))
			if err != nil || id < 0 || id >= n {
				return nil, fmt.Errorf("adversary: bad agent id %q in %q", part, spec)
			}
			agents = append(agents, model.AgentID(id))
		}
		if len(agents) > t {
			return nil, fmt.Errorf("adversary: %d silent agents exceed t=%d", len(agents), t)
		}
		return Silent(n, horizon, agents...), nil
	case strings.HasPrefix(spec, "pattern:"):
		pat := new(model.Pattern)
		if err := pat.UnmarshalText([]byte(strings.TrimPrefix(spec, "pattern:"))); err != nil {
			return nil, fmt.Errorf("adversary: %w", err)
		}
		if pat.N() != n || pat.Horizon() != horizon {
			return nil, fmt.Errorf("adversary: the pattern is for n=%d, horizon=%d; the run has n=%d, horizon=%d", pat.N(), pat.Horizon(), n, horizon)
		}
		if err := model.SO(t).Admits(pat); err != nil {
			return nil, fmt.Errorf("adversary: %w", err)
		}
		return pat, nil
	default:
		return nil, fmt.Errorf("adversary: unknown spec %q (have %s)", spec, SpecSyntax)
	}
}
