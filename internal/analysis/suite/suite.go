// Package suite catalogues the contract analyzers: the machine-checked
// form of the repo's hardest-won conventions. Each analyzer enforces
// one contract that is otherwise guarded only by tests that catch
// violations probabilistically (-race, the CI shard-equivalence
// smokes); see the package docs of the individual analyzers for the
// precise rules and README's "Static analysis" section for the
// workflow. The package's test runs the suite over the whole module.
package suite

import (
	"golang.org/x/tools/go/analysis"

	"repro/internal/analysis/ctxcause"
	"repro/internal/analysis/determinism"
	"repro/internal/analysis/errtaxonomy"
)

// Analyzers returns the full suite in stable order.
func Analyzers() []*analysis.Analyzer {
	return []*analysis.Analyzer{
		ctxcause.Analyzer,
		determinism.Analyzer,
		errtaxonomy.Analyzer,
	}
}
