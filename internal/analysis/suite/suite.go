// Package suite registers the full set of hyperion invariant analyzers, so
// the hyperion-lint multichecker and the repo self-check test run the exact
// same list.
package suite

import (
	"repro/internal/analysis"
	"repro/internal/analysis/bracket"
	"repro/internal/analysis/errsink"
	"repro/internal/analysis/noallocmark"
	"repro/internal/analysis/padalign"
)

// All returns every registered analyzer, in stable order.
func All() []*analysis.Analyzer {
	return []*analysis.Analyzer{
		errsink.Analyzer,
		noallocmark.Analyzer,
		padalign.Analyzer,
		bracket.Analyzer,
	}
}
