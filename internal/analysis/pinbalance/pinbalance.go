// Package pinbalance verifies epoch pin hygiene (PR 6): every Domain.Pin is
// matched by a Guard.Unpin on every control-flow path — including panic
// paths, which must release via defer.
//
// A leaked pin is the quietest resource bug in the codebase: nothing crashes,
// no test fails, but the epoch can never advance past the leaked reader, so
// retired tree nodes accumulate forever. The memory manager's reclamation
// stalls and the process slowly eats the heap. Returning the guard transfers
// ownership to the caller. Deliberate leaks (process-lifetime pins) are
// suppressed with `//nolint:pinbalance <reason>`.
package pinbalance

import (
	"repro/internal/analysis"
	"repro/internal/analysis/flowcheck"
)

// Analyzer is the pinbalance entry point.
var Analyzer = &analysis.Analyzer{
	Name: "pinbalance",
	Doc:  "check that every epoch pin (Pin) is released (Unpin) on all control-flow paths, including panic paths via defer",
	Run:  run,
}

func run(pass *analysis.Pass) (interface{}, error) {
	cfg := flowcheck.Config{
		PinFuncs:     []string{"Pin"},
		ReleaseFuncs: []string{"Unpin"},
	}
	cfg.Check(pass)
	return nil, nil
}
