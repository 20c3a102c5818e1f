// Package analysis is a self-contained, stdlib-only re-implementation of the
// golang.org/x/tools/go/analysis driver surface that Hyperion's invariant
// checkers build on.
//
// The repository deliberately has no third-party dependencies, so instead of
// importing x/tools this package mirrors the parts of its contract the suite
// needs — Analyzer, Pass, Diagnostic, an analysistest-style fixture harness
// (package analysistest) and a multichecker binary (cmd/hyperion-lint) — on
// top of go/ast, go/types and `go list`. Analyzer Run functions written
// against this package are line-for-line portable to the real framework.
//
// The suite exists because the codebase rests on hand-rolled protocols the
// compiler cannot see: where seqlock write brackets and epoch pins may be
// taken, WAL enqueue-under-write-lock ordering, zero-allocation hot paths.
// Each checker turns one of those invariants from a comment (or a runtime
// AllocsPerRun probe) into a compile-time gate. See DESIGN.md "Static
// analysis & invariant enforcement".
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
)

// Analyzer describes one invariant checker. The fields mirror
// golang.org/x/tools/go/analysis.Analyzer.
type Analyzer struct {
	// Name identifies the analyzer in diagnostics and in
	// //nolint:<name> suppression comments. It must be a valid Go
	// identifier.
	Name string

	// Doc is the help text: first line is a one-sentence summary.
	Doc string

	// Run applies the analyzer to one package and reports diagnostics
	// through pass.Report. The returned value is unused by this driver
	// (kept for x/tools signature compatibility).
	Run func(pass *Pass) (interface{}, error)
}

func (a *Analyzer) String() string { return a.Name }

// Pass provides one analyzer run with a single type-checked package.
type Pass struct {
	Analyzer *Analyzer

	Fset       *token.FileSet
	Files      []*ast.File
	Pkg        *types.Package
	TypesInfo  *types.Info
	TypesSizes types.Sizes

	// Report delivers one diagnostic. The driver applies //nolint
	// filtering after collection, so analyzers report unconditionally.
	Report func(Diagnostic)
}

// Reportf reports a formatted diagnostic at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...interface{}) {
	p.Report(Diagnostic{Pos: pos, Message: fmt.Sprintf(format, args...)})
}

// Diagnostic is one finding, anchored to a source position.
type Diagnostic struct {
	Pos     token.Pos
	Message string
}
