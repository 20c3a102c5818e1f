// Package seqlockpair verifies the seqlock publication protocol of the write
// path: every BeginWrite is matched by an EndWrite on all control-flow paths
// of the same function, and — in the package that implements the writer
// protocol — tree mutations and WAL enqueues happen only inside the open
// bracket.
//
// A torn bracket is the worst kind of concurrency bug this codebase can
// grow: an odd sequence number parks every optimistic reader on the locked
// fallback forever (a silent performance collapse), and a mutation outside
// the bracket publishes a half-built structure to lock-free readers (a
// correctness hole that only a race window exposes). Both are invisible to
// the compiler and usually to the tests.
//
// The bracket has one home, the shardWrite combinator: it opens and closes
// the pair itself (checked like any other function) and runs the func
// literals passed to it in between, so those literals are interpreted with
// the bracket open. Declaring shardWrite is also what switches on the
// mutation-under-bracket rule for a package. Construction-time mutations of
// trees no reader can observe yet, and helpers reached only from shardWrite
// bodies, are suppressed per function with `//nolint:seqlockpair <reason>`.
package seqlockpair

import (
	"go/ast"

	"repro/internal/analysis"
	"repro/internal/analysis/flowcheck"
)

// Analyzer is the seqlockpair entry point.
var Analyzer = &analysis.Analyzer{
	Name: "seqlockpair",
	Doc:  "check BeginWrite/EndWrite pairing on all control-flow paths and that tree mutations and WAL enqueues run inside the bracket shardWrite holds open",
	Run:  run,
}

const (
	seqPair    = "BeginWrite/EndWrite"
	combinator = "shardWrite"
)

func run(pass *analysis.Pass) (interface{}, error) {
	cfg := flowcheck.Config{
		Pairs:       []flowcheck.PairSpec{{Name: seqPair, Open: "BeginWrite", Close: "EndWrite"}},
		BodiesUnder: map[string]string{combinator: seqPair},
	}
	// The mutation-under-bracket rule applies only to the package that
	// shares trees with lock-free readers, detected by its declaring the
	// combinator. The tree implementation itself (repro/internal/core) and
	// single-owner users mutate trees freely.
	if declaresFunc(pass, combinator) {
		for _, m := range []string{"Put", "PutKey", "Delete", "BulkLoad", "BulkLoadMixed", "Clear"} {
			cfg.UnderOpen = append(cfg.UnderOpen, flowcheck.UnderOpenSpec{Call: m, RecvType: "Tree", Pair: seqPair})
		}
		for _, m := range []string{"walEnqueueOp", "walEnqueueBatch", "walEnqueuePairs"} {
			cfg.UnderOpen = append(cfg.UnderOpen, flowcheck.UnderOpenSpec{Call: m, RecvType: "Store", Pair: seqPair})
		}
	}
	cfg.Check(pass)
	return nil, nil
}

func declaresFunc(pass *analysis.Pass, name string) bool {
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			if fd, ok := decl.(*ast.FuncDecl); ok && fd.Name.Name == name {
				return true
			}
		}
	}
	return false
}
