package bracket_test

import (
	"testing"

	"repro/internal/analysis/analysistest"
	"repro/internal/analysis/bracket"
)

// TestBracket covers rules 1 and 3: the seqlock bracket stays in
// shardWrite, and mutators, WAL enqueues and annotated helpers stay in its
// bodies.
func TestBracket(t *testing.T) {
	analysistest.Run(t, analysistest.TestData(t), bracket.Analyzer, "a", "b")
}

// TestBracketPin covers rule 2: only shardRead and shardWrite pin.
func TestBracketPin(t *testing.T) {
	analysistest.Run(t, analysistest.TestData(t), bracket.Analyzer, "pin")
}
