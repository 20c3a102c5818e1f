package bench

import (
	"bytes"
	"strings"
	"testing"
)

// TestRunServerShape runs the server experiment at a deliberately tiny scale
// (pipe transport only would still be covered if TCP is unavailable) and
// checks the grid shape, the per-row invariants, and the rendered report.
func TestRunServerShape(t *testing.T) {
	cfg := tinyConfig()
	cfg.ServerKeys = 2_000
	cfg.ServerOps = 4_000
	cfg.ServerConns = []int{1, 2}
	cfg.ServerDepths = []int{1, 64}
	res := RunServer(cfg)

	if res.ID != "server" || res.Keys != cfg.ServerKeys {
		t.Fatalf("result header wrong: id=%q keys=%d", res.ID, res.Keys)
	}
	transports := 2 - len(res.Skipped)
	wantRows := transports * 3 /* mixes */ * 2 /* conns */ * 2 /* depths */
	if len(res.Rows) != wantRows {
		t.Fatalf("got %d rows, want %d (skipped: %v)", len(res.Rows), wantRows, res.Skipped)
	}

	type cellKey struct {
		transport, mix string
		conns, depth   int
	}
	cells := map[cellKey]bool{}
	for _, r := range res.Rows {
		if r.Ops <= 0 || r.Seconds <= 0 || r.OpsPerSec <= 0 {
			t.Fatalf("row %+v has non-positive measurements", r)
		}
		if r.AllocsPerOp < 0 {
			t.Fatalf("row %+v has negative allocs/op", r)
		}
		if r.GOMAXPROCS <= 0 {
			t.Fatalf("row %+v misses gomaxprocs", r)
		}
		if r.Engine != "pipelined" {
			t.Fatalf("row %+v has unknown engine", r)
		}
		k := cellKey{r.Transport, r.Mix, r.Conns, r.Depth}
		if cells[k] {
			t.Fatalf("cell %+v measured twice", k)
		}
		cells[k] = true
	}

	var buf bytes.Buffer
	WriteServer(&buf, res)
	out := buf.String()
	for _, want := range []string{"pipelined", "allocs/op", "ops/s"} {
		if !strings.Contains(out, want) {
			t.Fatalf("rendered server report misses %q:\n%s", want, out)
		}
	}
}
