package bench

import (
	"bytes"
	"strings"
	"testing"
)

// tinyConfig keeps the experiment-runner tests fast while still exercising
// every code path.
func tinyConfig() Config {
	return Config{
		StringKeys:   25000,
		IntKeys:      30000,
		Fig13Budget:  3 << 20,
		Fig13MaxKeys: 120000,
		Fig15Samples: 4,
		Seed:         1,
	}
}

func TestRunTable1ShapeAndKPIs(t *testing.T) {
	res := RunTable1(tinyConfig())
	if len(res.Sections) != 2 {
		t.Fatalf("expected 2 sections, got %d", len(res.Sections))
	}
	for _, sec := range res.Sections {
		var hyp, judy, rb *KPI
		for i := range sec.Rows {
			r := &sec.Rows[i]
			if !r.MemoryOnly() {
				if r.PutsMOPS <= 0 || r.GetsMOPS <= 0 || r.SelfMemory <= 0 {
					t.Fatalf("row %s has non-positive KPIs: %+v", r.Structure, r)
				}
			}
			switch r.Structure {
			case "Hyperion":
				hyp = r
			case "Judy":
				judy = r
			case "RB-Tree":
				rb = r
			}
		}
		if hyp == nil || judy == nil || rb == nil {
			t.Fatal("expected Hyperion, Judy and RB-Tree rows")
		}
		// Paper shape: Hyperion has the lowest bytes/key, the RB-tree the
		// highest of the three; Hyperion's normalised P/M is 1.0.
		if hyp.BytesPerKey >= judy.BytesPerKey || judy.BytesPerKey >= rb.BytesPerKey {
			t.Fatalf("bytes/key ordering violated: hyp=%.1f judy=%.1f rb=%.1f", hyp.BytesPerKey, judy.BytesPerKey, rb.BytesPerKey)
		}
		if hyp.PM < 0.99 || hyp.PM > 1.01 {
			t.Fatalf("Hyperion P/M must be normalised to 1.0, got %.3f", hyp.PM)
		}
	}
	var buf bytes.Buffer
	WriteTable(&buf, res)
	out := buf.String()
	for _, want := range []string{"Table 1", "Hyperion", "ART_opt", "HOT_opt", "P/M"} {
		if !strings.Contains(out, want) {
			t.Fatalf("rendered table misses %q:\n%s", want, out)
		}
	}
}

func TestRunTable2IncludesHyperionP(t *testing.T) {
	res := RunTable2(tinyConfig())
	if len(res.Sections) != 2 {
		t.Fatalf("expected 2 sections")
	}
	seqNames := map[string]bool{}
	for _, r := range res.Sections[0].Rows {
		seqNames[r.Structure] = true
	}
	rndNames := map[string]bool{}
	for _, r := range res.Sections[1].Rows {
		rndNames[r.Structure] = true
	}
	if seqNames["Hyperion_p"] {
		t.Fatal("Hyperion_p must not appear in the sequential integer section (paper Table 2)")
	}
	if !rndNames["Hyperion_p"] {
		t.Fatal("Hyperion_p missing from the randomized integer section")
	}
	var buf bytes.Buffer
	WriteTable(&buf, res)
	if !strings.Contains(buf.String(), "Hyperion_p") {
		t.Fatal("rendered table misses Hyperion_p")
	}
}

func TestRunTable3AllOrderedStructures(t *testing.T) {
	cfg := tinyConfig()
	cfg.Structures = map[string]bool{"Hyperion": true, "Judy": true, "HAT": true, "RB-Tree": true}
	res := RunTable3(cfg)
	if len(res.Sections) != 4 {
		t.Fatalf("expected 4 data-set sections, got %d", len(res.Sections))
	}
	for _, sec := range res.Sections {
		for _, r := range sec.Rows {
			if r.RangeSeconds <= 0 {
				t.Fatalf("%s/%s: non-positive range duration", sec.Name, r.Structure)
			}
		}
	}
	var buf bytes.Buffer
	WriteRangeTable(&buf, res)
	if !strings.Contains(buf.String(), "Scan seconds") {
		t.Fatal("rendered range table misses the duration column")
	}
}

func TestRunFigure13BudgetRespected(t *testing.T) {
	cfg := tinyConfig()
	cfg.Structures = map[string]bool{"Hyperion": true, "RB-Tree": true}
	res := RunFigure13(cfg)
	if len(res.Integer) == 0 || len(res.String) == 0 {
		t.Fatal("figure 13 must produce rows for both data sets")
	}
	rows := map[string]Figure13Row{}
	for _, r := range res.String {
		rows[r.Structure] = r
		if r.Keys <= 0 {
			t.Fatalf("%s: non-positive key count", r.Structure)
		}
	}
	// Paper shape: within the same budget Hyperion indexes more string keys
	// than the red-black tree.
	if rows["Hyperion"].Keys <= rows["RB-Tree"].Keys {
		t.Fatalf("Hyperion should index more string keys than the RB-Tree within the budget: %+v", rows)
	}
	var buf bytes.Buffer
	WriteFigure13(&buf, res)
	if !strings.Contains(buf.String(), "Keys in budget") {
		t.Fatal("rendered figure 13 misses its header")
	}
}

func TestRunFigure14And16(t *testing.T) {
	cfg := tinyConfig()
	f14 := RunFigure14(cfg)
	if len(f14.Figures) != 2 {
		t.Fatalf("figure 14 must have ordered and randomized subfigures")
	}
	for _, fig := range f14.Figures {
		if fig.TotalChunks <= 0 || len(fig.Superbins) == 0 {
			t.Fatalf("subfigure %s has no allocator data", fig.Name)
		}
	}
	f16 := RunFigure16(cfg)
	if len(f16.Figures) != 2 {
		t.Fatal("figure 16 must compare Hyperion and Hyperion_p")
	}
	// The paper's §4.4 result (pre-processing shrinks the chunk count by a
	// factor of 72) is a property of multi-billion-key runs where 2^26
	// four-byte prefixes collide heavily; at reproduction scale we verify
	// that both variants store the same keys and report their allocator
	// state; DESIGN.md "Experiment → paper mapping" sets out what the
	// reproduction scale can and cannot show.
	if f16.Figures[0].Keys != f16.Figures[1].Keys {
		t.Fatal("both variants must index the same number of keys")
	}
	for _, fig := range f16.Figures {
		if fig.Stats.Keys != int64(fig.Keys) || fig.TotalChunks <= 0 {
			t.Fatalf("subfigure %s reports inconsistent state: %+v", fig.Name, fig.Stats)
		}
	}
	var buf bytes.Buffer
	WriteMemoryFigure(&buf, f14)
	WriteMemoryFigure(&buf, f16)
	if !strings.Contains(buf.String(), "alloc chunks") {
		t.Fatal("rendered memory figure misses the chunk columns")
	}
}

func TestRunFigure15Series(t *testing.T) {
	cfg := tinyConfig()
	cfg.Structures = map[string]bool{"Hyperion": true, "ART": true}
	res := RunFigure15(cfg)
	for _, group := range [][]Figure15Series{res.Sequential, res.Randomized} {
		if len(group) == 0 {
			t.Fatal("empty series group")
		}
		for _, s := range group {
			if len(s.Puts) < 2 || len(s.Gets) < 2 {
				t.Fatalf("%s: expected multiple samples, got %d/%d", s.Structure, len(s.Puts), len(s.Gets))
			}
			last := s.Puts[len(s.Puts)-1]
			if last.IndexSize != cfg.IntKeys {
				t.Fatalf("%s: final sample at %d, want %d", s.Structure, last.IndexSize, cfg.IntKeys)
			}
			if s.Memory <= 0 {
				t.Fatalf("%s: non-positive memory", s.Structure)
			}
		}
	}
	var buf bytes.Buffer
	WriteFigure15(&buf, res)
	if !strings.Contains(buf.String(), "puts/s") {
		t.Fatal("rendered figure 15 misses the puts series")
	}
}

func TestRunAblation(t *testing.T) {
	cfg := tinyConfig()
	res := RunAblation(cfg, "random-int")
	if len(res.Rows) < 6 {
		t.Fatalf("expected at least 6 ablation variants, got %d", len(res.Rows))
	}
	byName := map[string]AblationRow{}
	for _, r := range res.Rows {
		byName[r.Variant] = r
		if r.KPI.PutsMOPS <= 0 || r.KPI.SelfMemory <= 0 {
			t.Fatalf("variant %s has invalid KPIs", r.Variant)
		}
	}
	if byName["no delta encoding"].Stats.DeltaEncodedNodes != 0 {
		t.Fatal("disabling delta encoding must remove all delta-encoded nodes")
	}
	if byName["no container splitting"].Stats.Splits != 0 {
		t.Fatal("disabling splitting must prevent splits")
	}
	if byName["full (paper default)"].Stats.DeltaEncodedNodes == 0 {
		t.Fatal("the default configuration should delta encode nodes")
	}
	var buf bytes.Buffer
	WriteAblation(&buf, res)
	if !strings.Contains(buf.String(), "no container splitting") {
		t.Fatal("rendered ablation misses a variant")
	}
}

func TestNormalizePM(t *testing.T) {
	rows := []KPI{
		{Structure: "Hyperion", PutsMOPS: 1, GetsMOPS: 1, SelfMemory: 100},
		{Structure: "Other", PutsMOPS: 2, GetsMOPS: 2, SelfMemory: 400},
	}
	NormalizePM(rows, "Hyperion")
	if rows[0].PM != 1.0 {
		t.Fatalf("reference P/M = %f", rows[0].PM)
	}
	if rows[1].PM <= 0.49 || rows[1].PM >= 0.51 {
		t.Fatalf("other P/M = %f, want 0.5", rows[1].PM)
	}
}
