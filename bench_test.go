// Package repro's top-level benchmarks regenerate every table and figure of
// the paper's evaluation (§4) as `testing.B` targets, at the harness's small
// scale so that `go test -bench=.` finishes quickly. Use cmd/hyperion-bench
// for larger, configurable runs; DESIGN.md "Experiment → paper mapping"
// maps each benchmark to its table or figure.
package repro

import (
	"io"
	"testing"

	"repro/hyperion"
	"repro/index"
	"repro/internal/bench"
	"repro/internal/workload"
)

func smallCfg() bench.Config { return bench.SmallConfig() }

// BenchmarkTable1_StringKPIs regenerates Table 1 (string data set KPIs,
// sequential and randomized n-grams, all structures).
func BenchmarkTable1_StringKPIs(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		res := bench.RunTable1(smallCfg())
		bench.WriteTable(io.Discard, res)
	}
}

// BenchmarkTable2_IntegerKPIs regenerates Table 2 (integer data set KPIs).
func BenchmarkTable2_IntegerKPIs(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		res := bench.RunTable2(smallCfg())
		bench.WriteTable(io.Discard, res)
	}
}

// BenchmarkTable3_RangeQueries regenerates Table 3 (full-index range scans).
func BenchmarkTable3_RangeQueries(b *testing.B) {
	b.ReportAllocs()
	cfg := smallCfg()
	cfg.Structures = map[string]bool{
		"Hyperion": true, "Hyperion_p": true, "Judy": true, "HAT": true,
		"ART_C": true, "HOT": true, "RB-Tree": true,
	}
	for i := 0; i < b.N; i++ {
		res := bench.RunTable3(cfg)
		bench.WriteRangeTable(io.Discard, res)
	}
}

// BenchmarkFigure13_UnlimitedInserts regenerates Figure 13 (keys indexable
// within a fixed memory budget).
func BenchmarkFigure13_UnlimitedInserts(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		res := bench.RunFigure13(smallCfg())
		bench.WriteFigure13(io.Discard, res)
	}
}

// BenchmarkFigure14_StringMemoryCharacteristics regenerates Figure 14
// (Hyperion per-superbin memory for the ordered and randomized string sets).
func BenchmarkFigure14_StringMemoryCharacteristics(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		res := bench.RunFigure14(smallCfg())
		bench.WriteMemoryFigure(io.Discard, res)
	}
}

// BenchmarkFigure15_ThroughputOverIndexSize regenerates Figure 15 (put/get
// throughput as a function of index size plus memory footprint bars).
func BenchmarkFigure15_ThroughputOverIndexSize(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		res := bench.RunFigure15(smallCfg())
		bench.WriteFigure15(io.Discard, res)
	}
}

// BenchmarkFigure16_KeyPreprocessingMemory regenerates Figure 16 (Hyperion vs
// Hyperion_p allocator state after random-integer inserts).
func BenchmarkFigure16_KeyPreprocessingMemory(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		res := bench.RunFigure16(smallCfg())
		bench.WriteMemoryFigure(io.Discard, res)
	}
}

// BenchmarkAblation_FeatureContributions regenerates the design-choice
// ablations of §3.3/§4.4 (delta encoding, PC nodes, embedded containers,
// jumps, container splitting, key pre-processing).
func BenchmarkAblation_FeatureContributions(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		res := bench.RunAblation(smallCfg(), "random-int")
		bench.WriteAblation(io.Discard, res)
	}
}

// BenchmarkLatency_PerOpProfiles regenerates the latency experiment: per-op
// latency percentiles (p50/p90/p99) and allocs/op for every structure, the
// regression target of the zero-allocation hot-path work.
func BenchmarkLatency_PerOpProfiles(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		res := bench.RunLatency(smallCfg())
		bench.WriteLatency(io.Discard, res)
	}
}

// ---- micro benchmarks: individual operations per structure ---------------

func benchPut(b *testing.B, kv index.KV, ds *workload.Dataset) {
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		j := i % ds.Len()
		kv.Put(ds.Key(j), ds.Value(j))
	}
}

func benchGet(b *testing.B, kv index.KV, ds *workload.Dataset) {
	for i := 0; i < ds.Len(); i++ {
		kv.Put(ds.Key(i), ds.Value(i))
	}
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		kv.Get(ds.Key(i % ds.Len()))
	}
}

func BenchmarkHyperionPut_SequentialIntegers(b *testing.B) {
	b.ReportAllocs()
	benchPut(b, hyperion.New(hyperion.IntegerOptions()), workload.SequentialIntegers(1_000_000))
}

func BenchmarkHyperionPut_RandomIntegers(b *testing.B) {
	b.ReportAllocs()
	benchPut(b, hyperion.New(hyperion.IntegerOptions()), workload.RandomIntegers(1_000_000, 1))
}

func BenchmarkHyperionPut_NGrams(b *testing.B) {
	b.ReportAllocs()
	benchPut(b, hyperion.New(hyperion.DefaultOptions()), workload.NGrams(workload.DefaultNGramOptions(500_000)))
}

func BenchmarkHyperionGet_RandomIntegers(b *testing.B) {
	b.ReportAllocs()
	benchGet(b, hyperion.New(hyperion.IntegerOptions()), workload.RandomIntegers(1_000_000, 1))
}

func BenchmarkHyperionGet_NGrams(b *testing.B) {
	b.ReportAllocs()
	benchGet(b, hyperion.New(hyperion.DefaultOptions()), workload.NGrams(workload.DefaultNGramOptions(500_000)))
}

func BenchmarkARTGet_RandomIntegers(b *testing.B) {
	b.ReportAllocs()
	benchGet(b, index.NewART(), workload.RandomIntegers(1_000_000, 1))
}

func BenchmarkJudyGet_RandomIntegers(b *testing.B) {
	b.ReportAllocs()
	benchGet(b, index.NewJudy(), workload.RandomIntegers(1_000_000, 1))
}

func BenchmarkHyperionRangeScan_NGrams(b *testing.B) {
	b.ReportAllocs()
	store := hyperion.New(hyperion.DefaultOptions())
	ds := workload.NGrams(workload.DefaultNGramOptions(300_000))
	for i := 0; i < ds.Len(); i++ {
		store.Put(ds.Key(i), ds.Value(i))
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		n := 0
		store.Each(func([]byte, uint64) bool { n++; return true })
		if n != store.Len() {
			b.Fatal("scan lost keys")
		}
	}
}
