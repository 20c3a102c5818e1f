// Command hyperion-bench regenerates the tables and figures of the paper's
// evaluation section (§4) at a configurable scale, plus the concurrent
// throughput experiment of the sharded/batched execution layer.
//
// Usage:
//
//	hyperion-bench -experiment all -scale medium
//	hyperion-bench -experiment table1 -strings 2000000
//	hyperion-bench -experiment fig15 -ints 4000000 -structures Hyperion,ART,Judy
//	hyperion-bench -experiment ablation -dataset random-int
//	hyperion-bench -experiment concurrency -scale medium -json results/
//	hyperion-bench -experiment latency -scale small -json results/
//	hyperion-bench -experiment bulkload -scale medium -json results/
//	hyperion-bench -experiment recovery -scale medium -json results/
//	hyperion-bench -experiment scan -scale medium -json results/
//	hyperion-bench -experiment server -scale medium -json results/
//	hyperion-bench -experiment wal -scale medium -json results/
//
// Experiments: table1, table2, table3, fig13, fig14, fig15, fig16, ablation,
// concurrency, latency, bulkload, recovery, scan, server, wal, all. See
// DESIGN.md for the mapping of each experiment to the paper.
//
// With -json DIR every selected experiment additionally writes a
// machine-readable BENCH_<experiment>.json file (ops/s, footprint per
// structure, host parallelism) so successive PRs can compare performance
// trajectories.
package main

import (
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"
	"time"

	"repro/internal/bench"
)

// parseIntList parses a comma separated list of positive integers or exits
// with a usage error naming the offending flag.
func parseIntList(flagName, s string) []int {
	var out []int
	for _, part := range strings.Split(s, ",") {
		v, err := strconv.Atoi(strings.TrimSpace(part))
		if err != nil || v <= 0 {
			fmt.Fprintf(os.Stderr, "-%s: %q is not a positive integer\n", flagName, part)
			os.Exit(2)
		}
		out = append(out, v)
	}
	return out
}

func main() {
	var (
		experiment  = flag.String("experiment", "all", "experiment to run: table1|table2|table3|fig13|fig14|fig15|fig16|ablation|concurrency|latency|bulkload|recovery|scan|server|wal|all")
		scale       = flag.String("scale", "medium", "preset scale: small|medium|large")
		strKeys     = flag.Int("strings", 0, "override: number of string keys")
		intKeys     = flag.Int("ints", 0, "override: number of integer keys")
		budget      = flag.Int64("budget-mib", 0, "override: figure 13 memory budget in MiB")
		structures  = flag.String("structures", "", "comma separated subset of structures (default: all)")
		dataset     = flag.String("dataset", "random-int", "ablation data set: random-int|sequential-int|ngram")
		seed        = flag.Uint64("seed", 42, "workload seed")
		concKeys    = flag.Int("conc-keys", 0, "override: concurrency experiment data-set size")
		concBatch   = flag.Int("conc-batch", 0, "override: concurrency experiment batch size")
		latKeys     = flag.Int("lat-keys", 0, "override: latency experiment index size")
		latOps      = flag.Int("lat-ops", 0, "override: latency experiment timed operations per structure")
		concArenas  = flag.String("conc-arenas", "", "override: comma separated arena counts of the concurrency grid (e.g. 1,8,64)")
		concWorkers = flag.String("conc-workers", "", "override: comma separated worker counts of the concurrency grid (e.g. 1,4,16)")
		srvKeys     = flag.Int("server-keys", 0, "override: server experiment preloaded store size")
		srvOps      = flag.Int("server-ops", 0, "override: server experiment ops per grid row")
		srvConns    = flag.String("server-conns", "", "override: comma separated connection counts of the server grid (e.g. 1,4)")
		srvDepths   = flag.String("server-depths", "", "override: comma separated pipeline depths of the server grid (e.g. 1,64,256)")
		walKeys     = flag.Int("wal-keys", 0, "override: WAL experiment logged data-set size")
		walDurable  = flag.Int("wal-durable-ops", 0, "override: WAL experiment fsync-bound op count")
		walWriters  = flag.Int("wal-writers", 0, "override: WAL experiment group-commit writer count")
		walBatch    = flag.Int("wal-batch", 0, "override: WAL experiment ApplyBatch size")
		jsonDir     = flag.String("json", "", "directory for machine-readable BENCH_<experiment>.json output")
	)
	flag.Parse()

	var cfg bench.Config
	switch *scale {
	case "small":
		cfg = bench.SmallConfig()
	case "large":
		cfg = bench.LargeConfig()
	default:
		cfg = bench.MediumConfig()
	}
	cfg.Seed = *seed
	if *strKeys > 0 {
		cfg.StringKeys = *strKeys
	}
	if *intKeys > 0 {
		cfg.IntKeys = *intKeys
	}
	if *budget > 0 {
		cfg.Fig13Budget = *budget << 20
	}
	if *concKeys > 0 {
		cfg.ConcKeys = *concKeys
	}
	if *concBatch > 0 {
		cfg.ConcBatch = *concBatch
	}
	if *latKeys > 0 {
		cfg.LatKeys = *latKeys
	}
	if *latOps > 0 {
		cfg.LatOps = *latOps
	}
	if *concArenas != "" {
		cfg.ConcArenas = parseIntList("conc-arenas", *concArenas)
	}
	if *concWorkers != "" {
		cfg.ConcWorkers = parseIntList("conc-workers", *concWorkers)
	}
	if *srvKeys > 0 {
		cfg.ServerKeys = *srvKeys
	}
	if *srvOps > 0 {
		cfg.ServerOps = *srvOps
	}
	if *srvConns != "" {
		cfg.ServerConns = parseIntList("server-conns", *srvConns)
	}
	if *srvDepths != "" {
		cfg.ServerDepths = parseIntList("server-depths", *srvDepths)
	}
	if *walKeys > 0 {
		cfg.WALKeys = *walKeys
	}
	if *walDurable > 0 {
		cfg.WALDurableOps = *walDurable
	}
	if *walWriters > 0 {
		cfg.WALWriters = *walWriters
	}
	if *walBatch > 0 {
		cfg.WALBatch = *walBatch
	}
	if *structures != "" {
		cfg.Structures = map[string]bool{}
		for _, s := range strings.Split(*structures, ",") {
			cfg.Structures[strings.TrimSpace(s)] = true
		}
	}

	out := os.Stdout
	emit := func(id string, result any) {
		if *jsonDir == "" {
			return
		}
		path, err := bench.WriteJSONFile(*jsonDir, id, cfg, result)
		if err != nil {
			fmt.Fprintf(os.Stderr, "write %s JSON: %v\n", id, err)
			os.Exit(1)
		}
		fmt.Fprintf(os.Stderr, "wrote %s\n", path)
	}
	run := func(name string, fn func()) {
		start := time.Now()
		fmt.Fprintf(out, "\n===== %s =====\n", name)
		fn()
		fmt.Fprintf(out, "\n(%s finished in %.1fs)\n", name, time.Since(start).Seconds())
	}

	want := func(name string) bool { return *experiment == "all" || *experiment == name }

	ran := false
	if want("table1") {
		ran = true
		run("Table 1: string data set KPIs", func() {
			res := bench.RunTable1(cfg)
			bench.WriteTable(out, res)
			emit(res.ID, res)
		})
	}
	if want("table2") {
		ran = true
		run("Table 2: integer data set KPIs", func() {
			res := bench.RunTable2(cfg)
			bench.WriteTable(out, res)
			emit(res.ID, res)
		})
	}
	if want("table3") {
		ran = true
		run("Table 3: range query durations", func() {
			res := bench.RunTable3(cfg)
			bench.WriteRangeTable(out, res)
			emit(res.ID, res)
		})
	}
	if want("fig13") {
		ran = true
		run("Figure 13: unlimited inserts", func() {
			res := bench.RunFigure13(cfg)
			bench.WriteFigure13(out, res)
			emit(res.ID, res)
		})
	}
	if want("fig14") {
		ran = true
		run("Figure 14: memory characteristics (strings)", func() {
			res := bench.RunFigure14(cfg)
			bench.WriteMemoryFigure(out, res)
			emit(res.ID, res)
		})
	}
	if want("fig15") {
		ran = true
		run("Figure 15: throughput over index size", func() {
			res := bench.RunFigure15(cfg)
			bench.WriteFigure15(out, res)
			emit(res.ID, res)
		})
	}
	if want("fig16") {
		ran = true
		run("Figure 16: Hyperion vs Hyperion_p memory", func() {
			res := bench.RunFigure16(cfg)
			bench.WriteMemoryFigure(out, res)
			emit(res.ID, res)
		})
	}
	if want("ablation") {
		ran = true
		run("Ablation: Hyperion feature contributions", func() {
			res := bench.RunAblation(cfg, *dataset)
			bench.WriteAblation(out, res)
			emit(res.ID, res)
		})
	}
	if want("concurrency") {
		ran = true
		run("Concurrency: read/write scaling over arenas × workers", func() {
			res := bench.RunConcurrency(cfg)
			bench.WriteConcurrency(out, res)
			emit(res.ID, res)
		})
	}
	if want("latency") {
		ran = true
		run("Latency: per-op percentiles and allocs/op", func() {
			res := bench.RunLatency(cfg)
			bench.WriteLatency(out, res)
			emit(res.ID, res)
		})
	}
	if want("bulkload") {
		ran = true
		run("Bulk ingestion: per-key Put vs BulkLoad on sorted runs", func() {
			res := bench.RunBulkload(cfg)
			bench.WriteBulkload(out, res)
			emit(res.ID, res)
		})
	}
	if want("recovery") {
		ran = true
		run("Recovery: snapshot save/restore vs per-key re-ingestion", func() {
			res := bench.RunRecovery(cfg)
			bench.WriteRecovery(out, res)
			emit(res.ID, res)
		})
	}
	if want("scan") {
		ran = true
		run("Scan: cursor engine vs linear walk", func() {
			res := bench.RunScan(cfg)
			bench.WriteScan(out, res)
			emit(res.ID, res)
		})
	}
	if want("server") {
		ran = true
		run("Server: pipelined byte-level engine", func() {
			res := bench.RunServer(cfg)
			bench.WriteServer(out, res)
			emit(res.ID, res)
		})
	}
	if want("wal") {
		ran = true
		run("WAL: group-commit durability and crash recovery", func() {
			res := bench.RunWAL(cfg)
			bench.WriteWAL(out, res)
			emit(res.ID, res)
		})
	}
	if !ran {
		fmt.Fprintf(os.Stderr, "unknown experiment %q\n", *experiment)
		flag.Usage()
		os.Exit(2)
	}
}
