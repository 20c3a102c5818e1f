package bench

import (
	"fmt"
	"io"
)

// This file renders experiment results as plain-text tables and data series
// in the same shape as the paper's tables and figures, so a run of
// cmd/hyperion-bench can be compared side by side with the publication.

func mib(b int64) float64 { return float64(b) / (1 << 20) }

// WriteTable renders a TableResult (Tables 1 and 2).
func WriteTable(w io.Writer, t TableResult) {
	fmt.Fprintf(w, "\n%s\n", t.Title)
	for _, sec := range t.Sections {
		fmt.Fprintf(w, "\n  [%s]\n", sec.Name)
		fmt.Fprintf(w, "  %-12s %10s %10s %12s %10s %8s\n", "Structure", "Puts MOPS", "Gets MOPS", "Mem MiB", "B/key", "P/M")
		for _, r := range sec.Rows {
			if r.MemoryOnly() {
				fmt.Fprintf(w, "  %-12s %10s %10s %12.1f %10.1f %8s\n", r.Structure, "-", "-", mib(r.SelfMemory), r.BytesPerKey, "-")
				continue
			}
			fmt.Fprintf(w, "  %-12s %10.2f %10.2f %12.1f %10.1f %8.2f\n",
				r.Structure, r.PutsMOPS, r.GetsMOPS, mib(r.SelfMemory), r.BytesPerKey, r.PM)
		}
	}
}

// WriteRangeTable renders Table 3 (range-query durations).
func WriteRangeTable(w io.Writer, t TableResult) {
	fmt.Fprintf(w, "\n%s\n", t.Title)
	for _, sec := range t.Sections {
		fmt.Fprintf(w, "\n  [%s]\n", sec.Name)
		fmt.Fprintf(w, "  %-12s %14s %14s\n", "Structure", "Scan seconds", "Mkeys/s")
		for _, r := range sec.Rows {
			rate := float64(r.Keys) / r.RangeSeconds / 1e6
			fmt.Fprintf(w, "  %-12s %14.3f %14.2f\n", r.Structure, r.RangeSeconds, rate)
		}
	}
}

// WriteFigure13 renders the unlimited-insert bars.
func WriteFigure13(w io.Writer, f Figure13Result) {
	fmt.Fprintf(w, "\n%s\n", f.Title)
	write := func(name string, rows []Figure13Row) {
		fmt.Fprintf(w, "\n  [%s]\n", name)
		fmt.Fprintf(w, "  %-12s %14s %12s %6s\n", "Structure", "Keys in budget", "Mem MiB", "extr.")
		for _, r := range rows {
			mark := ""
			if r.Extrapolated {
				mark = "*"
			}
			fmt.Fprintf(w, "  %-12s %14d %12.1f %6s\n", r.Structure, r.Keys, mib(r.MemoryBytes), mark)
		}
	}
	write("Random integer keys", f.Integer)
	write("Sequential string keys (3-grams)", f.String)
	fmt.Fprintf(w, "  (* = data set exhausted before the budget; linear extrapolation)\n")
}

// WriteMemoryFigure renders Figures 14 and 16.
func WriteMemoryFigure(w io.Writer, f FigureMemoryResult) {
	fmt.Fprintf(w, "\n%s\n", f.Title)
	for _, fig := range f.Figures {
		fmt.Fprintf(w, "\n  [%s]  keys=%d  allocated=%.1f MiB  empty=%.1f MiB  footprint=%.1f MiB\n",
			fig.Name, fig.Keys, mib(fig.AllocatedBytes), mib(fig.EmptyBytes), mib(fig.Footprint))
		fmt.Fprintf(w, "  engine: %d containers, %d embedded, %d PC nodes, %d delta-encoded nodes, %d ejections, %d splits\n",
			fig.Stats.Containers, fig.Stats.EmbeddedContainers, fig.Stats.PathCompressed, fig.Stats.DeltaEncodedNodes, fig.Stats.Ejections, fig.Stats.Splits)
		fmt.Fprintf(w, "  %-5s %10s %12s %12s %12s %12s\n", "SB", "chunk B", "alloc chunks", "empty chunks", "alloc KiB", "empty KiB")
		for _, sb := range fig.Superbins {
			fmt.Fprintf(w, "  %-5d %10d %12d %12d %12.1f %12.1f\n",
				sb.ID, sb.ChunkSize, sb.AllocatedChunks, sb.EmptyChunks, float64(sb.AllocatedBytes)/1024, float64(sb.EmptyBytes)/1024)
		}
	}
}

// WriteFigure15 renders the throughput-over-index-size series.
func WriteFigure15(w io.Writer, f Figure15Result) {
	fmt.Fprintf(w, "\n%s\n", f.Title)
	write := func(name string, series []Figure15Series) {
		fmt.Fprintf(w, "\n  [%s]\n", name)
		for _, s := range series {
			fmt.Fprintf(w, "  %-12s final memory %.1f MiB\n", s.Structure, mib(s.Memory))
			fmt.Fprintf(w, "    %-12s", "index size:")
			for _, p := range s.Puts {
				fmt.Fprintf(w, " %10d", p.IndexSize)
			}
			fmt.Fprintf(w, "\n    %-12s", "puts/s:")
			for _, p := range s.Puts {
				fmt.Fprintf(w, " %10.0f", p.OpsPerSec)
			}
			fmt.Fprintf(w, "\n    %-12s", "gets/s:")
			for _, p := range s.Gets {
				fmt.Fprintf(w, " %10.0f", p.OpsPerSec)
			}
			fmt.Fprintln(w)
		}
	}
	write("Sequential integer keys", f.Sequential)
	write("Randomized integer keys", f.Randomized)
}

// WriteConcurrency renders the arenas × workers × mix grid.
func WriteConcurrency(w io.Writer, c ConcurrencyResult) {
	fmt.Fprintf(w, "\n%s\n", c.Title)
	if len(c.Points) > 0 {
		fmt.Fprintf(w, "  gomaxprocs %d, read lock mode %s\n", c.Points[0].GOMAXPROCS, c.Points[0].LockMode)
	}
	fmt.Fprintf(w, "  %6s %7s %12s %14s\n", "arenas", "workers", "mix", "ops/s")
	for _, p := range c.Points {
		fmt.Fprintf(w, "  %6d %7d %12s %14.0f\n", p.Arenas, p.Workers, p.Mix, p.OpsPerSec)
	}
}

// WriteLatency renders the per-op latency/allocation profiles. Reading the
// output: p50 is the steady-state cost of one operation, p99/max expose tail
// work (container growth, rehashing, GC assists), and allocs/op is the
// hot-path memory-discipline regression signal — 0.0 for Hyperion's Get and
// (steady-state) Put, including the Hyperion_p pre-processing variant.
func WriteLatency(w io.Writer, l LatencyResult) {
	fmt.Fprintf(w, "\n%s\n", l.Title)
	fmt.Fprintf(w, "  (clock overhead of %.0f ns per sample already subtracted)\n", l.ClockOverheadNs)
	fmt.Fprintf(w, "  %-12s %-4s %10s %10s %10s %10s %12s %12s %12s\n",
		"Structure", "op", "mean ns", "p50 ns", "p90 ns", "p99 ns", "max ns", "allocs/op", "B/op")
	for _, r := range l.Rows {
		fmt.Fprintf(w, "  %-12s %-4s %10.0f %10.0f %10.0f %10.0f %12.0f %12.2f %12.1f\n",
			r.Structure, r.Op, r.MeanNs, r.P50Ns, r.P90Ns, r.P99Ns, r.MaxNs, r.AllocsPerOp, r.BytesPerOp)
	}
}

// WriteAblation renders the feature-ablation study.
func WriteAblation(w io.Writer, a AblationResult) {
	fmt.Fprintf(w, "\n%s (data set: %s)\n", a.Title, a.Dataset)
	fmt.Fprintf(w, "  %-28s %10s %10s %10s %10s %12s %10s %8s\n",
		"Variant", "Puts MOPS", "Gets MOPS", "Scan s", "Mem MiB", "B/key", "Splits", "Deltas")
	for _, r := range a.Rows {
		fmt.Fprintf(w, "  %-28s %10.2f %10.2f %10.3f %10.1f %12.1f %10d %8d\n",
			r.Variant, r.KPI.PutsMOPS, r.KPI.GetsMOPS, r.KPI.RangeSeconds, mib(r.KPI.SelfMemory), r.KPI.BytesPerKey, r.Stats.Splits, r.Stats.DeltaEncodedNodes)
	}
}

// WriteBulkload renders the bulk-ingestion comparison. Reading the output:
// the "bulk" row's speedup is the headline (append-only container building
// vs the per-key edit machinery on the same sorted run), "bulk-merge" shows
// what remains of it when the run merges into an existing tree, and B/key
// must stay at or below the per-key row — right-sized containers should
// tighten the Figure 14 footprint, never inflate it.
func WriteBulkload(w io.Writer, b BulkloadResult) {
	fmt.Fprintf(w, "\n%s\n", b.Title)
	fmt.Fprintf(w, "  %-16s %-12s %12s %10s %14s %10s %10s\n",
		"Dataset", "mode", "keys", "seconds", "ops/s", "B/key", "speedup")
	for _, r := range b.Rows {
		fmt.Fprintf(w, "  %-16s %-12s %12d %10.3f %14.0f %10.1f %9.2fx\n",
			r.Dataset, r.Mode, r.Keys, r.Seconds, r.OpsPerSec, r.BytesPerKey, r.SpeedupVsPerKey)
	}
}

// WriteRecovery renders the snapshot save/restore comparison. The headline
// is the last column — how much faster a restart recovers from a snapshot
// than by re-ingesting the corpus per key — next to the durability cost:
// snapshot bytes/key against the live in-memory footprint.
func WriteRecovery(w io.Writer, r RecoveryResult) {
	fmt.Fprintf(w, "\n%s\n", r.Title)
	fmt.Fprintf(w, "  %-16s %10s %12s %10s %10s %10s %12s %12s %10s\n",
		"Dataset", "keys", "snap MiB", "snap B/k", "live B/k", "save s", "save k/s", "restore k/s", "speedup")
	for _, row := range r.Rows {
		fmt.Fprintf(w, "  %-16s %10d %12.2f %10.2f %10.2f %10.3f %12.0f %12.0f %9.2fx\n",
			row.Dataset, row.Keys, mib(row.SnapshotBytes), row.SnapshotBytesPerKey, row.LiveBytesPerKey,
			row.SaveSeconds, row.SaveKeysPerSec, row.RestoreKeysPerSec, row.RestoreSpeedupVsReingest)
	}
}

// WriteWAL renders the durability experiment. Reading the output: the
// fsync-per-op row is the naive durable baseline (every ack pays its own
// fsync); the group-commit rows show what sharing fsyncs buys — that ratio is
// the headline CI gates on. The wal-never/wal-interval rows price the logging
// itself (encode + buffer + background write) against the no-WAL reference,
// and the recovery rows compare reopening a logged directory against per-key
// re-ingestion of the same content.
func WriteWAL(w io.Writer, r WALResult) {
	fmt.Fprintf(w, "\n%s\n", r.Title)
	fmt.Fprintf(w, "  %-20s %-10s %8s %6s %9s %10s %12s %12s %10s\n",
		"Mode", "policy", "writers", "batch", "ops", "seconds", "ops/s", "vs fsync/op", "of nowal")
	for _, row := range r.Writes {
		speedup, frac := "-", "-"
		if row.SpeedupVsFsyncPerOp > 0 {
			speedup = fmt.Sprintf("%.2fx", row.SpeedupVsFsyncPerOp)
		}
		if row.FracOfNoWAL > 0 {
			frac = fmt.Sprintf("%.0f%%", row.FracOfNoWAL*100)
		}
		fmt.Fprintf(w, "  %-20s %-10s %8d %6d %9d %10.3f %12.0f %12s %10s\n",
			row.Mode, row.Policy, row.Writers, row.Batch, row.Ops, row.Seconds, row.OpsPerSec, speedup, frac)
	}
	fmt.Fprintf(w, "\n  %-16s %10s %12s %10s %12s %12s %10s\n",
		"Recovery", "keys", "tail recs", "open s", "keys/s", "reingest s", "speedup")
	for _, row := range r.Recovery {
		fmt.Fprintf(w, "  %-16s %10d %12d %10.3f %12.0f %12.3f %9.2fx\n",
			row.Scenario, row.Keys, row.TailRecords, row.OpenSeconds, row.KeysPerSec,
			row.ReingestSeconds, row.SpeedupVsReingest)
	}
}

// WriteScan renders the scan-engine comparison. Reading the output: the
// "chunked" cursor row's speedup is the headline (jump-structure re-seek vs
// the linear O(position) resume of the Save/Range shape), "seek" shows the
// same effect on point-range queries, "full" must hold roughly even (both
// engines do the same O(n) decode work — its allocs/op column is the
// zero-allocation signal CI gates on), and the "store" rows give the
// end-to-end Range and prefix-count throughput.
func WriteScan(w io.Writer, s ScanResult) {
	fmt.Fprintf(w, "\n%s\n", s.Title)
	fmt.Fprintf(w, "  %-14s %-8s %-8s %10s %12s %14s %10s %10s %10s\n",
		"Dataset", "shape", "engine", "keys", "pairs", "pairs/s", "MiB/s", "allocs/op", "speedup")
	for _, r := range s.Rows {
		speedup := "-"
		if r.SpeedupVsLinear > 0 {
			speedup = fmt.Sprintf("%.2fx", r.SpeedupVsLinear)
		}
		fmt.Fprintf(w, "  %-14s %-8s %-8s %10d %12d %14.0f %10.1f %10.4f %10s\n",
			r.Dataset, r.Shape, r.Engine, r.Keys, r.Pairs, r.PairsPerSec, r.MBPerSec, r.AllocsPerOp, speedup)
	}
}

// WriteServer renders the server front-end experiment.
func WriteServer(w io.Writer, s ServerResult) {
	fmt.Fprintf(w, "\n%s\n", s.Title)
	for _, skip := range s.Skipped {
		fmt.Fprintf(w, "  (skipped %s)\n", skip)
	}
	fmt.Fprintf(w, "  %-6s %-16s %-6s %6s %6s %10s %12s %11s\n",
		"transp", "engine", "mix", "conns", "depth", "ops", "ops/s", "allocs/op")
	for _, r := range s.Rows {
		fmt.Fprintf(w, "  %-6s %-16s %-6s %6d %6d %10d %12.0f %11.4f\n",
			r.Transport, r.Engine, r.Mix, r.Conns, r.Depth, r.Ops, r.OpsPerSec, r.AllocsPerOp)
	}
}
