package bench

import (
	"fmt"
	"runtime"
	"time"

	"repro/hyperion"
	"repro/internal/core"
	"repro/internal/workload"
)

// This file implements the scan experiment: ordered-iteration throughput of
// the seek-aware cursor engine (core/cursor.go) against the retained linear
// reference walk (core.Tree.RangeLinear), in the three shapes the system
// actually runs:
//
//   - "full": one pass over every pair — steady-state Next throughput, where
//     both engines do the same O(n) decode work and the cursor must not lose
//     ground (its allocs/op column is the regression signal CI gates on: a
//     warm cursor iterates without touching the heap).
//   - "chunked": the Save/Range resume shape — read chunkPairs pairs, restart
//     from the successor of the last key, repeat. The linear walk pays
//     O(position) re-decoding per resume; the cursor re-seeks through the
//     jump structures in O(depth × jump-probe). This is the row the
//     acceptance criterion (>= 1.5x at medium scale) and the CI speedup gate
//     apply to.
//   - "seek": point-range queries — seek to a random stored key, read
//     seekReadPairs pairs. Isolates seek cost without the amortising bulk of
//     a long scan.
//
// Two store-level rows complete the picture end to end: "full"/"store" is
// hyperion.Store.Range (chunked snapshots, lock round-trips, untransform) and
// "prefix"/"store" is the n-gram prefix-counting workload over
// Store.CountPrefix — the new workload the cursor's bounded scans open up.

// ScanRow is one (data set, shape, engine) measurement.
type ScanRow struct {
	Dataset string `json:"dataset"`
	// Shape is "full", "chunked", "seek" or "prefix" (see the file comment).
	Shape string `json:"shape"`
	// Engine is "cursor" (core cursor), "linear" (core RangeLinear reference)
	// or "store" (end-to-end hyperion.Store path).
	Engine      string  `json:"engine"`
	Keys        int     `json:"keys"`  // stored keys
	Pairs       int64   `json:"pairs"` // pairs emitted (or counted) in the timed phase
	Seconds     float64 `json:"seconds"`
	PairsPerSec float64 `json:"pairs_per_sec"`
	// MBPerSec is the emitted payload rate (key bytes + 8 value bytes per
	// pair) in MiB/s.
	MBPerSec float64 `json:"mb_per_sec"`
	// AllocsPerOp is heap allocations per emitted pair over the timed phase
	// (runtime malloc counters, like the latency experiment).
	AllocsPerOp float64 `json:"allocs_per_op"`
	// SpeedupVsLinear compares this row's pairs/s against the same data set
	// and shape's "linear" row (0 when there is no linear counterpart).
	SpeedupVsLinear float64 `json:"speedup_vs_linear,omitempty"`
}

// ScanResult is the full scan experiment.
type ScanResult struct {
	ID    string    `json:"id"`
	Title string    `json:"title"`
	Rows  []ScanRow `json:"rows"`
}

const (
	scanChunkPairs    = 512 // pairs per resume, the ParallelEach/Save chunk size
	scanSeekQueries   = 2000
	scanSeekReadPairs = 16
)

// timedScan runs fn once with GC-stable malloc accounting and builds a row.
// fn returns the number of pairs emitted and the payload bytes moved.
func timedScan(dataset, shape, engine string, keys int, fn func() (int64, int64)) ScanRow {
	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	start := time.Now()
	pairs, bytes := fn()
	sec := time.Since(start).Seconds()
	runtime.ReadMemStats(&after)
	row := ScanRow{
		Dataset: dataset,
		Shape:   shape,
		Engine:  engine,
		Keys:    keys,
		Pairs:   pairs,
		Seconds: sec,
	}
	if sec > 0 && pairs > 0 {
		row.PairsPerSec = float64(pairs) / sec
		row.MBPerSec = float64(bytes) / (1 << 20) / sec
		row.AllocsPerOp = float64(after.Mallocs-before.Mallocs) / float64(pairs)
	}
	return row
}

// loadScanTree builds a single core tree from the data set — the engine-level
// comparison deliberately excludes arenas, locks and key transforms.
func loadScanTree(cfg core.Config, ds *workload.Dataset) *core.Tree {
	tree := core.New(cfg)
	for i := 0; i < ds.Len(); i++ {
		tree.Put(ds.Key(i), ds.Value(i))
	}
	return tree
}

// fullScanCursor iterates everything through a warm cursor.
func fullScanCursor(tree *core.Tree) (int64, int64) {
	var pairs, payload int64
	c := core.NewCursor(tree)
	c.Seek(nil)
	for {
		k, _, _, ok := c.Next()
		if !ok {
			return pairs, payload
		}
		pairs++
		payload += int64(len(k)) + 8
	}
}

func fullScanLinear(tree *core.Tree) (int64, int64) {
	var pairs, payload int64
	tree.RangeLinear(nil, func(k []byte, _ uint64, _ bool) bool {
		pairs++
		payload += int64(len(k)) + 8
		return true
	})
	return pairs, payload
}

// chunkedScanCursor is the re-seek route of the lock-releasing iterators
// (taken when the shard was written between chunks): read scanChunkPairs
// pairs, remember the successor of the last key, re-seek.
func chunkedScanCursor(tree *core.Tree) (int64, int64) {
	var pairs, payload int64
	var resume []byte
	c := core.NewCursor(tree)
	for {
		c.Seek(resume)
		n := 0
		for n < scanChunkPairs {
			k, _, _, ok := c.Next()
			if !ok {
				return pairs, payload
			}
			pairs++
			payload += int64(len(k)) + 8
			n++
			if n == scanChunkPairs {
				resume = append(resume[:0], k...)
				resume = append(resume, 0)
			}
		}
	}
}

func chunkedScanLinear(tree *core.Tree) (int64, int64) {
	var pairs, payload int64
	var resume []byte
	for {
		n := 0
		tree.RangeLinear(resume, func(k []byte, _ uint64, _ bool) bool {
			pairs++
			payload += int64(len(k)) + 8
			n++
			if n == scanChunkPairs {
				resume = append(resume[:0], k...)
				resume = append(resume, 0)
				return false
			}
			return true
		})
		if n < scanChunkPairs {
			return pairs, payload
		}
	}
}

// seekScan runs point-range queries from shuffled stored keys.
func seekScanCursor(tree *core.Tree, starts *workload.Dataset, queries int) (int64, int64) {
	var pairs, payload int64
	c := core.NewCursor(tree)
	for q := 0; q < queries; q++ {
		c.Seek(starts.Key(q % starts.Len()))
		for i := 0; i < scanSeekReadPairs; i++ {
			k, _, _, ok := c.Next()
			if !ok {
				break
			}
			pairs++
			payload += int64(len(k)) + 8
		}
	}
	return pairs, payload
}

func seekScanLinear(tree *core.Tree, starts *workload.Dataset, queries int) (int64, int64) {
	var pairs, payload int64
	for q := 0; q < queries; q++ {
		n := 0
		tree.RangeLinear(starts.Key(q%starts.Len()), func(k []byte, _ uint64, _ bool) bool {
			pairs++
			payload += int64(len(k)) + 8
			n++
			return n < scanSeekReadPairs
		})
	}
	return pairs, payload
}

// RunScan measures the scan shapes per data set, cursor vs linear, plus the
// end-to-end store rows.
func RunScan(cfg Config) ScanResult {
	res := ScanResult{
		ID:    "scan",
		Title: fmt.Sprintf("Scan: cursor engine vs linear walk (%d string / %d integer keys, %d-pair chunks)", cfg.StringKeys, cfg.IntKeys, scanChunkPairs),
	}
	datasets := []struct {
		name string
		ds   *workload.Dataset
		core core.Config
		opts hyperion.Options
	}{
		{"sorted-ngram", workload.NGrams(workload.NGramOptions{N: cfg.StringKeys, MaxWords: 5, Seed: cfg.Seed}).Sorted(), core.DefaultConfig(), hyperion.DefaultOptions()},
		{"random-int", workload.RandomIntegers(cfg.IntKeys, cfg.Seed), core.IntegerConfig(), hyperion.IntegerOptions()},
	}
	for _, d := range datasets {
		tree := loadScanTree(d.core, d.ds)
		keys := int(tree.Len())
		starts := d.ds.Shuffled(cfg.Seed + 7)
		queries := scanSeekQueries
		if queries > starts.Len() {
			queries = starts.Len()
		}

		pair := func(shape string, cursor, linear func() (int64, int64)) {
			lin := timedScan(d.name, shape, "linear", keys, linear)
			cur := timedScan(d.name, shape, "cursor", keys, cursor)
			if cur.Pairs != lin.Pairs {
				panic(fmt.Sprintf("bench: %s/%s cursor emitted %d pairs, linear %d", d.name, shape, cur.Pairs, lin.Pairs))
			}
			if lin.Seconds > 0 {
				cur.SpeedupVsLinear = lin.Seconds / cur.Seconds
			}
			res.Rows = append(res.Rows, lin, cur)
		}
		pair("full",
			func() (int64, int64) { return fullScanCursor(tree) },
			func() (int64, int64) { return fullScanLinear(tree) })
		pair("chunked",
			func() (int64, int64) { return chunkedScanCursor(tree) },
			func() (int64, int64) { return chunkedScanLinear(tree) })
		pair("seek",
			func() (int64, int64) { return seekScanCursor(tree, starts, queries) },
			func() (int64, int64) { return seekScanLinear(tree, starts, queries) })

		// End-to-end store rows: the full Range pipeline (chunk snapshots,
		// untransform, callback) and the prefix-counting workload.
		store := hyperion.New(d.opts)
		for i := 0; i < d.ds.Len(); i++ {
			store.Put(d.ds.Key(i), d.ds.Value(i))
		}
		res.Rows = append(res.Rows, timedScan(d.name, "full", "store", store.Len(), func() (int64, int64) {
			var pairs, payload int64
			store.Range(nil, func(k []byte, _ uint64) bool {
				pairs++
				payload += int64(len(k)) + 8
				return true
			})
			return pairs, payload
		}))
		if d.name == "sorted-ngram" {
			// Count the population under sampled 3-byte prefixes: the n-gram
			// prefix-counting workload. Pairs = keys counted.
			prefixes := samplePrefixes(d.ds, 200, 3)
			res.Rows = append(res.Rows, timedScan(d.name, "prefix", "store", store.Len(), func() (int64, int64) {
				var counted int64
				for _, p := range prefixes {
					counted += int64(store.CountPrefix(p))
				}
				return counted, counted * 8
			}))
		}
	}
	return res
}

// samplePrefixes picks up to n distinct prefixes of the given byte length
// from evenly spaced data-set keys.
func samplePrefixes(ds *workload.Dataset, n, plen int) [][]byte {
	seen := map[string]bool{}
	var out [][]byte
	step := ds.Len()/n + 1
	for i := 0; i < ds.Len() && len(out) < n; i += step {
		k := ds.Key(i)
		if len(k) < plen {
			continue
		}
		p := string(k[:plen])
		if !seen[p] {
			seen[p] = true
			out = append(out, []byte(p))
		}
	}
	return out
}
