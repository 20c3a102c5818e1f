package bench

import (
	"fmt"
	"runtime"
	"runtime/debug"
	"sync"
	"time"

	"repro/hyperion"
	"repro/index"
	"repro/internal/workload"
)

// This file implements the concurrent-throughput experiment: ops/s over a
// grid of arenas × workers × read/write mix, on the read-mostly mixes the
// paper's deployment motivates (§1: a KV-store node sustaining millions of
// ops/s): 100/0 and 95/5 read/write. Every row records the build's read-path
// lock mode, the mix, GOMAXPROCS and NumCPU so the scaling curves in
// BENCH_concurrency.json are attributable to a machine shape. (The retired
// epoch-vs-rwmutex comparison is recorded in DESIGN.md.)

// Mix identifiers. The write mix includes the write-side protocol cost: pin,
// seqlock bracket, deferred-free drain.
const (
	MixWrite     = "write"      // 100% single-op Put (the timed preload)
	MixRead      = "read-100-0" // 100% single-op Get
	MixMixed     = "mixed-95-5" // 95% Get / 5% overwrite Put
	MixBatchRead = "batch-read" // 100% GetBatch lookups
)

// ConcurrencyPoint is one row of the grid: one (arenas, workers, mix) cell.
// Throughput is operations per second over the full data set; read mixes
// report the best of several passes to damp scheduler noise.
type ConcurrencyPoint struct {
	Arenas  int `json:"arenas"`
	Workers int `json:"workers"`
	// GOMAXPROCS and NumCPU pin the machine shape the row was measured on:
	// scaling with workers is only observable when gomaxprocs > 1.
	GOMAXPROCS int `json:"gomaxprocs"`
	NumCPU     int `json:"numcpu"`
	// LockMode is the build's read-path mode (Store.ReadLockMode): "epoch"
	// (lock-free seqlock-validated reads) or "rwmutex" (per-shard read lock;
	// race-detector builds).
	LockMode string `json:"lock_mode"`
	// Mix is one of the Mix* constants; ReadFraction is its fraction of
	// read operations (1.0 for pure-read mixes, 0 for the write mix).
	Mix          string  `json:"mix"`
	ReadFraction float64 `json:"read_fraction"`
	OpsPerSec    float64 `json:"ops_per_sec"`
}

// ConcurrencyResult is the full grid of the concurrent-throughput experiment.
type ConcurrencyResult struct {
	ID        string             `json:"id"`
	Title     string             `json:"title"`
	Keys      int                `json:"keys"`
	BatchSize int                `json:"batch_size"`
	Points    []ConcurrencyPoint `json:"points"`
}

// concurrencyDefaults fills the zero-valued concurrency knobs of cfg.
func concurrencyDefaults(cfg Config) Config {
	if cfg.ConcKeys <= 0 {
		cfg.ConcKeys = 500_000
	}
	if cfg.ConcBatch <= 0 {
		cfg.ConcBatch = 1024
	}
	if len(cfg.ConcArenas) == 0 {
		cfg.ConcArenas = []int{1, 4, 8, 16}
	}
	if len(cfg.ConcWorkers) == 0 {
		cfg.ConcWorkers = []int{1, 2, 4, 8}
	}
	return cfg
}

// parallelFor runs fn(i) for i in [0, n) striped over the given number of
// goroutines, blocking until all stripes finish. With workers <= 1 it runs
// inline.
func parallelFor(workers, n int, fn func(i int)) {
	if workers <= 1 {
		for i := 0; i < n; i++ {
			fn(i)
		}
		return
	}
	chunk := (n + workers - 1) / workers
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		lo := w * chunk
		hi := min(lo+chunk, n)
		if lo >= hi {
			break
		}
		wg.Add(1)
		go func(lo, hi int) {
			defer wg.Done()
			for i := lo; i < hi; i++ {
				fn(i)
			}
		}(lo, hi)
	}
	wg.Wait()
}

func opsPerSec(n int, fn func()) float64 {
	start := time.Now()
	fn()
	return float64(n) / time.Since(start).Seconds()
}

// readReps is how many passes each read mix runs; the reported throughput is
// the best pass. The count is fixed: no extension depends on the outcome.
const readReps = 16

// RunConcurrency measures the arenas × workers × mix grid on the randomized
// integer data set, one store per (arenas, workers) cell.
func RunConcurrency(cfg Config) ConcurrencyResult {
	cfg = concurrencyDefaults(cfg)
	n := cfg.ConcKeys
	batch := cfg.ConcBatch
	ds := workload.RandomIntegers(n, cfg.Seed)

	lookups := make([][]byte, n)
	for i := 0; i < n; i++ {
		lookups[i] = ds.Key(i)
	}

	res := ConcurrencyResult{
		ID:        "concurrency",
		Title:     fmt.Sprintf("Concurrency: read/write scaling over arenas × workers (%d random integer keys, batch %d)", n, batch),
		Keys:      n,
		BatchSize: batch,
	}
	gmp := runtime.GOMAXPROCS(0)
	ncpu := runtime.NumCPU()

	for _, arenas := range cfg.ConcArenas {
		for _, workers := range cfg.ConcWorkers {
			o := hyperion.IntegerOptions()
			o.Arenas = arenas
			o.BatchWorkers = workers
			s := hyperion.New(o)
			row := func(mix string, readFraction, ops float64) {
				res.Points = append(res.Points, ConcurrencyPoint{
					Arenas:       arenas,
					Workers:      workers,
					GOMAXPROCS:   gmp,
					NumCPU:       ncpu,
					LockMode:     s.ReadLockMode(),
					Mix:          mix,
					ReadFraction: readFraction,
					OpsPerSec:    ops,
				})
			}
			measure := func(mix string, readFraction float64, pass func()) {
				// A GC cycle landing inside one pass is the dominant residual
				// noise at these pass lengths; collect up front and hold the
				// collector off for the (bounded) measurement window.
				runtime.GC()
				gcPct := debug.SetGCPercent(-1)
				best := 0.0
				for rep := 0; rep < readReps; rep++ {
					best = max(best, opsPerSec(n, pass))
				}
				debug.SetGCPercent(gcPct)
				row(mix, readFraction, best)
			}

			// The write mix doubles as the preload for the read mixes: one
			// pass by construction.
			row(MixWrite, 0, opsPerSec(n, func() {
				parallelFor(workers, n, func(i int) { s.Put(ds.Key(i), ds.Value(i)) })
			}))

			measure(MixRead, 1, func() {
				parallelFor(workers, n, func(i int) { s.Get(ds.Key(i)) })
			})

			measure(MixMixed, 0.95, func() {
				parallelFor(workers, n, func(i int) {
					if i%20 == 0 {
						s.Put(ds.Key(i), ds.Value(i))
					} else {
						s.Get(ds.Key(i))
					}
				})
			})

			// The batched read goes through the registry's optional
			// interface, the same dispatch any non-Hyperion batcher gets.
			measure(MixBatchRead, 1, func() {
				batched, ok := index.AsBatcher(s)
				if !ok {
					panic("bench: hyperion store does not implement index.Batcher")
				}
				for lo := 0; lo < n; lo += batch {
					batched.GetBatch(lookups[lo:min(lo+batch, n)])
				}
			})
		}
	}
	return res
}
