// Package bench is the benchmark harness that regenerates every table and
// figure of the paper's evaluation (§4): the string and integer KPI tables
// (Tables 1 and 2), the range-query table (Table 3), the unlimited-insert
// figure (Figure 13), the per-superbin fragmentation figures (Figures 14 and
// 16), the throughput-over-index-size figure (Figure 15) and the ablation
// studies discussed in §3.3/§4.4. Beyond the paper, the concurrency
// experiment (concurrency.go) measures the sharded/batched execution layer:
// ops/s over an arenas × workers grid, single-op vs batched.
//
// Absolute numbers depend on the host and on the reproduction scale; the
// harness is built to reproduce the paper's *shape*: who wins, by roughly
// which factor, and where the crossovers are. DESIGN.md "Experiment → paper
// mapping" maps each experiment to the paper's table or figure.
package bench

import (
	"fmt"
	"runtime"
	"time"

	"repro/index"
	"repro/internal/workload"
)

// KPI holds the key performance indicators the paper reports per structure
// and data set (§4.1 "Methodology").
type KPI struct {
	Structure    string
	Keys         int
	PutSeconds   float64
	GetSeconds   float64
	PutsMOPS     float64
	GetsMOPS     float64
	SelfMemory   int64   // structure-accounted bytes (allocator-exact for Hyperion)
	HeapMemory   int64   // Go heap growth while loading (process-level view)
	BytesPerKey  float64 // SelfMemory / Keys
	PM           float64 // (puts/s + gets/s) / memory, normalised to Hyperion = 1.0
	RangeSeconds float64 // full-index ordered scan (-1 when unsupported)
}

// MemoryOnly marks KPI rows that are analytic lower bounds (ARTopt, HOTopt in
// the paper's tables) rather than measured implementations.
func (k KPI) MemoryOnly() bool { return k.PutsMOPS == 0 && k.GetsMOPS == 0 }

func heapInUse() int64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return int64(ms.HeapAlloc)
}

// LoadKPI inserts the data set into kv, then looks every key up again (in
// insertion order, exactly like the paper's methodology), and measures a full
// ordered scan when the structure supports it.
func LoadKPI(kv index.KV, ds *workload.Dataset, withRange bool) KPI {
	kpi := KPI{Structure: kv.Name(), Keys: ds.Len(), RangeSeconds: -1}
	heapBefore := heapInUse()

	start := time.Now()
	for i := 0; i < ds.Len(); i++ {
		kv.Put(ds.Key(i), ds.Value(i))
	}
	kpi.PutSeconds = time.Since(start).Seconds()

	start = time.Now()
	miss := 0
	for i := 0; i < ds.Len(); i++ {
		if _, ok := kv.Get(ds.Key(i)); !ok {
			miss++
		}
	}
	kpi.GetSeconds = time.Since(start).Seconds()
	if miss > 0 {
		panic(fmt.Sprintf("bench: %s lost %d keys during the %s load", kv.Name(), miss, ds.Name()))
	}

	kpi.SelfMemory = kv.MemoryFootprint()
	kpi.HeapMemory = heapInUse() - heapBefore
	kpi.PutsMOPS = float64(ds.Len()) / kpi.PutSeconds / 1e6
	kpi.GetsMOPS = float64(ds.Len()) / kpi.GetSeconds / 1e6
	kpi.BytesPerKey = float64(kpi.SelfMemory) / float64(ds.Len())

	if withRange {
		if ordered, ok := kv.(index.Ordered); ok {
			start = time.Now()
			visited := 0
			ordered.Each(func([]byte, uint64) bool {
				visited++
				return true
			})
			kpi.RangeSeconds = time.Since(start).Seconds()
			if visited != kv.Len() {
				panic(fmt.Sprintf("bench: %s visited %d of %d keys during the range scan", kv.Name(), visited, kv.Len()))
			}
		}
	}
	return kpi
}

// NormalizePM fills in the performance-to-memory ratio of every row,
// normalised to the row named reference (Equation 5 of the paper).
func NormalizePM(rows []KPI, reference string) {
	var refPM float64
	for i := range rows {
		if rows[i].SelfMemory > 0 && !rows[i].MemoryOnly() {
			rows[i].PM = (rows[i].PutsMOPS*1e6 + rows[i].GetsMOPS*1e6) / float64(rows[i].SelfMemory)
		}
		if rows[i].Structure == reference {
			refPM = rows[i].PM
		}
	}
	if refPM == 0 {
		return
	}
	for i := range rows {
		rows[i].PM /= refPM
	}
}

// ThroughputSample is one point of the Figure 15 series: operations per
// second measured over one sampling window, as a function of index size.
type ThroughputSample struct {
	IndexSize int
	OpsPerSec float64
}

// LoadWithSamples inserts the data set and records the put throughput after
// every interval insertions, then does the same for gets (paper Figure 15).
func LoadWithSamples(kv index.KV, ds *workload.Dataset, interval int) (puts, gets []ThroughputSample) {
	if interval <= 0 {
		interval = ds.Len()/20 + 1
	}
	windowStart := time.Now()
	for i := 0; i < ds.Len(); i++ {
		kv.Put(ds.Key(i), ds.Value(i))
		if (i+1)%interval == 0 || i == ds.Len()-1 {
			elapsed := time.Since(windowStart).Seconds()
			n := interval
			if (i+1)%interval != 0 {
				n = (i + 1) % interval
			}
			puts = append(puts, ThroughputSample{IndexSize: i + 1, OpsPerSec: float64(n) / elapsed})
			windowStart = time.Now()
		}
	}
	windowStart = time.Now()
	for i := 0; i < ds.Len(); i++ {
		kv.Get(ds.Key(i))
		if (i+1)%interval == 0 || i == ds.Len()-1 {
			elapsed := time.Since(windowStart).Seconds()
			n := interval
			if (i+1)%interval != 0 {
				n = (i + 1) % interval
			}
			gets = append(gets, ThroughputSample{IndexSize: i + 1, OpsPerSec: float64(n) / elapsed})
			windowStart = time.Now()
		}
	}
	return puts, gets
}
