package main

import (
	"fmt"
	"math"
	"slices"
	"sync"
	"time"
)

// config is one invocation's settings.
type config struct {
	seed      uint64
	seconds   int
	scale     float64 // 1, or 0.01 for -scale smoke
	outDir    string
	serverBin string

	// Fault injection for the oracle's self-tests; zero in every real run.
	corruptReply int64 // corrupt the reply of the n-th timed op of caller 0 before it is checked
	dropAcked    bool  // cut the last record off one WAL segment before the restart
}

// scaled applies -scale to a size constant.
func (c *config) scaled(n int) int { return max(int(float64(n)*c.scale), 64) }

// timedOps is a caller's fixed timed op count for a per-second budget.
func (c *config) timedOps(perSecond int) int { return c.scaled(perSecond * c.seconds) }

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is what one run reports; its JSON form is the contract's last line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`

	notes      []string    // human-readable context printed above the metrics (sample counts, sizes)
	windowRate [][]float64 // per caller, ops/s of each rate window; kept in the record file
}

func (r *result) set(name string, v float64, unit string) { r.Metrics[name] = metric{v, unit} }

func (r *result) notef(format string, a ...any) { r.notes = append(r.notes, fmt.Sprintf(format, a...)) }

// callerStats is what one closed-loop caller measured.
type callerStats struct {
	ops, keys, failed int64
	samples           []uint32 // op latencies in ns, in op order
	marks             []mark   // progress at the end of each rate window
}

// mark is a caller's cumulative progress at a point of its phase.
type mark struct {
	at        time.Duration // since the caller started
	ops, keys int64
}

// markEvery is the op count of one of a phase's rateWindows windows.
func markEvery(n int) int { return max(n/rateWindows, 1) }

// windowRates turns marks into per-window (ops/s, keys/s).
func (c *callerStats) windowRates() (ops, keys []float64) {
	prev := mark{}
	for _, m := range c.marks {
		if dt := (m.at - prev.at).Seconds(); dt > 0 {
			ops = append(ops, float64(m.ops-prev.ops)/dt)
			keys = append(keys, float64(m.keys-prev.keys)/dt)
		}
		prev = m
	}
	return ops, keys
}

// parallel runs fn once per caller and waits for all of them. A panic in a
// caller is returned as an error, so the deferred clean-up of the run (child
// processes, temp dirs) still happens.
func parallel(n int, fn func(w int) error) error {
	var wg sync.WaitGroup
	errs := make([]error, n)
	for w := 0; w < n; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer func() {
				if p := recover(); p != nil {
					errs[w] = fmt.Errorf("caller %d panicked: %v", w, p)
				}
			}()
			errs[w] = fn(w)
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// clockOverhead is the cost of one time.Now/time.Since pair, subtracted from
// every embedded latency sample (an op is ~1 us, the pair ~50 ns).
var clockOverhead = sync.OnceValue(func() time.Duration {
	d := make([]time.Duration, 2001)
	for i := range d {
		t := time.Now()
		d[i] = time.Since(t)
	}
	slices.Sort(d)
	return d[len(d)/2]
})

func median(v []float64) float64 {
	s := slices.Clone(v)
	slices.Sort(s)
	if n := len(s); n%2 == 1 {
		return s[n/2]
	} else if n > 0 {
		return (s[n/2-1] + s[n/2]) / 2
	}
	return math.NaN()
}

func percentile(sorted []uint32, p float64) float64 {
	if len(sorted) == 0 {
		return math.NaN()
	}
	return float64(sorted[min(int(p*float64(len(sorted))), len(sorted)-1)])
}

// Tail quantiles of op_tail_us, chosen from ten-run calibrations (README,
// "Calibration"). Embedded samples are single ops, and p99.9 repeats within
// 7 % where p99 does not: on embed-churn-int p99 sits on the cliff between
// the fast path (~5 us at p98) and the slow one (splits, ejections, reallocs:
// ~50 us at p99.5) and swings by a quarter from run to run. Server samples are
// bursts of 32 ops on two CPUs shared by four busy threads; their p99.9 is set
// by scheduler time slices (spread up to 27 %), their p99 is not.
const (
	embeddedTail = 0.999
	burstTail    = 0.99
)

// latency folds the callers' samples into (p50, tail quantile) in
// microseconds. A stall of the whole process lengthens only the op in flight,
// so it moves neither.
func latency(callers []callerStats, tail float64) (p50, ptail float64, count int) {
	var all []uint32
	for _, c := range callers {
		all = append(all, c.samples...)
	}
	slices.Sort(all)
	return percentile(all, 0.5) / 1e3, percentile(all, tail) / 1e3, len(all)
}

// phases runs what every workload runs between set-up and recovery: an
// untimed warm-up of 1/warmupShare of the timed op count, then the timed phase
// of n ops per caller, each phase on its own random sequence, and derives the
// timed metrics. call drives caller w through its next n ops; beforeTimed runs
// between the two phases.
func (r *result) phases(cfg *config, streams []opStream, n int, tail float64, beforeTimed func() error, call func(w, n int) (callerStats, error)) error {
	phase := func(id uint64, n int) ([]callerStats, time.Duration, error) {
		out := make([]callerStats, len(streams))
		t0 := time.Now()
		err := parallel(len(streams), func(w int) (err error) {
			streams[w].setRNG(newRNG(cfg.seed, id+uint64(w)))
			out[w], err = call(w, n)
			return err
		})
		return out, time.Since(t0), err
	}
	warm, _, err := phase(phaseWarmup, n/warmupShare)
	if err != nil {
		return err
	}
	for _, c := range warm {
		r.Attempted += c.ops
		r.Failed += c.failed
	}
	if err := beforeTimed(); err != nil {
		return err
	}
	timed, wall, err := phase(phaseTimed, n)
	if err != nil {
		return err
	}
	r.timedMetrics(timed, wall, tail)
	return nil
}

// timedMetrics fills the metrics every workload derives the same way from its
// callers and the wall time of the timed phase.
func (r *result) timedMetrics(callers []callerStats, wall time.Duration, tail float64) {
	var ops, keys int64
	var opRate, keyRate float64
	for i := range callers {
		c := &callers[i]
		ops += c.ops
		keys += c.keys
		r.Attempted += c.ops
		r.Failed += c.failed
		wo, wk := c.windowRates()
		r.windowRate = append(r.windowRate, wo)
		opRate += median(wo)
		keyRate += median(wk)
	}
	p50, ptail, n := latency(callers, tail)
	r.set("ops_per_s", opRate, "ops/s")
	r.set("keys_per_s", keyRate, "keys/s")
	r.set("op_p50_us", p50, "us")
	r.set("op_tail_us", ptail, "us")
	r.notef("timed phase: %d ops, %d keys in %.3f s; %d latency samples, tail = p%g", ops, keys, wall.Seconds(), n, 100*tail)
}

// check counts one verification outside the timed phase.
func (r *result) check(ok bool, format string, a ...any) {
	r.Attempted++
	if !ok {
		r.Failed++
		r.notef("FAILED: "+format, a...)
	}
}

func seconds(d []time.Duration) []float64 {
	out := make([]float64, len(d))
	for i, x := range d {
		out[i] = x.Seconds()
	}
	return out
}
