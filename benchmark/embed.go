package main

// The three embedded workloads: a hyperion.Store in this process, two
// goroutines calling it in a closed loop.

import (
	"bytes"
	"fmt"
	"path/filepath"
	"runtime"
	"time"

	"repro/hyperion"
)

type embedded struct {
	gen    int  // keys generated at full scale
	rate   int  // timed ops per caller per requested second
	stride int  // every stride-th op is timed on its own
	perKey bool // load by shuffled per-key Put (the paper's method) instead of sorted BulkLoad
	// setup_s and recovery_s are medians over this many repeats per run: more
	// where one repeat is short, so that each metric rests on ~1 s of work.
	setups, recoveries int
	opts               func() hyperion.Options
	keys               func(n int, seed uint64) *keySet
	stream             func(ks *keySet, seed uint64, caller int) opStream
}

var embedGet = &embedded{
	gen: getNgrams, rate: getOpsPerSecond, stride: 64, perKey: true, setups: 3, recoveries: 7,
	opts: ngramOptions, keys: ngramKeys,
	stream: func(ks *keySet, seed uint64, _ int) opStream { return &getStream{ks: ks, seed: seed} },
}

var embedChurn = &embedded{
	gen: churnInts, rate: churnOpsPerSecond, stride: 64, setups: 7, recoveries: 5,
	opts: intOptions,
	keys: func(n int, seed uint64) *keySet { return intKeys(n, seed, 0) },
	stream: func(ks *keySet, seed uint64, caller int) opStream {
		return &churnStream{pre: ks, seed: seed, stream: uint64(1 + caller)}
	},
}

var embedScan = &embedded{
	gen: scanNgrams, rate: scanOpsPerSecond, stride: 8, setups: 7, recoveries: 7,
	opts: ngramOptions, keys: ngramKeys,
	stream: func(ks *keySet, _ uint64, _ int) opStream { return &scanStream{ks: ks} },
}

// load builds the store the timed phase runs against; key i of the sorted set
// is stored with valueOf(seed, i, 0).
func (e *embedded) load(ks *keySet, seed uint64) *hyperion.Store {
	s := hyperion.New(e.opts())
	if e.perKey {
		for _, i := range shuffledIndex(ks.len(), newRNG(seed, 3)) {
			s.Put(ks.key(int(i)), valueOf(seed, int(i), 0))
		}
		return s
	}
	s.BulkLoad(pairsOf(ks, seed))
	return s
}

func pairsOf(ks *keySet, seed uint64) []hyperion.Pair {
	pairs := make([]hyperion.Pair, ks.len())
	for i := range pairs {
		pairs[i] = hyperion.Pair{Key: ks.key(i), Value: valueOf(seed, i, 0)}
	}
	return pairs
}

// executor runs ops against the store and checks each reply against what the
// op's stream predicted.
type executor struct {
	store *hyperion.Store
	ks    *keySet
	seed  uint64
	visit func(key []byte, value uint64) bool // onKey, bound once so scans do not allocate

	pos, end int // the scan in progress must emit keys pos..end of the sorted set
	bad      bool

	corruptIn int64 // self-test: garble the reply of the corruptIn-th Get from now (0: never)
}

func newExecutor(s *hyperion.Store, ks *keySet, seed uint64) *executor {
	x := &executor{store: s, ks: ks, seed: seed}
	x.visit = x.onKey
	return x
}

func (x *executor) onKey(key []byte, value uint64) bool {
	if x.pos >= x.end || !bytes.Equal(key, x.ks.key(x.pos)) || value != valueOf(x.seed, x.pos, 0) {
		x.bad = true
		return false
	}
	x.pos++
	return x.pos < x.end
}

// do executes one op and reports the keys it touched and whether the store's
// reply was the predicted one.
func (x *executor) do(o *op) (keys int, ok bool) {
	switch o.kind {
	case opGet:
		v, found := x.store.Get(o.key)
		if x.corruptIn > 0 {
			if x.corruptIn--; x.corruptIn == 0 {
				v ^= 1
			}
		}
		return 1, found && v == o.val
	case opGetAbsent:
		_, found := x.store.Get(o.key)
		return 1, !found
	case opPut:
		x.store.Put(o.key, o.val)
		return 1, true
	case opDelete:
		return 1, x.store.Delete(o.key)
	case opRange, opScan:
		x.pos, x.end, x.bad = o.lo, o.lo+o.n, false
		if o.kind == opRange {
			x.store.Range(o.key, x.visit)
		} else {
			x.store.ScanPrefix(o.key, x.visit)
		}
		return o.n, !x.bad && x.pos == x.end
	default: // opCount
		n := x.store.CountPrefix(o.key)
		return n, n == o.n
	}
}

// drive is one caller's closed loop over n ops of its stream.
func drive(x *executor, st opStream, n, stride int) callerStats {
	cs := callerStats{samples: make([]uint32, 0, n/stride+1)}
	over := clockOverhead()
	every := markEvery(n)
	nextMark, start := every, time.Now()
	var o op
	for i := 0; i < n; i++ {
		if i == nextMark {
			cs.marks = append(cs.marks, mark{time.Since(start), int64(i), cs.keys})
			nextMark += every
		}
		st.next(&o)
		var keys int
		var ok bool
		if i%stride == 0 {
			t0 := time.Now()
			keys, ok = x.do(&o)
			cs.samples = append(cs.samples, uint32(max(time.Since(t0)-over, 1)))
		} else {
			keys, ok = x.do(&o)
		}
		cs.keys += int64(keys)
		if !ok {
			cs.failed++
		}
	}
	cs.ops = int64(n)
	cs.marks = append(cs.marks, mark{time.Since(start), cs.ops, cs.keys})
	return cs
}

func (e *embedded) run(cfg *config) (*result, error) {
	res := newResult()
	var (
		ks     = e.keys(cfg.scaled(e.gen), cfg.seed)
		store  *hyperion.Store
		setups = make([]time.Duration, e.setups)
	)
	for i := range setups {
		store = nil
		runtime.GC() // the previous repeat's store must not be collected on this one's clock
		t0 := time.Now()
		store = e.load(ks, cfg.seed)
		first, okF := store.Get(ks.key(0))
		last, okL := store.Get(ks.key(ks.len() - 1))
		probe := okF && okL && first == valueOf(cfg.seed, 0, 0) && last == valueOf(cfg.seed, ks.len()-1, 0) && store.Len() == ks.len()
		setups[i] = time.Since(t0)
		res.check(probe, "set-up probe: store does not hold the loaded keys")
	}
	res.set("setup_s", median(seconds(setups)), "s")
	res.notef("set-up: %d keys, %d repeats %.3v", ks.len(), e.setups, seconds(setups))
	runtime.GC()

	streams := make([]opStream, workers)
	execs := make([]*executor, workers)
	for w := range streams {
		streams[w] = e.stream(ks, cfg.seed, w)
		execs[w] = newExecutor(store, ks, cfg.seed)
	}
	arm := func() error { execs[0].corruptIn = cfg.corruptReply; return nil }
	err := res.phases(cfg, streams, cfg.timedOps(e.rate), embeddedTail, arm, func(w, n int) (callerStats, error) {
		return drive(execs[w], streams[w], n, e.stride), nil
	})
	if err != nil {
		return nil, err
	}

	want := ks.len()
	for _, st := range streams {
		if c, ok := st.(*churnStream); ok {
			want += c.liveKeys()
		}
	}
	res.check(store.Len() == want, "Len() = %d after the timed phase, shadow model holds %d", store.Len(), want)
	res.set("bytes_per_key", float64(store.MemoryFootprint())/float64(store.Len()), "B")
	return res, e.recovery(cfg, store, res)
}

// recovery_s of an embedded store: the time to rebuild the run's final store
// from its snapshot file until it answers Len correctly.
func (e *embedded) recovery(cfg *config, store *hyperion.Store, res *result) error {
	dir, err := cfg.tempDir("snap")
	if err != nil {
		return err
	}
	path := filepath.Join(dir, "final.hyp")
	if _, err := store.SaveFile(path); err != nil {
		return fmt.Errorf("save snapshot: %w", err)
	}
	want := store.Len()
	times := make([]time.Duration, e.recoveries)
	for i := range times {
		runtime.GC()
		t0 := time.Now()
		loaded, err := hyperion.LoadFile(path, e.opts())
		if err != nil {
			return fmt.Errorf("load snapshot: %w", err)
		}
		got := loaded.Len()
		times[i] = time.Since(t0)
		res.check(got == want, "store loaded from its snapshot holds %d keys, want %d", got, want)
	}
	res.set("recovery_s", median(seconds(times)), "s")
	res.notef("recovery: LoadFile of %d keys, %d repeats %.3v", want, e.recoveries, seconds(times))
	return nil
}
