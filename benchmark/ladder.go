package main

// The per-layer ladder (--trace 1): the workload's keys and access skew
// replayed single-threaded against the public functions of each layer in
// turn — keys, memman, epoch, core, hyperion (plain, batched, with each WAL
// policy), wal, server (net.Pipe, loopback TCP) — and last a short run
// against the server subprocess for its /proc counters. Neighbouring rungs
// differ by one layer, so their difference is that layer's self time.
//
// Every rung runs in blocks of 4096 calls; a block is a span {name, start,
// end, parent} kept in memory and written to <out>/<workload>.trace.json when
// the ladder ends. A rung's metric is the median block's time per call, so a
// scheduler stall inside one block does not move it. Nothing here is inside
// the program under test: spans wrap calls from outside (choosing-metrics
// section 4), and end-to-end numbers are never taken with the ladder running.

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"math/rand/v2"
	"net"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"strconv"
	"sync"
	"time"

	"repro/hyperion"
	"repro/internal/core"
	"repro/internal/epoch"
	"repro/internal/keys"
	"repro/internal/memman"
	"repro/internal/server"
	"repro/internal/wal"
)

const (
	ladderKeys         = 250_000 // generated per ladder at full scale
	ladderOpsPerSecond = 32_000  // calls per rung per requested second
	ladderBlock        = 4096
	fsyncCalls         = 300 // calls per fsync-bound rung at full scale
	timedRepeats       = 3   // one-shot measurements (bulk load, save, full scan) repeat this often
)

// ladderInput is what a workload hands the ladder: its store options, a
// reduced copy of its key set, its access skew, and keys it has not stored.
type ladderInput struct {
	opts   hyperion.Options
	keys   *keySet                        // sorted, distinct, in the form the workload stores them
	pick   func(r *rand.Rand) int         // index of the next key to access
	fresh  func(dst []byte, i int) []byte // i-th key absent from keys
	toWire func(dst, key []byte) []byte   // nil when keys are already wire-safe
}

func uniformPick(n int) func(r *rand.Rand) int { return func(r *rand.Rand) int { return r.IntN(n) } }

func (e *embedded) ladderInput(cfg *config) *ladderInput {
	ks := e.keys(cfg.scaled(ladderKeys), cfg.seed)
	in := &ladderInput{opts: e.opts(), keys: ks, pick: uniformPick(ks.len())}
	if e == embedChurn {
		in.toWire = hexKey
		fresh := intKeys(cfg.scaled(ladderOpsPerSecond*cfg.seconds), cfg.seed, 1)
		in.fresh = func(dst []byte, i int) []byte { return append(dst, fresh.key(i)...) }
		return in
	}
	in.toWire = wireSafe
	in.fresh = func(dst []byte, i int) []byte {
		return strconv.AppendInt(append(append(dst, ks.key(i%ks.len())...), '#'), int64(i), 36)
	}
	return in
}

func mixedLadderInput(cfg *config) *ladderInput {
	ks := wireNgrams(cfg.scaled(ladderKeys), cfg.seed)
	perm := shuffledIndex(ks.len(), newRNG(cfg.seed, 7))
	z := newZipf(ks.len(), zipfTheta)
	return &ladderInput{
		opts: ngramOptions(), keys: ks,
		pick: func(r *rand.Rand) int { return int(perm[z.next(r)]) },
		fresh: func(dst []byte, i int) []byte {
			return strconv.AppendInt(append(append(dst, ks.key(i%ks.len())...), '~'), int64(i), 36)
		},
	}
}

func durableLadderInput(cfg *config) *ladderInput {
	in := mixedLadderInput(cfg)
	in.pick = uniformPick(in.keys.len())
	return in
}

// --- spans -------------------------------------------------------------------

type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"` // -1: the root
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"` // since the ladder began
	End    int64  `json:"end_ns"`
}

type tracer struct {
	t0    time.Time
	spans []span
}

func (t *tracer) begin(name string, parent int) int {
	t.spans = append(t.spans, span{ID: len(t.spans), Parent: parent, Name: name, Start: int64(time.Since(t.t0))})
	return len(t.spans) - 1
}

func (t *tracer) end(id int) { t.spans[id].End = int64(time.Since(t.t0)) }

// --- the ladder --------------------------------------------------------------

type ladder struct {
	cfg   *config
	in    *ladderInput
	res   *result
	tr    *tracer
	layer int // span of the layer being measured

	n     int      // calls per rung
	fsync int      // calls per fsync-bound rung
	idx   []uint32 // n picks from the workload's access skew, shared by every rung
	fresh *keySet  // n keys the stores do not hold
	dir   string   // scratch directory

	ck, cfresh *keySet // keys and fresh in the form core trees hold them
	tree       *core.Tree
	pairs      []hyperion.Pair
	store      *hyperion.Store
}

var sink uint64 // keeps measured calls from being optimised away

// rungSpec is one rung of an interleaved group.
type rungSpec struct {
	name string
	body func(i int)
}

// rungs times n calls of each body and returns, per body, the median block's
// nanoseconds per call. The bodies take turns block by block, so rungs whose
// difference is reported as a layer's self time see the same machine state
// (clock frequency, cache contents, a noisy neighbour) and the difference
// keeps only what the layer adds.
func (l *ladder) rungs(n int, specs ...rungSpec) []float64 {
	ids := make([]int, len(specs))
	per := make([][]float64, len(specs))
	for s, sp := range specs {
		ids[s] = l.tr.begin(sp.name, l.layer)
	}
	for lo := 0; lo < n; lo += ladderBlock {
		hi := min(lo+ladderBlock, n)
		for s, sp := range specs {
			b := l.tr.begin(sp.name+".block", ids[s])
			for i := lo; i < hi; i++ {
				sp.body(i)
			}
			l.tr.end(b)
			per[s] = append(per[s], float64(l.tr.spans[b].End-l.tr.spans[b].Start)/float64(hi-lo))
		}
	}
	out := make([]float64, len(specs))
	for s := range specs {
		l.tr.end(ids[s])
		out[s] = median(per[s])
	}
	return out
}

// rung is rungs for a rung measured on its own.
func (l *ladder) rung(name string, n int, body func(i int)) float64 {
	return l.rungs(n, rungSpec{name, body})[0]
}

// timed runs a one-shot body timedRepeats times and returns the median time
// per unit in nanoseconds.
func (l *ladder) timed(name string, units int, body func()) float64 {
	per := make([]float64, timedRepeats)
	for i := range per {
		id := l.tr.begin(name, l.layer)
		body()
		l.tr.end(id)
		per[i] = float64(l.tr.spans[id].End-l.tr.spans[id].Start) / float64(units)
	}
	return median(per)
}

func (l *ladder) set(name string, v float64, unit string) { l.res.set(name, v, unit) }

func (l *ladder) get(name string) float64 { return l.res.Metrics[name].Value }

func mallocs() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.Mallocs
}

func (l *ladder) enter(name string) { l.layer = l.tr.begin(name, 0) }
func (l *ladder) leave()            { l.tr.end(l.layer) }

func runLadder(cfg *config, w *workload) (*result, error) {
	dir, err := cfg.tempDir("ladder")
	if err != nil {
		return nil, err
	}
	l := &ladder{cfg: cfg, in: w.ladder(cfg), res: newResult(), tr: &tracer{t0: time.Now()}, dir: dir}
	l.tr.begin(w.name, -1)
	l.n, l.fsync = cfg.scaled(ladderOpsPerSecond*cfg.seconds), cfg.scaled(fsyncCalls)
	r := newRNG(cfg.seed, 11)
	l.idx = make([]uint32, l.n)
	for i := range l.idx {
		l.idx[i] = uint32(l.in.pick(r))
	}
	l.fresh = &keySet{}
	var buf []byte
	for i := 0; i < l.n; i++ {
		buf = l.in.fresh(buf[:0], i)
		l.fresh.add(buf)
	}
	l.res.notef("ladder: %d keys, %d calls per rung, %d per fsync-bound rung", l.in.keys.len(), l.n, l.fsync)

	l.keysLayer()
	l.memmanLayer()
	l.epochLayer()
	l.coreReads()
	l.hyperionReads()
	l.coreWrites()
	if err := l.hyperionWrites(); err != nil {
		return nil, err
	}
	if err := l.walLayer(); err != nil {
		return nil, err
	}
	if err := l.serverLayer(); err != nil {
		return nil, err
	}
	if err := l.procLayer(w); err != nil {
		return nil, err
	}
	l.tr.end(0)
	data, err := json.Marshal(map[string]any{"workload": w.name, "seed": cfg.seed, "spans": l.tr.spans})
	if err != nil {
		return nil, err
	}
	return l.res, os.WriteFile(filepath.Join(cfg.outDir, w.name+".trace.json"), data, 0o644)
}

func (l *ladder) keysLayer() {
	l.enter("keys")
	defer l.leave()
	ks := l.in.keys
	buf := make([]byte, 0, 256)
	l.set("keys.preprocess_ns", l.rung("keys.preprocess", l.n, func(i int) {
		buf = keys.PreprocessAppend(buf[:0], ks.key(int(l.idx[i])))
	}), "ns")
	sink += uint64(len(buf))
}

// memmanLayer drives a bare allocator with chunk sizes log-uniform over
// 32 B..4 KiB, the range containers live in.
func (l *ladder) memmanLayer() {
	l.enter("memman")
	defer l.leave()
	r := newRNG(l.cfg.seed, 12)
	size := func() int { return int(32 * math.Pow(2, 7*r.Float64())) }
	a := memman.New()
	hps := make([]memman.HP, max(l.n/4, 64))
	for i := range hps {
		hps[i], _ = a.Alloc(size())
	}
	slots, sizes := make([]uint32, l.n), make([]int, l.n)
	for i := range slots {
		slots[i], sizes[i] = uint32(r.IntN(len(hps))), size()
	}
	l.set("memman.resolve_ns", l.rung("memman.resolve", l.n, func(i int) {
		sink += uint64(len(a.Resolve(hps[slots[i]])))
	}), "ns")
	l.set("memman.alloc_free_ns", l.rung("memman.alloc_free", l.n, func(i int) {
		a.Free(hps[slots[i]])
		hps[slots[i]], _ = a.Alloc(sizes[i])
	}), "ns")
	l.set("memman.realloc_ns", l.rung("memman.realloc", l.n, func(i int) {
		hps[slots[i]], _ = a.Realloc(hps[slots[i]], sizes[l.n-1-i])
	}), "ns")
}

func (l *ladder) epochLayer() {
	l.enter("epoch")
	defer l.leave()
	d := epoch.NewDomain()
	l.set("epoch.pin_unpin_ns", l.rung("epoch.pin_unpin", l.n, func(int) { d.Pin().Unpin() }), "ns")
	l.set("epoch.tryadvance_ns", l.rung("epoch.tryadvance", l.n, func(int) { sink += d.TryAdvance() }), "ns")
}

// ok counts one verified reply of a rung.
func (l *ladder) ok(ok bool) {
	l.res.Attempted++
	if !ok {
		l.res.Failed++
	}
}

// coreReads builds one core.Tree over the whole key set — in the form the
// store hands keys to its trees, so preprocessed when the workload
// preprocesses — and times the reads that need nothing else. core.get_ns is
// taken later, interleaved with the store's Get (hyperionReads).
func (l *ladder) coreReads() {
	l.enter("core")
	defer l.leave()
	l.ck, l.cfresh = l.in.keys, l.fresh
	if l.in.opts.KeyPreprocessing {
		l.ck, l.cfresh = l.ck.mapped(keys.PreprocessAppend), l.cfresh.mapped(keys.PreprocessAppend)
	}
	ck, n := l.ck, l.ck.len()
	cfg := core.DefaultConfig()
	cfg.EmbeddedEjectThreshold = l.in.opts.EmbeddedEjectThreshold
	ksl, vals := make([][]byte, n), make([]uint64, n)
	for i := range ksl {
		ksl[i], vals[i] = ck.key(i), valueOf(l.cfg.seed, i, 0)
	}
	l.set("core.bulkload_ns_per_key", l.timed("core.bulkload", n, func() {
		l.tree = core.New(cfg)
		l.tree.BulkLoad(ksl, vals)
	}), "ns")
	t := l.tree

	m0 := mallocs()
	l.set("core.get_miss_ns", l.rung("core.get_miss", l.n, func(i int) {
		_, ok := t.Get(l.cfresh.key(i))
		l.ok(!ok)
	}), "ns")
	cur := core.NewCursor(t)
	var probes int64
	seeks := max(l.n/4, 1)
	l.set("core.cursor_seek_ns", l.rung("core.cursor_seek", seeks, func(i int) {
		k := int(l.idx[i])
		cur.Seek(ck.key(k))
		key, _, _, ok := cur.Next()
		probes += cur.Probes()
		l.ok(ok && bytes.Equal(key, ck.key(k)))
	}), "ns")
	l.set("core.cursor_probes_per_seek", float64(probes)/float64(seeks), "count")
	cur.Seek(nil)
	l.set("core.cursor_next_ns", l.rung("core.cursor_next", n, func(i int) {
		_, v, _, ok := cur.Next()
		l.ok(ok && v == vals[i])
	}), "ns")
	// Go-heap allocations per read; the repository pins the read path at 0.
	l.set("core.allocs_per_op", float64(mallocs()-m0)/float64(l.n+seeks+n), "count")
}

// coreWrites edits the tree: overwrites, then fresh keys in (the structural
// counters are read at that point) and out again.
func (l *ladder) coreWrites() {
	l.enter("core")
	defer l.leave()
	t, ck, fresh, n := l.tree, l.ck, l.cfresh, l.ck.len()
	l.set("core.put_overwrite_ns", l.rung("core.put_overwrite", l.n, func(i int) {
		k := int(l.idx[i])
		t.Put(ck.key(k), valueOf(l.cfg.seed, k, 0))
	}), "ns")
	l.set("core.put_ns", l.rung("core.put", l.n, func(i int) { t.Put(fresh.key(i), uint64(i)) }), "ns")
	st := t.Stats()
	l.set("core.bytes_per_key", float64(t.MemoryFootprint())/float64(t.Len()), "B")
	l.set("core.containers_per_kkey", 1000*float64(st.Containers)/float64(st.Keys), "count")
	l.set("core.embedded_share", float64(st.EmbeddedContainers)/float64(st.Containers+st.EmbeddedContainers), "fraction")
	l.set("core.pc_share", float64(st.PathCompressedLen)/float64(len(ck.blob)+len(fresh.blob)), "fraction")
	l.set("core.delta_share", float64(st.DeltaEncodedNodes)/float64(st.Keys), "fraction")
	l.set("core.splits", float64(st.Splits), "count")
	l.set("core.ejections", float64(st.Ejections), "count")
	l.set("core.delete_ns", l.rung("core.delete", l.n, func(i int) { l.ok(t.Delete(fresh.key(i))) }), "ns")
	l.ok(int(t.Len()) == n)
	l.tree = nil
}

// loaded returns a store with opts holding ks.
func (l *ladder) loaded(opts hyperion.Options, ks *keySet) (*hyperion.Store, error) {
	s, err := hyperion.Open(opts)
	if err != nil {
		return nil, err
	}
	s.BulkLoad(pairsOf(ks, l.cfg.seed))
	return s, nil
}

// hyperionReads builds the store and times Get three ways, interleaved: on
// the bare tree, through the store, and through the store's batch path.
func (l *ladder) hyperionReads() {
	l.enter("hyperion")
	defer l.leave()
	ks, n := l.in.keys, l.in.keys.len()
	l.pairs = pairsOf(ks, l.cfg.seed)
	l.set("hyperion.bulkload_ns_per_key", l.timed("hyperion.bulkload", n, func() {
		l.store = hyperion.New(l.in.opts)
		l.store.BulkLoad(l.pairs)
	}), "ns")
	s, t, pairs := l.store, l.tree, l.pairs

	lookups, results := make([][]byte, depth), make([]hyperion.Result, depth)
	m0 := mallocs()
	ns := l.rungs(l.n,
		rungSpec{"core.get", func(i int) {
			k := int(l.idx[i])
			v, ok := t.Get(l.ck.key(k))
			l.ok(ok && v == pairs[k].Value)
		}},
		rungSpec{"hyperion.get", func(i int) {
			k := int(l.idx[i])
			v, ok := s.Get(ks.key(k))
			l.ok(ok && v == pairs[k].Value)
		}},
		rungSpec{"hyperion.batch_get", func(i int) {
			lookups[i%depth] = ks.key(int(l.idx[i]))
			if i%depth == depth-1 {
				results = s.GetBatchInto(results, lookups)
				l.ok(results[0].Ok && results[depth-1].Value == pairs[l.idx[i]].Value)
			}
		}})
	l.set("core.get_ns", ns[0], "ns")
	l.set("hyperion.get_ns", ns[1], "ns")
	l.set("hyperion.batch_get_ns", ns[2], "ns")
	// Per key, over Get and GetBatchInto. Get is pinned at 0 by the
	// repository's tests; batches over more than one arena allocate their
	// grouping index.
	l.set("hyperion.allocs_per_op", float64(mallocs()-m0)/float64(2*l.n), "count")
	l.set("hyperion.shard_self_ns", ns[1]-ns[0], "ns")
	l.set("hyperion.batch_gain", ns[1]/ns[2], "ratio")

	seen := 0
	stopAt100 := func([]byte, uint64) bool { seen++; return seen%rangeLimit != 0 }
	l.set("hyperion.range100_ns", l.rung("hyperion.range100", max(l.n/20, 1), func(i int) {
		s.Range(ks.key(int(l.idx[i])), stopAt100)
		seen = 0
	}), "ns")
	count := 0
	l.set("hyperion.scan_ns_per_key", l.timed("hyperion.scan", n, func() {
		count = 0
		s.ScanPrefix(nil, func([]byte, uint64) bool { count++; return true })
	}), "ns")
	l.ok(count == n)
	l.set("hyperion.count_ns_per_key", l.timed("hyperion.count", n, func() { count = s.CountPrefix(nil) }), "ns")
	l.ok(count == n)
	var snap bytes.Buffer
	l.set("hyperion.save_ns_per_key", l.timed("hyperion.save", n, func() {
		snap.Reset()
		saved, err := s.Save(&snap)
		l.ok(err == nil && saved == n)
	}), "ns")
	l.set("hyperion.snapshot_bytes_per_key", float64(snap.Len())/float64(n), "B")
	l.set("hyperion.load_ns_per_key", l.timed("hyperion.load", n, func() {
		loaded, err := hyperion.Load(bytes.NewReader(snap.Bytes()), l.in.opts)
		l.ok(err == nil && loaded.Len() == n)
	}), "ns")
}

func (l *ladder) hyperionWrites() error {
	l.enter("hyperion")
	defer l.leave()
	ks, fresh, seed, s, pairs := l.in.keys, l.fresh, l.cfg.seed, l.store, l.pairs
	n := ks.len()
	results := make([]hyperion.Result, depth)
	ops := make([]hyperion.Op, depth)
	l.set("hyperion.batch_put_ns", l.rung("hyperion.batch_put", l.n, func(i int) {
		k := int(l.idx[i])
		ops[i%depth] = hyperion.Op{Kind: hyperion.OpPut, Key: ks.key(k), Value: pairs[k].Value}
		if i%depth == depth-1 {
			results = s.ApplyBatchInto(results, ops)
		}
	}), "ns")

	// One timed reader beside one writer overwriting keys of the same arena
	// (keys sharing the first byte): what seqlock retries and fallbacks cost.
	lo, hi := ks.prefixRange(ks.key(n / 2)[:1])
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		r := newRNG(seed, 13)
		for {
			select {
			case <-stop:
				return
			default:
				k := lo + r.IntN(hi-lo)
				s.Put(ks.key(k), pairs[k].Value)
			}
		}
	}()
	l.set("hyperion.get_under_write_ns", l.rung("hyperion.get_under_write", l.n, func(i int) {
		k := lo + int(l.idx[i])%(hi-lo)
		v, ok := s.Get(ks.key(k))
		l.ok(ok && v == pairs[k].Value)
	}), "ns")
	close(stop)
	wg.Wait()

	// The same fresh Puts without a WAL and behind the two policies that do
	// not wait for the device, interleaved, on stores preloaded alike.
	walOpts := func(name string, policy hyperion.SyncPolicy) hyperion.Options {
		opts := l.in.opts
		opts.WALDir, opts.WALSync = filepath.Join(l.dir, "wal-"+name), policy
		return opts
	}
	never, err := l.loaded(walOpts("never", hyperion.SyncNever), ks)
	if err != nil {
		return err
	}
	interval, err := l.loaded(walOpts("interval", hyperion.SyncInterval), ks)
	if err != nil {
		return err
	}
	put := func(s *hyperion.Store) func(int) {
		return func(i int) { s.Put(fresh.key(i), uint64(i)) }
	}
	ns := l.rungs(l.n, rungSpec{"hyperion.put", put(s)},
		rungSpec{"hyperion.put_wal_never", put(never)}, rungSpec{"hyperion.put_wal_interval", put(interval)})
	l.set("hyperion.put_ns", ns[0], "ns")
	l.set("hyperion.put_wal_never_ns", ns[1], "ns")
	l.set("hyperion.put_wal_interval_ns", ns[2], "ns")
	l.set("hyperion.wal_never_self_ns", ns[1]-ns[0], "ns")
	ms := s.MemoryStats()
	l.set("memman.footprint_per_used_byte", float64(ms.Footprint)/float64(ms.AllocatedBytes), "ratio")
	l.set("memman.empty_chunk_share", float64(ms.EmptyChunks)/float64(ms.AllocatedChunks+ms.EmptyChunks), "fraction")
	l.set("memman.metadata_share", float64(ms.MetadataBytes)/float64(ms.Footprint), "fraction")
	l.set("hyperion.delete_ns", l.rung("hyperion.delete", l.n, func(i int) { l.ok(s.Delete(fresh.key(i))) }), "ns")
	l.store = nil

	if err := interval.Close(); err != nil {
		return fmt.Errorf("close interval store: %w", err)
	}
	if err := never.Close(); err != nil {
		return fmt.Errorf("close never store: %w", err)
	}
	var back *hyperion.Store
	l.set("hyperion.recovery_ns_per_record", l.timed("hyperion.recovery", n+l.n, func() {
		if back != nil {
			err = back.Close()
		}
		if err == nil {
			back, err = hyperion.Open(walOpts("never", hyperion.SyncNever))
		}
	}), "ns")
	if err != nil {
		return fmt.Errorf("recover: %w", err)
	}
	l.ok(back.Len() == n+l.n)
	if err := back.Close(); err != nil {
		return err
	}

	// SyncAlways on files that remember how much of them was fsynced, so the
	// crash below can discard exactly what a power cut would.
	files := &trackedFiles{}
	opts := walOpts("always", hyperion.SyncAlways)
	opts.WALOpenFile = files.open
	always, err := l.loaded(opts, ks)
	if err != nil {
		return err
	}
	// Every write gets its own value and the last acknowledged value of each
	// key is remembered, so the crash check below notices any lost record.
	acked := make([]uint64, l.n)
	l.set("hyperion.put_wal_always_us", l.rung("hyperion.put_wal_always", l.fsync, func(i int) {
		acked[i] = uint64(i + 1)
		always.Put(fresh.key(i), acked[i])
	})/1e3, "us")
	l.set("hyperion.batch_put_wal_always_us", l.rung("hyperion.batch_put_wal_always", l.fsync*depth, func(j int) {
		i := l.fsync + j%(l.n-l.fsync)
		acked[i] = uint64(l.fsync + j + 1)
		ops[j%depth] = hyperion.Op{Kind: hyperion.OpPut, Key: fresh.key(i), Value: acked[i]}
		if j%depth == depth-1 {
			results = always.ApplyBatchInto(results, ops)
		}
	})/1e3, "us")
	l.ok(always.WALError() == nil)
	// Crash: the store is dropped without Close and every segment is cut back
	// to its last fsynced length. Every write acknowledged above must be there
	// after reopening — the check a SIGKILL cannot make, since the kernel
	// keeps a killed process's page cache.
	want := always.Len()
	if err := files.crash(l.cfg.dropAcked); err != nil {
		return err
	}
	opts.WALOpenFile = nil
	if back, err = hyperion.Open(opts); err != nil {
		return fmt.Errorf("reopen after crash: %w", err)
	}
	l.res.check(back.Len() == want, "after the crash the store holds %d keys, %d were acknowledged", back.Len(), want)
	lost := 0
	for i, v := range acked {
		if got, ok := back.Get(fresh.key(i)); v != 0 && (!ok || got != v) {
			lost++
		}
	}
	l.res.check(lost == 0, "after the crash %d acknowledged writes are missing or stale", lost)
	return back.Close()
}

// trackedFiles is a wal.File factory that counts what reaches the device and
// remembers each file's fsynced length.
type trackedFiles struct {
	mu        sync.Mutex
	files     []*trackedFile
	writes    int64
	bytes     int64
	syncs     int64
	syncTimes []uint32 // ns
	crashed   bool
}

type trackedFile struct {
	owner           *trackedFiles
	f               *os.File
	written, synced int64
}

func (t *trackedFiles) open(path string) (wal.File, error) {
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_CREATE|os.O_EXCL, 0o644)
	if err != nil {
		return nil, err
	}
	tf := &trackedFile{owner: t, f: f}
	t.mu.Lock()
	t.files = append(t.files, tf)
	t.mu.Unlock()
	return tf, nil
}

func (f *trackedFile) Write(p []byte) (int, error) {
	f.owner.mu.Lock()
	defer f.owner.mu.Unlock()
	if f.owner.crashed {
		return 0, os.ErrClosed
	}
	n, err := f.f.Write(p)
	f.written += int64(n)
	f.owner.writes++
	f.owner.bytes += int64(n)
	return n, err
}

func (f *trackedFile) Sync() error {
	t0 := time.Now()
	err := f.f.Sync()
	d := time.Since(t0)
	f.owner.mu.Lock()
	defer f.owner.mu.Unlock()
	if f.owner.crashed {
		return os.ErrClosed
	}
	if err == nil {
		f.synced = f.written
	}
	f.owner.syncs++
	f.owner.syncTimes = append(f.owner.syncTimes, uint32(d))
	return err
}

func (f *trackedFile) Close() error { return f.f.Close() }

// crash stops all further writes and truncates every file to its fsynced
// length. With lose set (the oracle's self-test) it cuts 4 more bytes off the
// longest file, so an acknowledged record is torn.
func (t *trackedFiles) crash(lose bool) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.crashed = true
	var longest *trackedFile
	for _, f := range t.files {
		if longest == nil || f.synced > longest.synced {
			longest = f
		}
	}
	for _, f := range t.files {
		keep := f.synced
		if lose && f == longest {
			keep -= 4
		}
		if err := os.Truncate(f.f.Name(), keep); err != nil {
			return err
		}
		f.f.Close()
	}
	return nil
}

func (t *trackedFiles) reset() {
	t.mu.Lock()
	t.writes, t.bytes, t.syncs, t.syncTimes = 0, 0, 0, nil
	t.mu.Unlock()
}

// walLayer drives one wal.Log directly with put-sized records.
func (l *ladder) walLayer() error {
	l.enter("wal")
	defer l.leave()
	payload := bytes.Repeat([]byte{0xa5}, 32) // ~ one Put record: kind, key length, 19-byte key, value
	files := &trackedFiles{}
	open := func(name string, policy wal.SyncPolicy) (*wal.Log, string, error) {
		dir := filepath.Join(l.dir, name)
		lg, err := wal.Open(wal.Options{Dir: dir, Arenas: 1, Policy: policy, OpenFile: files.open})
		return lg, dir, err
	}

	lg, dir, err := open("log-interval", wal.SyncInterval)
	if err != nil {
		return err
	}
	files.reset()
	l.set("wal.enqueue_ns", l.rung("wal.enqueue", l.n, func(int) {
		if _, err := lg.Enqueue(payload); err != nil {
			l.res.Failed++
		}
	}), "ns")
	l.res.Attempted += int64(l.n)
	if err := lg.Sync(); err != nil {
		return err
	}
	l.set("wal.write_calls_per_kop", 1000*float64(files.writes)/float64(l.n), "count")
	l.set("wal.sync_calls_per_kop", 1000*float64(files.syncs)/float64(l.n), "count")
	l.set("wal.bytes_per_user_byte", float64(files.bytes)/float64(l.n*len(payload)), "ratio")
	rot := make([]float64, 9)
	for i := range rot {
		t0 := time.Now()
		if _, err := lg.Rotate(); err != nil {
			return err
		}
		rot[i] = float64(time.Since(t0)) / 1e3
	}
	l.set("wal.rotate_us", median(rot), "us")
	if err := lg.Close(); err != nil {
		return err
	}
	var info wal.ReplayInfo
	l.set("wal.replay_ns_per_record", l.timed("wal.replay", l.n, func() {
		info, err = wal.Replay(dir, 0, func([]byte) error { return nil })
	}), "ns")
	l.res.check(err == nil && info.Records == l.n, "wal replay: %d records, %v; want %d", info.Records, err, l.n)

	if lg, _, err = open("log-always", wal.SyncAlways); err != nil {
		return err
	}
	files.reset()
	commits := make([]uint32, l.fsync)
	for i := range commits {
		t0 := time.Now()
		seq, err := lg.Enqueue(payload)
		if err == nil {
			err = lg.Commit(seq)
		}
		commits[i] = uint32(time.Since(t0))
		l.res.check(err == nil, "wal commit: %v", err)
	}
	slices.Sort(commits)
	l.set("wal.commit_us_p50", percentile(commits, 0.5)/1e3, "us")
	slices.Sort(files.syncTimes)
	l.set("wal.sync_us_p50", percentile(files.syncTimes, 0.5)/1e3, "us")
	// Group commit: two writers share fsyncs.
	files.reset()
	err = parallel(workers, func(int) error {
		for i := 0; i < l.fsync; i++ {
			seq, err := lg.Enqueue(payload)
			if err == nil {
				err = lg.Commit(seq)
			}
			if err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return err
	}
	l.res.Attempted += int64(workers * l.fsync)
	l.set("wal.group_size", float64(workers*l.fsync)/float64(max(files.syncs, 1)), "count")
	return lg.Close()
}

// serverLayer serves the ladder's keys (in wire form) from an in-process
// server.Server, first over net.Pipe — parse, coalesce, reply, no kernel —
// then over loopback TCP.
func (l *ladder) serverLayer() error {
	l.enter("server")
	defer l.leave()
	ks, fresh := l.in.keys, l.fresh
	if l.in.toWire != nil {
		ks, fresh = ks.mapped(l.in.toWire).sortedUnique(), fresh.mapped(l.in.toWire)
	}
	seed, n := l.cfg.seed, ks.len()
	opts := l.in.opts
	opts.KeyPreprocessing = false // hex keys are strings
	quiet := func(string, ...any) {}
	s, err := l.loaded(opts, ks)
	if err != nil {
		return err
	}
	srv := server.New(server.Config{Store: s, Logf: quiet})
	defer srv.Shutdown()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	go srv.Serve(ln)
	here, there := net.Pipe()
	go srv.ServeConn(there)
	pipe := newClient(here)
	defer pipe.close()
	tcp, err := dial(ln.Addr().String())
	if err != nil {
		return err
	}
	defer tcp.close()

	// A burst is depth requests; a rung body is called once per request and
	// sends the burst when it is full, so rung times are per request.
	ops := make([]op, depth)
	burst := func(c *client, kind opKind) func(i int) {
		return func(i int) {
			k := int(l.idx[i]) % n
			ops[i%depth] = op{kind: kind, key: ks.key(k), val: valueOf(seed, k, 0)}
			if i%depth != depth-1 {
				return
			}
			failed, _, err := c.burst(ops)
			l.res.Attempted += depth
			l.res.Failed += int64(failed)
			if err != nil {
				l.res.Failed += depth
			}
		}
	}
	lookups, results := make([][]byte, depth), make([]hyperion.Result, depth)
	m0, in0 := mallocs(), pipe.bytesIn
	ns := l.rungs(l.n,
		// What the server's GET run coalescing calls, on the server's own
		// store: the rung below the front-end.
		rungSpec{"server.store_batch_get", func(i int) {
			lookups[i%depth] = ks.key(int(l.idx[i]) % n)
			if i%depth == depth-1 {
				results = s.GetBatchInto(results, lookups)
			}
		}},
		rungSpec{"server.pipe_get", burst(pipe, opGet)},
		rungSpec{"server.tcp_get", burst(tcp, opGet)})
	l.set("server.pipe_get_ns", ns[1], "ns")
	l.set("server.tcp_get_ns", ns[2], "ns")
	l.set("server.parse_reply_self_ns", ns[1]-ns[0], "ns")
	l.set("server.syscall_self_ns", ns[2]-ns[1], "ns")
	// Both connections' requests count; the in-process client allocates nothing.
	l.set("server.allocs_per_op", float64(mallocs()-m0)/float64(2*l.n), "count")
	l.set("server.bytes_out_per_op", float64(pipe.bytesIn-in0)/float64(l.n/depth*depth), "B")
	ns = l.rungs(l.n, rungSpec{"server.pipe_put", burst(pipe, opPut)}, rungSpec{"server.tcp_put", burst(tcp, opPut)})
	l.set("server.pipe_put_ns", ns[0], "ns")
	l.set("server.tcp_put_ns", ns[1], "ns")
	rtts := make([]uint32, 0, 2000)
	for i := 0; i < cap(rtts); i++ {
		k := int(l.idx[i%l.n]) % n
		ops[0] = op{kind: opGet, key: ks.key(k), val: valueOf(seed, k, 0)}
		failed, rtt, err := tcp.burst(ops[:1])
		if err != nil {
			return err
		}
		l.res.Attempted++
		l.res.Failed += int64(failed)
		rtts = append(rtts, uint32(rtt))
	}
	slices.Sort(rtts)
	l.set("server.depth1_rtt_us", percentile(rtts, 0.5)/1e3, "us")

	// SCAN of the most populous one-byte prefix.
	prefix := ks.key(n / 2)[:1]
	lo, hi := ks.prefixRange(prefix)
	l.set("server.scan_ns_per_key", l.timed("server.scan", hi-lo, func() {
		got, err := tcp.scan(string(prefix))
		l.res.check(err == nil && got == hi-lo, "SCAN %q returned %d keys (%v), want %d", prefix, got, err, hi-lo)
	}), "ns")
	// MLOAD of the fresh keys, sorted, in lines of 1000 pairs.
	sorted := fresh.sortedUnique()
	t0 := time.Now()
	id := l.tr.begin("server.mload", l.layer)
	stored, err := tcp.mload(sorted, func(i int) uint64 { return uint64(i) })
	l.tr.end(id)
	l.set("server.mload_ns_per_key", float64(time.Since(t0))/float64(sorted.len()), "ns")
	l.res.check(err == nil && stored == sorted.len(), "MLOAD stored %d (%v), want %d", stored, err, sorted.len())
	return nil
}

// procLayer runs a fifth-length timed phase against the real server child for
// its /proc counters: the workload's own when it is a server workload, the
// server-mixed-tcp one otherwise (embedded workloads have no child).
func (l *ladder) procLayer(w *workload) error {
	l.enter("proc")
	defer l.leave()
	spec := mixedSpec
	top := 0.9*l.get("server.tcp_get_ns") + 0.1*l.get("server.tcp_put_ns")
	if w.name == durableSpec.name {
		spec, top = durableSpec, l.get("server.tcp_put_ns")
	}
	sub, usage, err := spec.run(l.cfg, l.cfg.timedOps(spec.rate)/5, 1, 0)
	if err != nil {
		return err
	}
	l.res.Attempted += sub.Attempted
	l.res.Failed += sub.Failed
	ops := float64(usage.ops)
	l.set("proc.cpu_us_per_op", float64(usage.serverCPU.Microseconds())/ops, "us")
	l.set("proc.ctx_switches_per_kop", 1000*float64(usage.ctxSwitches)/ops, "count")
	l.set("proc.peak_rss_mib", float64(usage.peakRSS)/(1<<20), "MiB")
	l.set("loadgen.cpu_us_per_op", float64(usage.loadgenCPU.Microseconds())/ops, "us")
	// Ladder closure: the top rung's time per op over the time one connection
	// of the real run spends per op. It stands in for tracing overhead, since
	// end-to-end numbers are always taken with the ladder off.
	perConn := 1e9 / (sub.Metrics["ops_per_s"].Value / workers)
	l.set("trace.top_rung_vs_e2e", top/perConn, "ratio")
	return nil
}
