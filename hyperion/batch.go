package hyperion

// This file implements the batched, parallel execution paths. A batch is
// grouped by destination arena, each arena lock is taken exactly once per
// batch, and arena groups execute concurrently across a bounded worker pool
// (Options.BatchWorkers). This removes the per-operation lock round-trip of
// the single-key API and turns the arena partitioning into usable multi-core
// parallelism, the same partition-then-process-in-parallel structure the
// paper's target deployment (a distributed KV store node, §1) needs to
// sustain millions of ops/s.

import (
	"bytes"
	"sync"
	"sync/atomic"

	"repro/internal/core"
)

// OpKind selects the operation a batch entry performs.
type OpKind uint8

const (
	// OpPut stores Key with Value.
	OpPut OpKind = iota
	// OpPutKey stores Key without a value (set semantics).
	OpPutKey
	// OpGet looks Key up.
	OpGet
	// OpHas tests Key for presence.
	OpHas
	// OpDelete removes Key.
	OpDelete
)

// String names the operation kind for logs and reports.
func (k OpKind) String() string {
	switch k {
	case OpPut:
		return "PUT"
	case OpPutKey:
		return "PUTKEY"
	case OpGet:
		return "GET"
	case OpHas:
		return "HAS"
	case OpDelete:
		return "DEL"
	}
	return "UNKNOWN"
}

// writes reports whether the operation mutates the store.
func (k OpKind) writes() bool { return k.walKind() != 0 }

// walKind maps a mutating operation to its WAL record kind (wal.go); reads
// map to 0, which the log never carries.
func (k OpKind) walKind() byte {
	switch k {
	case OpPut:
		return walOpPut
	case OpPutKey:
		return walOpPutKey
	case OpDelete:
		return walOpDelete
	}
	return 0
}

// Op is one operation of a batch.
type Op struct {
	Kind  OpKind
	Key   []byte
	Value uint64 // used by OpPut only
}

// Result is the outcome of one batch operation, at the same index as its Op.
// For OpPut and OpPutKey, Ok is true and Value echoes the stored value. For
// OpGet, Value/Ok mirror Store.Get. For OpHas and OpDelete, Ok mirrors
// Store.Has and Store.Delete respectively and Value is 0.
type Result struct {
	Value uint64
	Ok    bool
}

// ApplyBatch executes ops and returns one Result per op.
//
// Operations are grouped by destination arena; each arena lock is acquired
// once per batch (a write lock if the group contains any mutation, a read
// lock otherwise) and the groups run concurrently on up to
// Options.BatchWorkers goroutines. Two ops of the same batch that route to
// the same arena execute in batch order, so read-your-write within a batch
// holds per key. The batch is NOT atomic across arenas: operations of other
// goroutines may interleave between arena groups, and no global snapshot is
// implied.
func (s *Store) ApplyBatch(ops []Op) []Result {
	if len(ops) == 0 {
		return nil
	}
	return s.ApplyBatchInto(nil, ops)
}

// ApplyBatchInto is ApplyBatch with a caller-provided result buffer: dst is
// grown (or allocated) to len(ops) and returned. Callers that reuse dst
// across batches keep the single-arena batch path at zero heap allocations
// per batch; with several arenas the grouping index still allocates.
func (s *Store) ApplyBatchInto(dst []Result, ops []Op) []Result {
	if len(ops) == 0 {
		return dst[:0]
	}
	results := resizeResults(dst, len(ops))
	if len(s.shards) == 1 {
		s.applyGroup(s.shards[0], ops, nil, results)
		return results
	}
	g := s.groupByShard(len(ops), func(i int) int { return s.arenaIndex(ops[i].Key) })
	s.runGroups(g, func(shardID int, opIdx []int32) {
		// The durability wait happens inside the group (shardWrite), which
		// keeps the per-shard fsyncs of one batch overlapped across the pool.
		s.applyGroup(s.shards[shardID], ops, opIdx, results)
	})
	return results
}

// groupLen is the size of the shard group opIdx selects out of a batch of n
// operations; a nil opIdx is the whole batch in order.
func groupLen(n int, opIdx []int32) int {
	if opIdx == nil {
		return n
	}
	return len(opIdx)
}

// groupAt is the batch index of a shard group's k-th operation.
func groupAt(opIdx []int32, k int) int {
	if opIdx == nil {
		return k
	}
	return int(opIdx[k])
}

// applyGroup executes one shard group of an ApplyBatch (opIdx nil = the
// whole batch) and fills its results: a large sorted all-Put run goes through
// the bulk-ingestion path, a read-only group through the lock-free group
// read, anything else through one shardWrite with the group's writes logged
// as a single record. If the log refuses the record (covered == 0) the writes
// get the zero Result before touching the tree and the reads are still
// served. Key pre-processing runs inside the critical section, one op at a
// time through a stack scratch: a few extra ns under the lock buy zero per-op
// heap allocations.
func (s *Store) applyGroup(sh *shard, ops []Op, opIdx []int32, results []Result) {
	if s.bulkApplyGroup(sh, ops, opIdx, results) {
		return
	}
	n := groupLen(len(ops), opIdx)
	write := false
	for k := 0; k < n && !write; k++ {
		write = ops[groupAt(opIdx, k)].Kind.writes()
	}
	if !write {
		s.readApplyGroup(sh, ops, opIdx, results)
		return
	}
	s.shardWrite(sh, n,
		func() (uint64, int) { return s.walEnqueueBatch(sh, ops, opIdx) },
		func(covered int) {
			var scratch [opScratchSize]byte
			for k := 0; k < n; k++ {
				i := groupAt(opIdx, k)
				if covered == 0 && ops[i].Kind.writes() {
					results[i] = Result{}
					continue
				}
				results[i] = applyOp(sh.tree, ops[i], s.transformAppend(scratch[:0], ops[i].Key))
			}
		})
}

// GetBatch looks up every key and returns one Result per key, in input
// order. Keys are grouped by arena, each arena read lock is acquired once,
// and arena groups run concurrently like in ApplyBatch.
func (s *Store) GetBatch(lookups [][]byte) []Result {
	if len(lookups) == 0 {
		return nil
	}
	return s.GetBatchInto(nil, lookups)
}

// GetBatchInto is GetBatch with a caller-provided result buffer: dst is
// grown (or allocated) to len(lookups) and returned. With a reused dst and a
// single arena the whole batch lookup performs no heap allocation.
func (s *Store) GetBatchInto(dst []Result, lookups [][]byte) []Result {
	if len(lookups) == 0 {
		return dst[:0]
	}
	results := resizeResults(dst, len(lookups))
	if len(s.shards) == 1 {
		// Lock-free group read: one seqlock snapshot covers the whole batch
		// (lockfree.go), with the shard read lock as write-storm fallback.
		s.readGetGroup(s.shards[0], lookups, nil, results)
		return results
	}
	g := s.groupByShard(len(lookups), func(i int) int { return s.arenaIndex(lookups[i]) })
	s.runGroups(g, func(shardID int, opIdx []int32) {
		s.readGetGroup(s.shards[shardID], lookups, opIdx, results)
	})
	return results
}

// bulkDivertMinRun is the shard-group size from which ApplyBatch diverts a
// sorted all-Put group to the bulk-ingestion path. Below it, the per-op path
// (with its zero-allocation stack-scratch key transform) wins — the bulk
// path has to materialise the group's transformed keys up front.
const bulkDivertMinRun = 128

// bulkDivertible reports whether the shard group opIdx (nil = the whole
// batch) is a strictly increasing all-Put run of non-empty keys — the shape
// the bulk-ingestion fast path accepts.
func bulkDivertible(ops []Op, opIdx []int32) bool {
	n := groupLen(len(ops), opIdx)
	if n < bulkDivertMinRun {
		return false
	}
	prev := &ops[groupAt(opIdx, 0)]
	if prev.Kind != OpPut || len(prev.Key) == 0 {
		return false
	}
	for k := 1; k < n; k++ {
		op := &ops[groupAt(opIdx, k)]
		if op.Kind != OpPut || len(op.Key) == 0 {
			return false
		}
		if bytes.Compare(prev.Key, op.Key) >= 0 {
			return false
		}
		prev = op
	}
	return true
}

// bulkApplyGroup diverts one shard group through the bulk-ingestion path
// when it is a large sorted all-Put run. It fills the group's results — the
// prefix the run writer landed is Ok, a refused rest gets the zero Result —
// and reports whether it handled the group.
func (s *Store) bulkApplyGroup(sh *shard, ops []Op, opIdx []int32, results []Result) bool {
	if !bulkDivertible(ops, opIdx) {
		return false
	}
	pairs := make([]Pair, groupLen(len(ops), opIdx))
	for k := range pairs {
		op := &ops[groupAt(opIdx, k)]
		pairs[k] = Pair{Key: op.Key, Value: op.Value}
	}
	covered := s.writeRun(sh, s.transformRun(pairs))
	for k := range pairs {
		r := Result{}
		if k < covered {
			r = Result{Value: pairs[k].Value, Ok: true}
		}
		results[groupAt(opIdx, k)] = r
	}
	return true
}

// resizeResults returns dst resized to n entries, reusing its backing array
// when the capacity suffices. Stale content is not cleared: every caller
// assigns all n entries.
func resizeResults(dst []Result, n int) []Result {
	if cap(dst) >= n {
		return dst[:n]
	}
	return make([]Result, n)
}

// applyOp executes one operation against a shard tree; k is the
// already-transformed key. It runs only inside shardWrite bodies (writeOp,
// applyGroup); shardRead bodies call readOp.
//
//hyperion:inbracket
func applyOp(t *core.Tree, op Op, k []byte) Result {
	switch op.Kind {
	case OpPut:
		t.Put(k, op.Value)
		return Result{Value: op.Value, Ok: true}
	case OpPutKey:
		t.PutKey(k)
		return Result{Ok: true}
	case OpDelete:
		return Result{Ok: t.Delete(k)}
	}
	return readOp(t, op, k)
}

// readOp executes one reading operation (OpGet, OpHas) against a shard tree;
// any other kind gets the zero Result.
func readOp(t *core.Tree, op Op, k []byte) Result {
	switch op.Kind {
	case OpGet:
		v, ok := t.Get(k)
		return Result{Value: v, Ok: ok}
	case OpHas:
		return Result{Ok: t.Has(k)}
	}
	return Result{}
}

// batchGroups is a stable counting-sort of batch indices by destination
// shard: group i owns order[starts[i]:starts[i+1]], in batch order.
type batchGroups struct {
	order  []int32
	starts []int32
	active []int32 // shard ids with at least one operation
}

// groupByShard buckets n batch indices by shardOf without allocating one
// slice per shard.
func (s *Store) groupByShard(n int, shardOf func(i int) int) batchGroups {
	nsh := len(s.shards)
	g := batchGroups{
		order:  make([]int32, n),
		starts: make([]int32, nsh+1),
	}
	dest := make([]int32, n)
	for i := 0; i < n; i++ {
		d := int32(shardOf(i))
		dest[i] = d
		g.starts[d+1]++
	}
	for i := 0; i < nsh; i++ {
		if g.starts[i+1] > 0 {
			g.active = append(g.active, int32(i))
		}
		g.starts[i+1] += g.starts[i]
	}
	next := make([]int32, nsh)
	copy(next, g.starts[:nsh])
	for i := 0; i < n; i++ {
		d := dest[i]
		g.order[next[d]] = int32(i)
		next[d]++
	}
	return g
}

// runGroups executes fn once per active shard group, concurrently on up to
// Workers() goroutines. Groups are handed out in ascending shard order; fn
// receives the shard id and the batch indices routed to it.
func (s *Store) runGroups(g batchGroups, fn func(shardID int, opIdx []int32)) {
	s.runIndexed(len(g.active), func(i int) {
		a := g.active[i]
		fn(int(a), g.order[g.starts[a]:g.starts[a+1]])
	})
}

// runIndexed runs run(0..n-1), concurrently on up to Workers() goroutines —
// the caller's plus Workers()-1 spawned ones — handing indices out in
// ascending order via an atomic counter. It is the shared dispatch
// scaffolding of runGroups, Clear and BulkLoad's per-arena loads. The caller
// works instead of idling in Wait because a fresh goroutine starts on a
// minimal stack and the write path under run is deep: a spawned worker pays
// for growing (copying) its stack in the middle of a trie edit on every
// batch, the caller's stack is already grown.
func (s *Store) runIndexed(n int, run func(i int)) {
	workers := min(s.workers, n)
	if workers <= 1 {
		for i := 0; i < n; i++ {
			run(i)
		}
		return
	}
	var next atomic.Int64
	work := func() {
		for {
			i := int(next.Add(1) - 1)
			if i >= n {
				return
			}
			run(i)
		}
	}
	var wg sync.WaitGroup
	wg.Add(workers - 1)
	for w := 1; w < workers; w++ {
		go func() {
			defer wg.Done()
			work()
		}()
	}
	work()
	wg.Wait()
}

// parallelScanChunk bounds how many pairs a scanning worker buffers before
// handing them to the consumer. It is larger than scanChunkSize because its
// chunks cross a channel to another goroutine: each one is a fresh
// allocation and a send, which the bigger chunk amortises.
const parallelScanChunk = 512

// ParallelEach iterates every stored key in global lexicographic order, like
// Each, but scans arenas concurrently on up to Options.BatchWorkers
// goroutines and merges the per-arena streams in arena order (arenas hold
// contiguous, disjoint key ranges, so concatenation preserves the global
// order). fn runs on the calling goroutine. The key slice passed to fn is
// only valid for the duration of the call; copy it if it must be retained.
// Keys stored via PutKey are reported with value 0.
//
// Like Range, ParallelEach never holds a shard lock while fn runs or while a
// chunk waits for the consumer: scanning workers snapshot chunks under the
// shard read lock and release it before sending, resuming behind the last
// snapshotted key. fn may therefore write to the store, and no atomic
// snapshot is implied — see the Range contract.
func (s *Store) ParallelEach(fn func(key []byte, value uint64) bool) {
	nsh := len(s.shards)
	if nsh == 1 || s.workers <= 1 {
		s.Each(fn)
		return
	}
	chans := make([]chan *kvChunk, nsh)
	for i := range chans {
		chans[i] = make(chan *kvChunk, 4)
	}
	var stop atomic.Bool
	var next atomic.Int64
	// Workers claim shards in ascending order, so the shard the consumer is
	// waiting on is always claimed before any later shard and the bounded
	// pool cannot deadlock behind full channels of later shards.
	workers := min(s.workers, nsh)
	for w := 0; w < workers; w++ {
		go func() {
			for {
				i := int(next.Add(1) - 1)
				if i >= nsh {
					return
				}
				s.scanShard(i, chans[i], &stop)
			}
		}()
	}
	for i := 0; i < nsh; i++ {
		// Even after an early stop, every channel is drained so that no
		// producer stays blocked on a full buffer.
		for chunk := range chans[i] {
			for j := 0; j < chunk.len(); j++ {
				if stop.Load() {
					break
				}
				if !fn(chunk.key(j), chunk.value(j)) {
					stop.Store(true)
					break
				}
			}
		}
	}
}

// scanShard streams one shard's pairs into out in chunks (scanShardChunks in
// scan.go: each chunk is read through the seqlock-validated shard reader and
// sent with nothing held) and closes out when done. The cursor and resume
// buffers come from the scan-state pool, but chunks are freshly allocated
// per send — they are in flight on the channel while the next one is built.
func (s *Store) scanShard(i int, out chan<- *kvChunk, stop *atomic.Bool) {
	defer close(out)
	st := getScanState()
	s.scanShardChunks(s.shards[i], st, nil, nil, parallelScanChunk, stop.Load,
		func() *kvChunk { return newKVChunk(parallelScanChunk) },
		func(c *kvChunk) bool {
			out <- c
			return true
		})
	putScanState(st)
}
