package hyperion

// The two concurrency protocols of the store, each written once: shardWrite
// for everything that mutates an arena, shardRead for everything that reads
// one. Every call site in store.go / batch.go / bulk.go / scan.go / stats.go /
// wal.go is a body passed to one of them.
//
//   - Writers serialise per shard on sh.mu and run inside shardWrite, which
//     owns the whole sequence: lock, pin the epoch domain (so frees the edit
//     retires are tagged with a still-open epoch), flip the tree's seqlock
//     odd, enqueue to the write-ahead log, apply exactly what the log took,
//     drain any safely-retired memory, flip the seqlock even, unpin, nudge the
//     global epoch forward, unlock — and only then wait for the fsync. The
//     bracket is all atomics under the write lock, so it runs on every build,
//     race detector included.
//
//   - Readers run walks optimistically and validate the tree's seqlock
//     afterwards. A reader that raced a mutation discards the result,
//     retries a few times, and finally falls back to the classic shard read
//     lock — which cannot starve, because writers hold the write half of the
//     same mutex. That protocol is written once, in shardRead; every reader
//     is a restartable body passed to it. Long-window readers (cursor scans,
//     batched shard groups) additionally pin the epoch domain, which
//     guarantees that no memory they could have observed is recycled until
//     they unpin; short reads take no pin at all (see the comment above
//     shardFind) and lean on the same epoch machinery indirectly — the
//     write-side grace period is what keeps a concurrently-retired chunk's
//     bytes intact long enough that validation, not memory safety, is the
//     only concern.
//
// The point-read fast path therefore performs zero mutex acquisitions and
// zero atomic read-modify-writes: two sequence loads around the walk. The
// scan/batch fast path adds one slot CAS to pin and one store to unpin per
// chunk or shard group.
//
// Race-enabled builds compile the optimistic half out (lockFreeBuild in
// lockfree_race.go): the race detector cannot model a seqlock — readers
// intentionally overlap writers and discard torn results — so under -race
// every read takes the shard RWMutex through the same shardRead and the
// suite validates the locked half instead.

import (
	"repro/internal/core"
	"repro/internal/epoch"
	"repro/internal/memman"
)

// readTries is the number of optimistic attempts a reader makes before
// falling back to the shard read lock. Under a sustained write storm the
// fallback keeps readers live; under normal traffic the first attempt wins.
const readTries = 3

// optimisticMaxFrames bounds the cursor descent depth during optimistic
// scans: a torn read that manufactures a cyclic HP chain panics out of the
// walk instead of pushing frames forever. Legitimate descents push roughly
// one frame per two key bytes, so this admits keys of several KiB; deeper
// (torn or legitimately huge) walks fall back to the locked scan.
const optimisticMaxFrames = 4096

// ReadLockMode reports how point reads and scans synchronise with writers:
// "epoch" (lock-free seqlock-validated reads) or "rwmutex" (the shard read
// lock; race-detector builds). Benchmark rows record it so scaling curves
// are attributable.
func (s *Store) ReadLockMode() string {
	if lockFreeBuild {
		return "epoch"
	}
	return "rwmutex"
}

// shardWrite is the writer protocol, written once; shardRead's twin. A write
// of n operations to sh is two bodies: log enqueues them to sh's write-ahead
// log and reports the last record's sequence plus how many of the n the log
// now holds (0 or 1 for a single op, 0 or n for a batch group, any prefix for
// a chunked bulk run); apply mutates the tree for exactly that prefix. This
// is where the fail-fast rule lives: memory never runs ahead of what the log
// can replay, so a degraded or closed log (covered == 0) leaves the tree
// untouched and a log that fails mid-run lands exactly the enqueued prefix.
// A store without a WAL never calls log and applies all n.
//
// Both bodies run under the shard write lock inside the publication bracket:
// the epoch domain is pinned so frees retired by the edit carry a still-open
// epoch, and the tree's seqlock is odd so optimistic readers discard what
// they see. Enqueueing under the lock makes the per-key log order the apply
// order. Closing the bracket drains retired memory whose epoch is already
// quiescent (inside the seqlock bracket, so optimistic stats readers never
// observe a half-drained allocator), publishes the tree, releases the pin and
// tries to move the global epoch forward so the next writer can drain what
// this one retired. The durability wait (SyncAlways blocks until the record
// is fsynced) happens after the lock is dropped, so writers across shards —
// and writers of the same shard accumulated during an in-flight fsync — share
// group commits.
//
// No defer: a panicking body is a bug, and it leaves the shard locked. The
// bodies do not escape, so closures passed here are not heap-allocated.
func (s *Store) shardWrite(sh *shard, n int, log func() (seq uint64, covered int), apply func(covered int)) {
	sh.mu.Lock()
	g := s.epochs.Pin()
	a := sh.tree.Allocator()
	a.SetRetireEpoch(g.Epoch())
	sh.tree.BeginWrite()
	var seq uint64
	if sh.wal != nil {
		seq, n = log()
	}
	apply(n)
	if a.RetiredCount() > 0 {
		a.DrainRetired(s.epochs.SafeEpoch())
	}
	sh.tree.EndWrite()
	g.Unpin()
	if a.RetiredCount() > 0 {
		s.epochs.TryAdvance()
	}
	sh.mu.Unlock()
	if seq != 0 {
		if err := sh.wal.Commit(seq); err != nil {
			s.noteWALErr(err)
		}
	}
}

// shardRead is the reader protocol, written once. body reads sh's tree and
// must be restartable: it runs up to readTries times with optimistic set —
// no lock held, against a tree a writer may be mutating — and such a run is
// discarded (the next run overwrites its outputs) when the seqlock moved or
// the torn walk panicked. If none validates, body runs once more with
// optimistic clear under the shard read lock, and that result stands. pin
// holds the epoch domain across the optimistic runs, for bodies that keep
// decoded positions or fill caller-visible buffers over a long window.
//
// One recover barrier covers the whole optimistic loop, so a panicking run
// goes straight to the lock. The locked run has no barrier: a panic under
// the lock is a real bug and propagates, with the lock released. body does
// not escape, so a closure passed here is not heap-allocated.
func (s *Store) shardRead(sh *shard, pin bool, body func(optimistic bool)) {
	if lockFreeBuild {
		accepted := func() (valid bool) {
			var g epoch.Guard
			if pin {
				g = s.epochs.Pin()
			}
			walking := false
			defer func() {
				g.Unpin()
				// Only a panic out of body is a torn read; recover() is not
				// even consulted otherwise.
				if walking && recover() != nil {
					valid = false
				}
			}()
			for t := 0; t < readTries; t++ {
				s0, stable := sh.tree.ReadSeq()
				if !stable {
					continue
				}
				walking = true
				body(true)
				walking = false
				if sh.tree.SeqValid(s0) {
					return true
				}
			}
			return false
		}()
		if accepted {
			return
		}
	}
	sh.mu.RLock()
	defer sh.mu.RUnlock()
	body(false)
}

// Point reads (shardFind, and the pin=false bodies below) run optimistically
// WITHOUT claiming a reader slot. They stay safe without the pin because
// their exposure window is a single bounded walk:
//
//   - the walk terminates regardless of what it reads (descent length is
//     bounded by the key, in-container scans always advance, cursor depth is
//     capped), and every byte it can reach stays in-bounds memory — in-slab
//     chunks are recycled in place, ext buffers are kept alive by the GC,
//     and retired chunks sit in the epoch-deferred free lists for at least a
//     full grace period before any reuse;
//   - a walk that does observe recycled bytes produces garbage or a panic,
//     both of which the seqlock validation / recover barrier convert into a
//     retry — exactly like any other torn read.
//
// Dropping the slot claim removes both reader-side atomic RMWs, which is
// what lets a point read undercut even an uncontended RLock/RUnlock pair.
// Cursor scans and batched group reads DO pin: they hold decoded positions
// (or fill caller-visible result slices) across a much longer window, and
// one slot CAS amortised over a chunk or a shard group is free.

// shardFind is the per-shard point read behind Store.Get and Store.Has:
// optimistic first, locked fallback. It is the one reader that does not go
// through shardRead: the protocol is open-coded because a closure call plus a
// second frame is a measurable slice of a sub-microsecond walk. The one armed
// defer doubles as the panic fallback — a torn walk that panics is recovered
// and redone under the read lock, so the function still returns a correct
// result.
//
//hyperion:noalloc
func (s *Store) shardFind(sh *shard, k []byte) (value uint64, hasValue, exists bool) {
	if lockFreeBuild {
		walking := false
		defer func() {
			if walking && recover() != nil {
				sh.mu.RLock()
				value, hasValue, exists = sh.tree.Find(k)
				sh.mu.RUnlock()
			}
		}()
		for t := 0; t < readTries; t++ {
			s0, stable := sh.tree.ReadSeq()
			if !stable {
				continue
			}
			walking = true
			v, hv, ex := sh.tree.Find(k)
			walking = false
			if sh.tree.SeqValid(s0) {
				return v, hv, ex
			}
		}
	}
	sh.mu.RLock()
	value, hasValue, exists = sh.tree.Find(k)
	sh.mu.RUnlock()
	return value, hasValue, exists
}

// shardLen reads one shard's key count.
func (s *Store) shardLen(sh *shard) (n int64) {
	s.shardRead(sh, false, func(bool) { n = sh.tree.Len() })
	return n
}

// shardStats reads one shard's structural counters.
func (s *Store) shardStats(sh *shard) (st core.Stats) {
	s.shardRead(sh, false, func(bool) { st = sh.tree.Stats() })
	return st
}

// shardMemStats reads one shard's allocator statistics. The allocator walk
// only loads published tables, but its counters are plain fields mutated
// inside write brackets (including the deferred-free drain), so the seqlock
// check makes the snapshot consistent.
func (s *Store) shardMemStats(sh *shard) (st memman.Stats) {
	s.shardRead(sh, false, func(bool) { st = sh.tree.Allocator().Stats() })
	return st
}

// shardFootprint reads one shard's allocator footprint.
func (s *Store) shardFootprint(sh *shard) (n int64) {
	s.shardRead(sh, false, func(bool) { n = sh.tree.MemoryFootprint() })
	return n
}

// readGetGroup fills results for a GetBatch shard group (opIdx nil = all of
// lookups) under one seqlock snapshot: one sequence check per group instead
// of per key. A torn attempt leaves partial garbage in results, which the
// retry or the locked run overwrites. The body is defer-free on purpose: a
// defer in scope pessimises codegen for a loop that runs once per batched
// key.
func (s *Store) readGetGroup(sh *shard, lookups [][]byte, opIdx []int32, results []Result) {
	s.shardRead(sh, true, func(bool) {
		var scratch [opScratchSize]byte
		if opIdx == nil {
			for i := range lookups {
				results[i].Value, results[i].Ok = sh.tree.Get(s.transformAppend(scratch[:0], lookups[i]))
			}
		} else {
			for _, i := range opIdx {
				results[i].Value, results[i].Ok = sh.tree.Get(s.transformAppend(scratch[:0], lookups[i]))
			}
		}
	})
}

// readApplyGroup executes a read-only ApplyBatch shard group (OpGet/OpHas
// only; opIdx nil = the whole batch); same contract as readGetGroup.
func (s *Store) readApplyGroup(sh *shard, ops []Op, opIdx []int32, results []Result) {
	s.shardRead(sh, true, func(bool) {
		var scratch [opScratchSize]byte
		if opIdx == nil {
			for i, op := range ops {
				results[i] = readOp(sh.tree, op, s.transformAppend(scratch[:0], op.Key))
			}
		} else {
			for _, i := range opIdx {
				results[i] = readOp(sh.tree, ops[i], s.transformAppend(scratch[:0], ops[i].Key))
			}
		}
	})
}
