package hyperion

import (
	"bytes"
	"runtime"
	"sync"
	"sync/atomic"

	"repro/internal/core"
	"repro/internal/epoch"
	"repro/internal/keys"
)

// Store is a thread-safe Hyperion key-value store. Keys are arbitrary byte
// strings (including the empty key), values are 64-bit integers. Keys routed
// to different arenas can be accessed concurrently; within an arena, readers
// proceed concurrently and writers are exclusive.
//
// The store is layered over a sharding subsystem (shard.go): every key is
// routed to one of Options.Arenas independently locked shards by its leading
// byte. Single-key operations below pay one lock round-trip per call; the
// batched execution paths in batch.go (ApplyBatch, GetBatch, ParallelEach)
// amortise locking per shard group and run shard groups concurrently.
type Store struct {
	opts    Options
	shards  []*shard
	workers int

	// epochs is the store-wide reclamation domain of the lock-free read
	// path (lockfree.go).
	epochs *epoch.Domain

	// Durability state (wal.go): walErr is the sticky first WAL failure
	// (while set and the store is open, writes are rejected — degraded
	// read-only mode). closed flips once, in Close; closeOnce makes Close
	// run once and closeErr is the result it hands every caller. rearmMu
	// serialises Rearm and Checkpoint with each other and with Close, rearms
	// counts successful Rearms, and autoRearmStop/autoRearmDone (non-nil
	// only with Options.WALAutoRearm) stop and join the background probe.
	// All stay cold on stores without a WAL.
	walErr        atomic.Pointer[error]
	closed        atomic.Bool
	closeOnce     sync.Once
	closeErr      error
	rearmMu       sync.Mutex
	rearms        atomic.Uint64
	autoRearmStop chan struct{}
	autoRearmDone chan struct{}
}

// New creates an empty store.
func New(opts Options) *Store {
	opts = opts.normalized()
	s := &Store{opts: opts}
	cfg := opts.coreConfig()
	s.shards = make([]*shard, opts.Arenas)
	for i := range s.shards {
		s.shards[i] = &shard{tree: core.New(cfg)}
	}
	s.workers = opts.BatchWorkers
	if s.workers <= 0 {
		s.workers = runtime.GOMAXPROCS(0)
	}
	s.epochs = epoch.NewDomain()
	// Frees must not recycle memory a pinned reader may still reach: route
	// them through the epoch-deferred queue.
	for _, sh := range s.shards {
		sh.tree.Allocator().DeferFrees(true)
	}
	return s
}

// Put stores key with value, overwriting any existing value. The key is
// copied; the caller keeps ownership of the slice. With KeyPreprocessing the
// transformed key is built in a fixed stack scratch, so steady-state Put
// performs no heap allocation.
func (s *Store) Put(key []byte, value uint64) {
	s.writeOp(Op{Kind: OpPut, Key: key, Value: value})
}

// PutKey stores key without a value (set semantics).
func (s *Store) PutKey(key []byte) {
	s.writeOp(Op{Kind: OpPutKey, Key: key})
}

// Delete removes key and reports whether it was present.
func (s *Store) Delete(key []byte) bool {
	return s.writeOp(Op{Kind: OpDelete, Key: key}).Ok
}

// writeOp is the single-key writer behind Put, PutKey and Delete: one
// operation through shardWrite. A log that refuses the record (degraded or
// closed) leaves the tree untouched and the zero Result.
func (s *Store) writeOp(op Op) (r Result) {
	sh := s.shardFor(op.Key)
	var scratch [opScratchSize]byte
	k := s.transformAppend(scratch[:0], op.Key)
	s.shardWrite(sh, 1,
		func() (uint64, int) { return s.walEnqueueOp(sh, op.Kind.walKind(), op.Key, op.Value) },
		func(covered int) {
			if covered == 1 {
				r = applyOp(sh.tree, op, k)
			}
		})
	return r
}

// Get returns the value stored for key; ok is false if the key is absent or
// has no value attached. Get performs no heap allocation for keys whose
// transformed form fits the stack scratch (raw keys under opScratchSize-1
// bytes); longer keys pay one allocation. On non-race builds the lookup is
// lock-free (seqlock-validated walk, shardFind in lockfree.go); it falls back
// to the shard read lock only under sustained write pressure.
func (s *Store) Get(key []byte) (value uint64, ok bool) {
	sh := s.shardFor(key)
	var scratch [opScratchSize]byte
	value, ok, _ = s.shardFind(sh, s.transformAppend(scratch[:0], key))
	return value, ok
}

// Has reports whether key is stored (with or without a value). Like Get, Has
// reads lock-free on non-race builds.
func (s *Store) Has(key []byte) bool {
	sh := s.shardFor(key)
	var scratch [opScratchSize]byte
	_, _, exists := s.shardFind(sh, s.transformAppend(scratch[:0], key))
	return exists
}

// Len returns the number of stored keys. Each shard's count is read through
// the lock-free path (seq-validated, so never torn); the sum across shards
// is not an atomic global snapshot — exactly like the locked implementation,
// which also reads shard counts one lock at a time.
func (s *Store) Len() int {
	total := int64(0)
	for _, sh := range s.shards {
		total += s.shardLen(sh)
	}
	return int(total)
}

// Range calls fn for every stored key greater than or equal to start, in
// lexicographic order, until fn returns false. The key slice passed to fn is
// only valid for the duration of the call; copy it if it must be retained.
// Keys stored via PutKey are reported with value 0. A warm Range performs no
// heap allocation.
//
// REENTRANCY: fn may call any method of the same store, including writes.
// Range holds no shard lock while fn runs: it reads chunks of scanChunkSize
// pairs through the seqlock-validated shard reader (the shard read lock only
// as a fallback), invokes fn for them with nothing held, and then continues
// the scan behind the last delivered key — straight on from the cursor when
// the shard has not been written since, by a re-seek when it has
// (scanShardChunks in scan.go). The flip side is that Range does not observe
// an atomic snapshot — keys inserted or deleted while an iteration is in
// progress (by fn itself or by other goroutines) may or may not be reported,
// but keys untouched during the iteration are reported exactly once.
func (s *Store) Range(start []byte, fn func(key []byte, value uint64) bool) {
	st := getScanState()
	tstart := start
	if s.opts.KeyPreprocessing {
		st.lo = keys.PreprocessAppend(st.lo[:0], start)
		tstart = st.lo
	}
	s.scanRange(st, s.arenaIndex(start), tstart, nil, nil, fn)
	putScanState(st)
}

// scanRange streams the stored-key interval [tstart, tend) (nil tend =
// unbounded) across the shards from startShard on, in order, through st's
// chunk — so a warm scan allocates nothing; the chunk's flat key buffer
// doubles as the untransform buffer shared by all callback invocations (its
// content is only valid during the call, per the Range contract). A non-nil
// rawPrefix restricts emissions to keys carrying it (the over-approximation
// filter of prefixBounds; chunk keys are already untransformed, so the
// filter is one prefix compare).
//
// Arenas hold contiguous key ranges by raw leading byte, and the arena
// routing invariant (shard.go) makes raw and transformed routing agree, so
// no key in the interval can live in an arena before startShard, and the
// walk stops at the first shard whose scan crosses tend.
func (s *Store) scanRange(st *scanState, startShard int, tstart, tend, rawPrefix []byte, fn func(key []byte, value uint64) bool) {
	stopped := false
	for _, sh := range s.shards[startShard:] {
		if stopped {
			return
		}
		reachedEnd := s.scanShardChunks(sh, st, tstart, tend, scanChunkSize, nil,
			func() *kvChunk { return &st.chunk },
			func(c *kvChunk) bool {
				for i := 0; i < c.len(); i++ {
					if rawPrefix != nil && !bytes.HasPrefix(c.key(i), rawPrefix) {
						continue
					}
					if !fn(c.key(i), c.value(i)) {
						stopped = true
						return false
					}
				}
				return true
			})
		if reachedEnd {
			return
		}
	}
}

// Each iterates every stored key in order.
func (s *Store) Each(fn func(key []byte, value uint64) bool) {
	s.Range(nil, fn)
}

// ScanPrefix calls fn for every stored key that starts with prefix, in the
// store's iteration order, until fn returns false. It shares Range's
// reentrancy and consistency contract (chunked reads, no lock held across
// fn, no atomic snapshot) but bounds the scan on both sides: the cursor seeks
// straight to the prefix range and the shard walk stops at its upper bound
// instead of filtering a full tail scan. An empty prefix iterates everything.
// A warm ScanPrefix performs no heap allocation.
//
// With KeyPreprocessing the stored-key bounds are computed per key-length
// class (prefixBounds): the transform is order-preserving only among keys of
// at least four bytes, so for short prefixes the stored interval
// over-approximates and the raw prefix is re-checked per emission. The
// iteration order is the stored-key order, which matches raw lexicographic
// order except across the short/long key-class boundary of the transform.
func (s *Store) ScanPrefix(prefix []byte, fn func(key []byte, value uint64) bool) {
	st := getScanState()
	tstart, tend, rawPrefix := s.prefixBounds(st, prefix)
	s.scanRange(st, s.arenaIndex(prefix), tstart, tend, rawPrefix, fn)
	putScanState(st)
}

// CountPrefix returns the number of stored keys that start with prefix. It
// runs through the same chunked, lock-releasing rounds as ScanPrefix, but
// when the stored bounds are exact each round is one count-only cursor step
// (core.Cursor.Count): no key is built or un-preprocessed, and a subtree that
// lies wholly inside the prefix range is counted from its node headers, so
// the cost grows with the nodes visited rather than the keys counted. When
// the bounds over-approximate (KeyPreprocessing with a prefix of two or more
// bytes, see prefixBounds), it counts ScanPrefix's filtered stream instead. A
// warm CountPrefix performs no heap allocation. The consistency contract is
// Range's: keys mutated while the count is in progress may or may not be
// included.
func (s *Store) CountPrefix(prefix []byte) int {
	st := getScanState()
	tstart, tend, rawPrefix := s.prefixBounds(st, prefix)
	total := 0
	if rawPrefix != nil {
		s.scanRange(st, s.arenaIndex(prefix), tstart, tend, rawPrefix, func([]byte, uint64) bool {
			total++
			return true
		})
	} else {
		for _, sh := range s.shards[s.arenaIndex(prefix):] {
			n, reachedEnd := s.countShardRange(sh, st, tstart, tend)
			total += n
			if reachedEnd {
				break
			}
		}
	}
	putScanState(st)
	return total
}

// prefixBounds translates a raw-key prefix into a stored-key interval
// [tstart, tend) containing every stored key whose raw form starts with
// prefix (nil tend = unbounded above). rawPrefix is non-nil (the prefix
// itself) when interval membership over-approximates the prefix set, in
// which case callers must re-check the raw prefix per key. Endpoints the
// translation builds live in st's bound buffers, so a warm call allocates
// nothing.
//
// Without KeyPreprocessing the stored space IS the raw space and the interval
// is exact. With it, keys of at least four bytes are transformed
// (keys.Preprocess) and shorter keys are stored verbatim, and the transform
// is only order-preserving within the long class — so the translation is
// class-aware:
//
//   - len(prefix) <= 1: both classes keep the first byte verbatim, the raw
//     interval is exact in stored space.
//   - len(prefix) >= 4: only long keys can match; [T(prefix), T(succ)) is
//     exact for them, but verbatim-stored short keys can fall inside the
//     interval, so emissions are filtered.
//   - len(prefix) 2..3: matching keys straddle both classes. The interval is
//     the union of the class envelopes — lower bound min(prefix, T(prefix
//     zero-padded to 4 bytes)), upper bound max(succ(prefix),
//     strict-successor of T(prefix 0xff-padded to 4 bytes)) — and emissions
//     are filtered.
func (s *Store) prefixBounds(st *scanState, prefix []byte) (tstart, tend, rawPrefix []byte) {
	succ, bounded := core.AppendPrefixSuccessor(st.succ[:0], prefix)
	st.succ = succ
	if !bounded {
		succ = nil
	}
	if !s.opts.KeyPreprocessing || len(prefix) <= 1 {
		return prefix, succ, nil
	}
	if len(prefix) >= 4 {
		st.lo = keys.PreprocessAppend(st.lo[:0], prefix)
		if bounded {
			st.hi = keys.PreprocessAppend(st.hi[:0], succ)
			tend = st.hi
		}
		return st.lo, tend, prefix
	}
	// 2- or 3-byte prefix under pre-processing.
	var lo [4]byte
	copy(lo[:], prefix)
	st.lo = keys.PreprocessAppend(st.lo[:0], lo[:]) // minimal transformed head of any long match
	tstart = prefix
	if bytes.Compare(st.lo, tstart) < 0 {
		tstart = st.lo
	}
	hi := [4]byte{prefix[0], 0xff, 0xff, 0xff}
	copy(hi[1:], prefix[1:])
	st.hi = keys.PreprocessAppend(st.hi[:0], hi[:])
	thi := st.hi
	// Transform payload bytes top out at 0xfc, so the increment cannot carry;
	// the result strictly bounds every transformed extension of hi's head.
	thi[len(thi)-1]++
	tend = succ // nil only for all-0xff prefixes, where thi bounds the longs…
	if tend == nil {
		// …but not the verbatim short class, which extends to the top of the
		// key space: unbounded.
		return tstart, nil, prefix
	}
	if bytes.Compare(thi, tend) > 0 {
		tend = thi
	}
	return tstart, tend, prefix
}

// PutUint64 stores an integer key in its binary-comparable encoding.
func (s *Store) PutUint64(key uint64, value uint64) {
	var buf [keys.Uint64Size]byte
	keys.PutUint64(buf[:], key)
	s.Put(buf[:], value)
}

// GetUint64 retrieves an integer key stored via PutUint64.
func (s *Store) GetUint64(key uint64) (uint64, bool) {
	var buf [keys.Uint64Size]byte
	keys.PutUint64(buf[:], key)
	return s.Get(buf[:])
}

// DeleteUint64 removes an integer key stored via PutUint64.
func (s *Store) DeleteUint64(key uint64) bool {
	var buf [keys.Uint64Size]byte
	keys.PutUint64(buf[:], key)
	return s.Delete(buf[:])
}

// Clear removes every key from the store, one shard at a time on the batch
// worker pool, so under SyncAlways the per-shard fsyncs of one Clear overlap
// (up to Workers() at a time).
func (s *Store) Clear() {
	s.runIndexed(len(s.shards), func(i int) { s.clearShard(s.shards[i]) })
}

// clearShard empties one shard (logged as one clear record). WAL replay
// reuses it before any log is attached.
func (s *Store) clearShard(sh *shard) {
	s.shardWrite(sh, 1,
		func() (uint64, int) { return s.walEnqueueOp(sh, walOpClear, nil, 0) },
		func(covered int) {
			if covered == 1 {
				sh.tree.Clear()
			}
		})
}

// CheckInvariants validates the structural invariants of every arena's trie.
// It is exposed for tests and debugging; the walk is expensive.
func (s *Store) CheckInvariants() error {
	for _, sh := range s.shards {
		sh.mu.RLock()
		err := sh.tree.CheckInvariants()
		sh.mu.RUnlock()
		if err != nil {
			return err
		}
	}
	return nil
}

// Name identifies the structure in benchmark reports.
func (s *Store) Name() string {
	if s.opts.KeyPreprocessing {
		return "Hyperion_p"
	}
	return "Hyperion"
}
