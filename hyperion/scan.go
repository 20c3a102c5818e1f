package hyperion

// This file implements the chunked shard scan shared by Range, ScanPrefix,
// CountPrefix, Save (snapshot.go) and ParallelEach (batch.go), driven by one
// round loop, shardRounds. The one invariant every iterator relies on lives
// here, in a single place: a round is read through shardRead (optimistically
// and seqlock-validated, or under the shard read lock), nothing is held when
// its result is handed on (so user callbacks may write to the store without
// self-deadlocking), and the scan resumes right behind the round, which can
// neither skip nor repeat keys that are not mutated during the iteration. A
// round either fills a chunk of pairs (fillChunk) or counts keys without
// building them (countShardRange: one core.Cursor.Count, which stops at a
// subtree boundary once it has counted scanChunkSize keys).
//
// Resuming takes one of two routes, decided per round by the tree's seqlock
// sequence (continuation below):
//
//   - continue: when the tree still reads the sequence at which the previous
//     round was accepted, no shardWrite has run since — nothing was edited,
//     retired or recycled — so the cursor's parked frames are still exactly
//     right and the next round starts where the cursor stopped;
//   - re-seek: otherwise (a callback or another goroutine wrote to the
//     shard), the cursor seeks the round's resume key through the
//     container/T-Node jump tables and jump successors, O(depth ×
//     jump-probe). A fill resumes at the stored-form successor of the last
//     accepted key (its stored bytes plus one 0x00); a count at the resume
//     key Cursor.Count returned, which no counted key reaches and no
//     uncounted one exceeds.
//
// Every tree mutator runs inside shardWrite's seqlock bracket (the bracket
// analyzer proves it), so an unchanged sequence is a sufficient witness for
// the first route.

import (
	"bytes"
	"sync"

	"repro/internal/core"
)

// scanChunkSize bounds how many pairs one shardRead round of a scan reads
// (Range, ScanPrefix, Save), and is the least a CountPrefix round counts
// before it may stop. It is small so a short range does not decode,
// untransform and copy pairs its callback never asks for, and a writer waits
// behind at most one short round; long scans pay nothing for the small size
// because rounds continue the cursor instead of re-seeking.
const scanChunkSize = 64

// kvChunk is one snapshot of up to chunkSize pairs. Keys are the raw
// (un-preprocessed) bytes of all pairs concatenated into one flat buffer
// addressed by offs, so a freshly built chunk costs a handful of allocations
// (the struct plus its buffers) instead of one per key — and zero when the
// buffers are reused via reset. hasv records whether pair i carries a value
// (Put) or is a bare key (PutKey); Range and ParallelEach report bare keys
// with value 0 per their contract, while the snapshot writer (snapshot.go)
// preserves the distinction on disk.
type kvChunk struct {
	keys []byte
	offs []int32 // pair i's key is keys[offs[i]:offs[i+1]]
	vals []uint64
	hasv []bool
}

// newKVChunk allocates chunk buffers sized for n pairs of small keys.
func newKVChunk(n int) *kvChunk {
	c := &kvChunk{
		keys: make([]byte, 0, n*8),
		offs: make([]int32, 1, n+1),
		vals: make([]uint64, 0, n),
		hasv: make([]bool, 0, n),
	}
	return c
}

// reset empties the chunk, keeping its buffers.
func (c *kvChunk) reset() {
	c.keys = c.keys[:0]
	c.offs = append(c.offs[:0], 0)
	c.vals = c.vals[:0]
	c.hasv = c.hasv[:0]
}

func (c *kvChunk) len() int { return len(c.vals) }

// key returns pair i's key. The capacity is capped at the key's end so a
// callback appending to the slice it receives reallocates instead of
// overwriting the next pair's bytes in the shared flat buffer.
func (c *kvChunk) key(i int) []byte { return c.keys[c.offs[i]:c.offs[i+1]:c.offs[i+1]] }

func (c *kvChunk) value(i int) uint64 { return c.vals[i] }

// hasValue reports whether pair i carries a value (false for PutKey keys).
func (c *kvChunk) hasValue(i int) bool { return c.hasv[i] }

// scanState is the working set of one scan call: the cursor, the two resume
// buffers (a round builds the NEXT resume key into resumeNext so a discarded
// attempt cannot clobber the current one), the chunk Range/ScanPrefix/Save
// fill and the prefix-bound endpoints.
// It is pooled, so a warm scan allocates nothing. Whether the cursor may be
// continued is NOT part of it: that is a local of every scan call
// (continuation).
type scanState struct {
	cur                core.Cursor
	resume, resumeNext []byte
	chunk              kvChunk
	succ, lo, hi       []byte
}

var scanStates = sync.Pool{New: func() any { return new(scanState) }}

func getScanState() *scanState { return scanStates.Get().(*scanState) }

// putScanState returns st to the pool. The cursor drops its tree and frame
// buffers first, so an idle pool does not pin a dropped store's memory.
func putScanState(st *scanState) {
	st.cur.Init(nil)
	scanStates.Put(st)
}

// continuation is one scan call's right to continue its cursor instead of
// re-seeking; a local of every shardRounds call, never pooled. ok is set
// only once shardRead has accepted a round, and cleared as the next round
// starts, so a torn, discarded or panicking round can never be continued.
type continuation struct {
	ok      bool   // st.cur is parked right behind the last accepted key
	seq     uint64 // the tree sequence the accepted round read at
	running uint64 // the sequence the running round reads at
}

// position readies st.cur for one shardRead round over sh: it continues
// where the last accepted round stopped when the tree still reads that
// round's sequence, and re-seeks st.resume otherwise.
func (c *continuation) position(sh *shard, st *scanState, optimistic bool) {
	st.cur.SetMaxFrames(maxFrames(optimistic))
	c.running, _ = sh.tree.ReadSeq()
	if !c.ok || c.running != c.seq {
		st.cur.Seek(st.resume)
	}
	c.ok = false
}

// accept records the round shardRead just accepted: the cursor may be
// continued at its sequence, and its resume key becomes current.
func (c *continuation) accept(st *scanState) {
	c.ok, c.seq = true, c.running
	st.resume, st.resumeNext = st.resumeNext, st.resume
}

// shardRounds is the one round driver of every chunked shard scan. It
// readies st to scan sh from tstart and runs rounds: each positions st.cur
// (continuation) and runs read inside a shardRead body, so read must be
// restartable and report whether it stopped full (more may follow) and
// whether it crossed the scan's upper bound. After each accepted round, after
// runs with nothing held; the driver stops when the round was not full or
// after returns false, and returns the last round's reachedEnd.
func (s *Store) shardRounds(sh *shard, st *scanState, tstart []byte, read func() (full, reachedEnd bool), after func() bool) (reachedEnd bool) {
	st.cur.Init(sh.tree)
	st.resume = append(st.resume[:0], tstart...)
	var cont continuation
	var full bool
	round := func(optimistic bool) {
		cont.position(sh, st, optimistic)
		full, reachedEnd = read()
	}
	for {
		s.shardRead(sh, true, round)
		cont.accept(st)
		if !after() || !full {
			return reachedEnd
		}
	}
}

// fillChunk advances the scan by one chunk from st.cur's position: it
// appends up to chunkSize pairs with stored keys below tend to chunk and —
// when the chunk fills — writes the stored-form successor of the last key
// into st.resumeNext. It runs inside a shardRead body, so it must be
// restartable: everything it writes is an output.
func (s *Store) fillChunk(st *scanState, chunk *kvChunk, tend []byte, chunkSize int, abort func() bool) (full, reachedEnd bool) {
	for {
		if abort != nil && abort() {
			return false, false
		}
		k, v, hasValue, ok := st.cur.Next()
		if !ok {
			return false, false
		}
		if tend != nil && bytes.Compare(k, tend) >= 0 {
			return false, true
		}
		chunk.keys = s.untransformAppend(chunk.keys, k)
		chunk.offs = append(chunk.offs, int32(len(chunk.keys)))
		chunk.vals = append(chunk.vals, v)
		chunk.hasv = append(chunk.hasv, hasValue)
		if len(chunk.vals) == chunkSize {
			st.resumeNext = append(append(st.resumeNext[:0], k...), 0)
			return true, false
		}
	}
}

// scanShardChunks streams sh's stored pairs with keys in [tstart, tend)
// (stored-key space; a nil tend means unbounded) in chunks of up to chunkSize
// pairs through shardRounds. Every chunk is filled through shardRead (pinned
// optimistic attempts, shard read lock as fallback) and passed to emit with
// no lock held; emit returning false stops the scan. nextChunk supplies the
// chunk to fill (it is reset here): return the same chunk to reuse buffers
// (Range), or a fresh one when emit retains the chunk beyond the call
// (ParallelEach's channel). abort, if non-nil, is polled before every pair
// (the first of a chunk included) for cheap early termination from the
// outside. The return value reports whether the scan ended because it
// reached tend — callers walking arenas in order can stop at the first shard
// that crosses the bound.
func (s *Store) scanShardChunks(sh *shard, st *scanState, tstart, tend []byte, chunkSize int, abort func() bool, nextChunk func() *kvChunk, emit func(*kvChunk) bool) (reachedEnd bool) {
	var chunk *kvChunk
	return s.shardRounds(sh, st, tstart,
		func() (full, reachedEnd bool) {
			if chunk == nil {
				chunk = nextChunk()
			}
			chunk.reset()
			return s.fillChunk(st, chunk, tend, chunkSize, abort)
		},
		func() bool {
			more := chunk.len() == 0 || emit(chunk)
			chunk = nil
			return more
		})
}

// maxFrames is the cursor depth bound of a shardRead body: capped while the
// walk may be torn, unbounded under the lock.
func maxFrames(optimistic bool) int {
	if optimistic {
		return optimisticMaxFrames
	}
	return 0
}

// countShardRange counts sh's stored pairs with keys in [tstart, tend)
// (stored-key space; nil tend = unbounded) through shardRounds, one
// Cursor.Count of at least scanChunkSize keys per round: the keys are never
// built, and a subtree that lies wholly below tend is counted from its node
// headers. Returns the count and whether the scan crossed tend.
func (s *Store) countShardRange(sh *shard, st *scanState, tstart, tend []byte) (total int, reachedEnd bool) {
	var n int
	reachedEnd = s.shardRounds(sh, st, tstart,
		func() (full, reachedEnd bool) {
			n, st.resumeNext, full, reachedEnd = st.cur.Count(tend, scanChunkSize, st.resumeNext)
			return full, reachedEnd
		},
		func() bool {
			total += n
			return true
		})
	return total, reachedEnd
}
