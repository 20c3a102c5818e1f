package hyperion

// This file implements the chunked-snapshot shard scan shared by Range,
// ScanPrefix, Save (snapshot.go) and ParallelEach (batch.go). The one
// invariant every iterator relies on lives here, in a single place: a chunk
// of pairs is snapshotted through shardRead (optimistically, or under the
// shard read lock), nothing is held when the chunk is handed on (so user
// callbacks may write to the store without self-deadlocking), and the scan
// resumes at the immediate lexicographic successor of the last snapshotted
// key (its stored form plus one 0x00 byte), which can neither skip nor repeat
// keys that are not mutated during the iteration.
//
// Resuming goes through the core cursor engine: every chunk re-seeks the
// resume key through the container/T-Node jump tables and jump successors
// (core.Cursor.Seek), so the per-chunk resume cost is O(depth × jump-probe)
// instead of the O(position) linear decode the pre-cursor implementation paid
// — the difference the `scan` bench experiment measures.

import (
	"bytes"

	"repro/internal/core"
)

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

// scanShardChunks streams sh's stored pairs with keys in [tstart, tend)
// (stored-key space; a nil tend means unbounded) in chunks of up to chunkSize
// pairs. Every chunk is filled through shardRead (pinned optimistic attempts,
// shard read lock as fallback) by seeking a core cursor to the resume key,
// and passed to emit with no lock held; emit returning false stops the scan.
// nextChunk supplies the chunk to fill (it is reset here): return the same
// chunk to reuse buffers (Range), or a fresh one when emit retains the chunk
// beyond the call (ParallelEach's channel). abort, if non-nil, is polled per pair and per
// chunk for cheap early termination from the outside. The return value
// reports whether the scan ended because it reached tend — callers walking
// arenas in order can stop at the first shard that crosses the bound.
func (s *Store) scanShardChunks(sh *shard, tstart, tend []byte, chunkSize int, abort func() bool, nextChunk func() *kvChunk, emit func(*kvChunk) bool) (reachedEnd bool) {
	var cur core.Cursor
	// Two resume buffers: the fill builds the NEXT resume key into a separate
	// buffer so a discarded (torn) attempt cannot clobber the current one;
	// the swap below commits it only after shardRead accepted the chunk.
	var resume, resumeNext []byte
	resume = append(resume, tstart...)
	var chunk *kvChunk
	var full bool
	fill := func(optimistic bool) {
		chunk.reset()
		cur.SetMaxFrames(maxFrames(optimistic))
		resumeNext, full, reachedEnd = s.fillChunk(sh, &cur, chunk, resume, resumeNext, tend, chunkSize, abort)
	}
	for {
		if abort != nil && abort() {
			return false
		}
		chunk = nextChunk()
		s.shardRead(sh, true, fill)
		resume, resumeNext = resumeNext, resume
		if chunk.len() > 0 && !emit(chunk) {
			return reachedEnd
		}
		if !full || reachedEnd {
			return reachedEnd
		}
	}
}

// maxFrames is the cursor depth bound of a shardRead body: capped while the
// walk may be torn, unbounded under the lock.
func maxFrames(optimistic bool) int {
	if optimistic {
		return optimisticMaxFrames
	}
	return 0
}

// fillChunk advances the scan by one chunk: it seeks cur to resume, appends
// up to chunkSize pairs with stored keys in [resume, tend) to chunk, and —
// when the chunk fills — writes the stored-form successor of the last key
// into resumeNext (returned possibly regrown). It runs as a shardRead body,
// so it must be restartable: everything it writes is an output.
func (s *Store) fillChunk(sh *shard, cur *core.Cursor, chunk *kvChunk, resume, resumeNext, tend []byte, chunkSize int, abort func() bool) (nextResume []byte, full, reachedEnd bool) {
	cur.Init(sh.tree)
	cur.Seek(resume)
	for {
		if abort != nil && abort() {
			break
		}
		k, v, hasValue, ok := cur.Next()
		if !ok {
			break
		}
		if tend != nil && bytes.Compare(k, tend) >= 0 {
			reachedEnd = true
			break
		}
		chunk.keys = s.untransformAppend(chunk.keys, k)
		chunk.offs = append(chunk.offs, int32(len(chunk.keys)))
		chunk.vals = append(chunk.vals, v)
		chunk.hasv = append(chunk.hasv, hasValue)
		if len(chunk.vals) == chunkSize {
			resumeNext = append(resumeNext[:0], k...)
			resumeNext = append(resumeNext, 0)
			full = true
			break
		}
	}
	return resumeNext, full, reachedEnd
}

// countChunkSize bounds how many pairs CountPrefix counts per lock
// acquisition. Counting neither copies nor untransforms keys, so the
// per-pair cost under the lock is far below Range's and a larger chunk
// amortises the re-seek better.
const countChunkSize = 4096

// countShardRange counts sh's stored pairs with keys in [tstart, tend)
// (stored-key space; nil tend = unbounded) through the same chunked,
// lock-releasing cursor scan as scanShardChunks, but without materialising
// the keys. A non-nil rawPrefix restricts the count to keys whose raw
// (untransformed) form starts with it — the over-approximation filter of
// prefixBounds; only then are keys untransformed, into one reused scratch.
// Returns the count and whether the scan crossed tend.
func (s *Store) countShardRange(sh *shard, tstart, tend, rawPrefix []byte) (total int, reachedEnd bool) {
	var cur core.Cursor
	var resume, resumeNext, scratch []byte
	resume = append(resume, tstart...)
	var n int
	var full bool
	count := func(optimistic bool) {
		cur.SetMaxFrames(maxFrames(optimistic))
		n, resumeNext, scratch, full, reachedEnd = s.countChunk(sh, &cur, resume, resumeNext, scratch, tend, rawPrefix)
	}
	for {
		s.shardRead(sh, true, count)
		total += n
		resume, resumeNext = resumeNext, resume
		if !full || reachedEnd {
			return total, reachedEnd
		}
	}
}

// countChunk counts up to countChunkSize pairs in [resume, tend) and, when
// the chunk fills, writes the resume successor into resumeNext. Same
// restartable-body contract as fillChunk.
func (s *Store) countChunk(sh *shard, cur *core.Cursor, resume, resumeNext, scratch, tend, rawPrefix []byte) (n int, nextResume, nextScratch []byte, full, reachedEnd bool) {
	cur.Init(sh.tree)
	cur.Seek(resume)
	steps := 0
	for {
		k, _, _, ok := cur.Next()
		if !ok {
			break
		}
		if tend != nil && bytes.Compare(k, tend) >= 0 {
			reachedEnd = true
			break
		}
		steps++
		if rawPrefix == nil {
			n++
		} else {
			scratch = s.untransformAppend(scratch[:0], k)
			if bytes.HasPrefix(scratch, rawPrefix) {
				n++
			}
		}
		if steps == countChunkSize {
			resumeNext = append(resumeNext[:0], k...)
			resumeNext = append(resumeNext, 0)
			full = true
			break
		}
	}
	return n, resumeNext, scratch, full, reachedEnd
}
