package hyperion

import (
	"sync"

	"repro/internal/core"
	"repro/internal/keys"
	"repro/internal/wal"
)

// shard is one independently locked arena: a core trie guarded by a
// read-write mutex. Readers of the same shard proceed concurrently, writers
// are exclusive; operations on different shards never contend.
type shard struct {
	mu   sync.RWMutex
	tree *core.Tree

	// wal is the shard's write-ahead log, nil unless the store was created
	// via Open with Options.WALDir. Mutations enqueue their record under mu
	// (wal.go), so log order equals apply order per key.
	wal *wal.Log
}

// arenaIndex routes a key to its arena by leading byte, keeping contiguous
// key ranges together so cross-arena iteration stays ordered: arena i holds
// exactly the keys whose leading byte falls into [i*256/n, (i+1)*256/n).
//
// Routing invariant: the arena is chosen from the RAW leading byte while the
// trees store transformed keys, and this is safe because the key
// pre-processing transformation (keys.Preprocess, paper §3.4) copies the
// leading byte verbatim and preserves binary-comparable order. Routing on the
// raw key is therefore identical to routing on the transformed key, each
// arena still covers a contiguous transformed-key range, and concatenating
// per-arena iterations in arena order yields the global lexicographic order.
// TestShardRoutingInvariantUnderPreprocessing locks this property in.
func (s *Store) arenaIndex(key []byte) int {
	if len(s.shards) == 1 || len(key) == 0 {
		return 0
	}
	return int(key[0]) * len(s.shards) / 256
}

// shardFor returns the shard that stores key.
func (s *Store) shardFor(key []byte) *shard {
	return s.shards[s.arenaIndex(key)]
}

// opScratchSize is the size of the fixed stack scratch the per-operation
// paths pass to transformAppend. It covers the pre-processed form of keys up
// to opScratchSize-1 raw bytes (pre-processing adds at most one byte); longer
// keys transparently fall back to one heap allocation inside append.
const opScratchSize = 128

// transformAppend returns the stored form of key: key itself when
// pre-processing is off, otherwise the pre-processed form appended to dst
// (usually the empty head of a caller's stack scratch, making the transform
// allocation-free for keys that fit).
func (s *Store) transformAppend(dst, key []byte) []byte {
	if !s.opts.KeyPreprocessing {
		return key
	}
	return keys.PreprocessAppend(dst, key)
}

// untransformAppend is the append-style inverse of transformAppend. Unlike
// it, the fallback also copies: iteration paths hand the result to user
// callbacks, which must never alias the tree's internal key buffer.
func (s *Store) untransformAppend(dst, key []byte) []byte {
	if !s.opts.KeyPreprocessing {
		return append(dst, key...)
	}
	return keys.UnpreprocessAppend(dst, key)
}

// NumArenas returns the number of independently locked arenas.
func (s *Store) NumArenas() int { return len(s.shards) }

// Workers returns the bound on goroutines the batched execution paths
// (ApplyBatch, GetBatch, ParallelEach) use.
func (s *Store) Workers() int { return s.workers }
