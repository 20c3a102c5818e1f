package core

// Seqlock-style publication for lock-free readers.
//
// A Tree remains single-writer (the shard mutex serialises mutations), but
// pinned readers may walk it concurrently with that writer. Publication is a
// classic seqlock: the writer brackets every structural mutation with
// BeginWrite/EndWrite, which move the sequence odd → even; an optimistic
// reader snapshots the sequence, walks, and accepts the result only if the
// sequence is still even and unchanged. Everything a torn walk can observe is
// survivable by construction:
//
//   - container bytes are plain data — a half-written stream decodes to
//     garbage values or an out-of-bounds offset, never to a wild pointer
//     (offsets are bounds-checked by the slice runtime and node/jump scans
//     always advance, so walks terminate);
//   - allocator tables are published atomically (memman/pub.go) and freed
//     chunks are epoch-deferred, so every byte slice a reader reaches is
//     intact memory;
//   - the residual failure mode is therefore a Go panic (slice bounds,
//     dangling-HP) which the reader protocol (hyperion/lockfree.go) recovers
//     and turns into a retry.
//
// The race detector cannot model this protocol: it flags the intentional
// read/write overlap even though torn results are discarded. Race-enabled
// builds therefore compile the optimistic readers out (hyperion's build
// tags) and read under the shard RWMutex; the four primitives below are
// plain atomics and stay race-clean on every build.

// BeginWrite marks the start of a structural mutation: the sequence becomes
// odd and in-flight optimistic readers will discard their results. Only the
// shard writer (holding the write lock) may call it.
func (t *Tree) BeginWrite() { t.seq.Add(1) }

// EndWrite marks the end of a structural mutation (sequence becomes even).
func (t *Tree) EndWrite() { t.seq.Add(1) }

// ReadSeq snapshots the publication sequence. stable is false while a write
// is in flight (odd sequence), in which case an optimistic read should not
// even start.
func (t *Tree) ReadSeq() (seq uint64, stable bool) {
	s := t.seq.Load()
	return s, s&1 == 0
}

// SeqValid reports whether the sequence still equals the snapshot taken by
// ReadSeq, i.e. no mutation started since.
func (t *Tree) SeqValid(seq uint64) bool { return t.seq.Load() == seq }
