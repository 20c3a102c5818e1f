package hyperion

// Write-ahead logging and crash-consistent recovery: the durable-apply stage
// between the public write API and the arenas.
//
// A store opened through Open with Options.WALDir set logs every mutation to
// a per-shard append-only segment log (internal/wal) BEFORE applying it to
// the arena trie. The enqueue happens under the shard write lock, so the
// per-key order in the log is exactly the order mutations hit the tree; the
// fsync happens after the lock is released, through the log's group-commit
// committer, so durability never serialises writers on the disk. Under
// SyncAlways every write-path call returns only after its record is fsynced
// — riding one group commit together with every concurrently acknowledged
// write — while SyncInterval and SyncNever trade a bounded window of recent
// writes for hot-path speed.
//
// Recovery (Open) is "load newest snapshot, replay the WAL tail through the
// bulk-ingest fast path": the checkpoint snapshot (checkpoint.hyp in the WAL
// directory) is loaded first, then each shard's surviving segments are
// replayed, one shard per worker: the tail is reduced to each key's net
// effect and fed to the shard's arena as one run (writeRun). A torn
// or corrupt tail of the newest segment is truncated cleanly (a crash
// legitimately leaves one); the same damage anywhere else surfaces
// wal.ErrCorruptWAL — never a panic, never silently invented data.
//
// Checkpoint invariant: Checkpoint rotates every shard's log (so records
// enqueued before it live in segments strictly below a per-shard boundary),
// writes the snapshot atomically, and only then deletes the pre-boundary
// segments, oldest first. Every crash window is covered:
//
//   - before the snapshot rename: the old snapshot plus the full log replay
//     to the current state (rotation only added a segment boundary);
//   - after the rename, before/during segment deletion: the new snapshot
//     plus a *suffix* of the log (oldest-first deletion guarantees the
//     survivors are a suffix). The snapshot is per-key consistent at a point
//     at or after the boundary, and replaying any log suffix that starts at
//     or before a key's snapshot state re-applies that key's final
//     operations — replaying each key's net effect makes the replay converge
//     to the pre-crash state.
//
// Record payloads are sequences of operations:
//
//	kind byte (1=put, 2=putkey, 3=delete, 4=clear)
//	uvarint key length, key bytes (raw, un-preprocessed)   [not for clear]
//	uvarint value                                          [put only]
//
// Keys are logged raw (like snapshots): replay re-applies the configured key
// transformation, so a WAL is portable across stores with the same routing.

import (
	"bytes"
	"cmp"
	"encoding/binary"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"time"

	"repro/internal/wal"
)

// SyncPolicy selects when WAL records are fsynced; see the wal package. The
// zero value is SyncAlways.
type SyncPolicy = wal.SyncPolicy

// Re-exported fsync policies (Options.WALSync).
const (
	SyncAlways   = wal.SyncAlways
	SyncInterval = wal.SyncInterval
	SyncNever    = wal.SyncNever
)

// ErrCorruptWAL is the typed mid-log corruption error; see wal.ErrCorruptWAL.
var ErrCorruptWAL = wal.ErrCorruptWAL

// ErrNoWAL is returned by Checkpoint on a store without a write-ahead log.
var ErrNoWAL = errors.New("hyperion: no write-ahead log configured")

// ErrDegraded is the typed write-rejection error of degraded read-only mode:
// a WAL failure exhausted its retry budget, so writes are refused before
// they touch memory while reads, scans and snapshots keep serving. Errors
// returned by WALError while degraded wrap both ErrDegraded and the root
// cause, so errors.Is can test for either. Rearm leaves the mode.
var ErrDegraded = errors.New("hyperion: WAL degraded, writes rejected (rearm to restore durability)")

// WALFile is the injectable segment-file surface (Options.WALOpenFile); see
// fault.File.
type WALFile = wal.File

// ErrWALArenaMismatch is returned by Open when the WAL directory was written
// by a store with a different arena count. Per-key log order is only defined
// within the shard routing that wrote the log, so the log cannot be replayed
// under a different routing. To change the arena count: open the store with
// the old count, call Checkpoint (which folds the log into the snapshot and
// truncates it), Close, and reopen with the new count.
var ErrWALArenaMismatch = errors.New("hyperion: WAL was written with a different arena count (checkpoint under the old count first)")

// CheckpointFileName is the snapshot file Open loads from (and Checkpoint
// writes into) the WAL directory.
const CheckpointFileName = "checkpoint.hyp"

// WAL op kinds (record payload encoding).
const (
	walOpPut    byte = 1
	walOpPutKey byte = 2
	walOpDelete byte = 3
	walOpClear  byte = 4
)

// walMaxChunk bounds one bulk-run record's payload so huge BulkLoads stream
// through the log in bounded memory.
const walMaxChunk = 1 << 20

// Open creates a store like New and, when Options.WALDir is set, makes it
// durable: it recovers the directory's previous state (newest checkpoint
// snapshot + WAL tail replay) and attaches per-shard write-ahead logs to the
// write path. A store returned by Open with a WAL MUST be Closed — Close
// quiesces writers, flushes and fsyncs the logs and releases the segment
// files; abandoning the store instead loses up to one sync window of writes
// under SyncInterval/SyncNever (never acknowledged SyncAlways writes).
//
// With an empty WALDir, Open is equivalent to New (and Close is a cheap
// no-op), so callers can use Open unconditionally and let configuration
// decide durability.
func Open(opts Options) (*Store, error) {
	opts = opts.normalized()
	if opts.WALDir == "" {
		return New(opts), nil
	}
	if err := os.MkdirAll(opts.WALDir, 0o755); err != nil {
		return nil, fmt.Errorf("hyperion: create WAL dir: %w", err)
	}
	var s *Store
	snap := filepath.Join(opts.WALDir, CheckpointFileName)
	if _, err := os.Stat(snap); err == nil {
		s, err = LoadFile(snap, opts)
		if err != nil {
			return nil, fmt.Errorf("hyperion: load checkpoint: %w", err)
		}
	} else if errors.Is(err, os.ErrNotExist) {
		s = New(opts)
	} else {
		return nil, fmt.Errorf("hyperion: stat checkpoint: %w", err)
	}
	if err := s.replayWAL(); err != nil {
		return nil, err
	}
	for i, sh := range s.shards {
		lg, err := wal.Open(wal.Options{
			Dir:          opts.WALDir,
			Shard:        i,
			Arenas:       len(s.shards),
			Policy:       opts.WALSync,
			Interval:     opts.WALSyncInterval,
			SegmentBytes: opts.WALSegmentBytes,
			Retry: wal.RetryPolicy{
				MaxRetries: opts.WALRetryMax,
				BaseDelay:  opts.WALRetryBackoff,
			},
			OpenFile: opts.WALOpenFile,
		})
		if err != nil {
			for _, prev := range s.shards[:i] {
				prev.wal.Close() //nolint:errsink unwinding a failed open; the open error is what the caller sees
			}
			return nil, err
		}
		sh.wal = lg
	}
	if opts.WALAutoRearm > 0 {
		s.autoRearmStop = make(chan struct{})
		s.autoRearmDone = make(chan struct{})
		go s.autoRearmLoop(opts.WALAutoRearm)
	}
	return s, nil
}

// replayWAL replays the WAL directory's surviving segments into the store
// (which holds the checkpoint snapshot state, or nothing). Shards never share
// keys, so each on-disk shard is one independent task on the worker pool, and
// replay runs in two phases, each parallel across shards: phase 1 decodes a
// shard's tail and reduces it to its net effect (readTail), phase 2 applies
// that effect to the shard's arena (applyTail). Every shard's phase-1 error is
// checked before phase 2 starts, so a corrupt log is detected before the
// store is touched.
func (s *Store) replayWAL() error {
	shardsOnDisk, err := wal.ListShards(s.opts.WALDir)
	if err != nil {
		return err
	}
	tails := make([]shardTail, len(shardsOnDisk))
	errs := make([]error, len(shardsOnDisk))
	s.runIndexed(len(shardsOnDisk), func(i int) {
		errs[i] = s.readTail(shardsOnDisk[i], &tails[i])
	})
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	s.runIndexed(len(shardsOnDisk), func(i int) {
		if shardsOnDisk[i] < len(s.shards) {
			s.applyTail(s.shards[shardsOnDisk[i]], &tails[i])
		}
	})
	return nil
}

// shardTail is one shard's WAL tail: whether a clear wiped the shard, and
// every operation logged after the last clear, in arrival order. Keys live in
// one flat arena instead of a slice each.
type shardTail struct {
	cleared bool
	keybuf  []byte
	recs    []tailRec
}

// tailRec is one logged put, putkey or delete of a shard's tail, 32 bytes.
// word holds eight key bytes inline (keyWord): the first eight on arrival,
// later ones while sortTail breaks ties. Every record appends its key plus
// one byte to keybuf, so off strictly increases with arrival and doubles as
// the last-op-wins tie-break; it stays an int, so a tail of any size
// replays. n cannot overflow: a key lies inside one record payload, which
// replay bounds by wal.MaxRecord.
type tailRec struct {
	word  uint64
	off   int // key bytes are keybuf[off : off+n]
	value uint64
	n     uint32
	kind  byte
}

func (t *shardTail) key(r *tailRec) []byte { return t.keybuf[r.off : r.off+int(r.n)] }

// add records one decoded operation; a clear discards everything before it.
func (t *shardTail) add(kind byte, key []byte, value uint64) {
	if kind == walOpClear {
		t.cleared = true
		t.keybuf, t.recs = t.keybuf[:0], t.recs[:0]
		return
	}
	// Grow by doubling: append's 1.25× steps for large slices would copy a
	// long tail several times over.
	if len(t.recs) == cap(t.recs) {
		t.recs = slices.Grow(t.recs, len(t.recs))
	}
	if need := len(key) + 1; cap(t.keybuf)-len(t.keybuf) < need {
		t.keybuf = slices.Grow(t.keybuf, max(len(t.keybuf), need))
	}
	t.recs = append(t.recs, tailRec{word: keyWord(key), off: len(t.keybuf), value: value, n: uint32(len(key)), kind: kind})
	t.keybuf = append(append(t.keybuf, key...), kind)
}

// keyWord packs b's first eight bytes big-endian, zero-padded, so that
// comparing words as integers agrees with bytes.Compare whenever they differ.
func keyWord(b []byte) uint64 {
	if len(b) >= 8 {
		return binary.BigEndian.Uint64(b)
	}
	var w [8]byte
	copy(w[:], b)
	return binary.BigEndian.Uint64(w[:])
}

// readTail is replay phase 1 for one on-disk shard: decode its surviving
// segments into t and check that they were written under this store's
// routing.
func (s *Store) readTail(shardID int, t *shardTail) error {
	dir := s.opts.WALDir
	if shardID >= len(s.shards) {
		// Segments from a store generation with more arenas. Harmless only
		// if they replay to nothing (a checkpoint under the old count leaves
		// one empty segment per shard); any surviving record cannot be
		// replayed under this routing.
		info, err := wal.Replay(dir, shardID, func([]byte) error { return nil })
		if err != nil {
			return err
		}
		if info.Records > 0 {
			return fmt.Errorf("%w: %d records exist for shard %d, store has %d arenas", ErrWALArenaMismatch, info.Records, shardID, len(s.shards))
		}
		return wal.RemoveShard(dir, shardID)
	}
	info, err := wal.Replay(dir, shardID, func(payload []byte) error {
		return decodeWalOps(payload, t.add)
	})
	if err != nil {
		return err
	}
	// Record-less segments (the empty tail a checkpoint under another arena
	// count leaves) impose no ordering and are ignored; any actual record
	// written under a different routing cannot be replayed.
	if info.Records > 0 && info.Arenas != len(s.shards) {
		return fmt.Errorf("%w: segments record %d arenas, store has %d", ErrWALArenaMismatch, info.Arenas, len(s.shards))
	}
	return nil
}

// applyTail is replay phase 2 for one shard: the clear first (it precedes
// every surviving op), then each key's net effect as one writeRun. Keys
// alias t.keybuf; the tree copies what it keeps. No shard has a log attached
// yet, so nothing here is re-logged.
func (s *Store) applyTail(sh *shard, t *shardTail) {
	if t.cleared {
		s.clearShard(sh)
	}
	sortTail(t.recs, t.keybuf)
	// Reduce each equal-key run to its net effect: the last op wins, except
	// that a putkey keeps the value of a key that has one, so a trailing
	// putkey defers to the latest put or delete before it. A put wins
	// outright; a delete stays, followed by the putkey, which is why the
	// run's deletes go first. Equal keys carry equal words, so differing
	// words skip the key compare.
	n := len(t.recs)
	run := &storedRun{keys: make([][]byte, 0, n), vals: make([]uint64, 0, n), hasv: make([]bool, 0, n)}
	for lo := 0; lo < n; {
		hi := lo + 1
		for hi < n && t.recs[hi].word == t.recs[lo].word && bytes.Equal(t.key(&t.recs[hi]), t.key(&t.recs[lo])) {
			hi++
		}
		last := &t.recs[hi-1]
		if last.kind == walOpPutKey {
			j := hi - 2
			for j >= lo && t.recs[j].kind == walOpPutKey {
				j--
			}
			if j >= lo && t.recs[j].kind == walOpPut {
				last = &t.recs[j]
			} else if j >= lo {
				run.deletes = append(run.deletes, t.key(&t.recs[j]))
			}
		}
		if last.kind == walOpDelete {
			run.deletes = append(run.deletes, t.key(last))
		} else {
			run.keys = append(run.keys, t.key(last))
			run.vals = append(run.vals, last.value)
			run.hasv = append(run.hasv, last.kind == walOpPut)
		}
		lo = hi
	}
	s.storeKeys(run.deletes)
	run.ordered = s.storeKeys(run.keys)
	s.writeRun(sh, run)
}

// sortTail orders a tail's records by key (bytes.Compare order) and equal
// keys by arrival (off): the order applyTail's reduction reads. It is a
// radix sort on 8-byte key words, most significant word first. All records
// are sorted by their inline first word; then every run of records with
// equal words loads the next word of each key from keybuf and is sorted by
// it, and so on while any key of the run goes on. A run's keys are read once
// per word, where a comparison sort would read two keys per comparison that
// the inline word cannot decide. Keys tied on every word up to their ends
// are equal up to trailing zero bytes, so the shorter is the smaller; equal
// lengths mean equal keys.
func sortTail(recs []tailRec, keybuf []byte) {
	tmp := make([]tailRec, len(recs))
	sortByWord(recs, tmp)
	type run struct{ lo, hi, level int } // recs[lo:hi] sorted by key word level
	todo := []run{{0, len(recs), 0}}
	for len(todo) > 0 {
		r := todo[len(todo)-1]
		todo = todo[:len(todo)-1]
		for lo := r.lo; lo < r.hi; {
			hi := lo + 1
			for hi < r.hi && recs[hi].word == recs[lo].word {
				hi++
			}
			if tie := recs[lo:hi]; len(tie) > 1 {
				from, more := 8*(r.level+1), false
				for i := range tie {
					tie[i].word = 0
					if k := keybuf[tie[i].off : tie[i].off+int(tie[i].n)]; len(k) > from {
						tie[i].word, more = keyWord(k[from:]), true
					}
				}
				if more {
					sortByWord(tie, tmp)
					todo = append(todo, run{lo, hi, r.level + 1})
				} else {
					slices.SortFunc(tie, func(a, b tailRec) int {
						return cmp.Or(cmp.Compare(a.n, b.n), cmp.Compare(a.off, b.off))
					})
				}
			}
			lo = hi
		}
	}
}

// sortByWord sorts g by word with tmp (at least as long) as scratch: a
// least-significant-byte radix sort that skips the bytes all of g shares, or
// a comparison sort where g is too short for 256-bucket passes to pay.
func sortByWord(g, tmp []tailRec) {
	if len(g) < 256 {
		slices.SortFunc(g, func(a, b tailRec) int { return cmp.Compare(a.word, b.word) })
		return
	}
	var counts [8][256]int
	for i := range g {
		for d := range counts {
			counts[d][byte(g[i].word>>(8*d))]++
		}
	}
	src, dst := g, tmp[:len(g)]
	for d := range counts {
		c := &counts[d]
		if c[byte(g[0].word>>(8*d))] == len(g) {
			continue
		}
		sum := 0
		for b, n := range c {
			c[b], sum = sum, sum+n
		}
		for i := range src {
			b := byte(src[i].word >> (8 * d))
			dst[c[b]] = src[i]
			c[b]++
		}
		src, dst = dst, src
	}
	if &src[0] != &g[0] {
		copy(g, src)
	}
}

// WALEnabled reports whether the store has a write-ahead log attached.
func (s *Store) WALEnabled() bool { return s.opts.WALDir != "" && s.shards[0].wal != nil }

// WALError returns the store's sticky write-ahead log failure, or nil. The
// write API cannot change its signatures to return errors (the index.KV
// contract predates durability), so the failure is surfaced out of band:
// while it is set the store is in degraded read-only mode — reads, scans and
// snapshots keep serving, writes are rejected before they mutate memory —
// and the returned error wraps both ErrDegraded and the root cause. On a
// closed store the raw cause (usually wal.ErrClosed) is returned without the
// degraded wrapper: a closed store is closed, not degraded. Rearm clears the
// error.
func (s *Store) WALError() error {
	p := s.walErr.Load()
	if p == nil {
		return nil
	}
	if s.closed.Load() {
		return *p
	}
	return fmt.Errorf("%w: %w", ErrDegraded, *p)
}

// Degraded reports degraded read-only mode: a WAL failure is sticky and the
// store is still open, so writes are being rejected. See WALError.
func (s *Store) Degraded() bool {
	return s.walErr.Load() != nil && !s.closed.Load()
}

func (s *Store) noteWALErr(err error) {
	if err == nil {
		return
	}
	s.walErr.CompareAndSwap(nil, &err)
}

// Rearm attempts to leave degraded mode and re-establish durability: every
// shard's log abandons its suspect segment, rewrites the frames that were in
// flight when it failed into a fresh segment and fsyncs them; then the
// sticky error is lifted and the logs are folded into a fresh checkpoint.
// On a healthy store Rearm degenerates to a durability probe (forced group
// commit) plus a checkpoint. A checkpoint failure does not re-enter degraded
// mode by itself — at that point the logs are already healthy and cover
// everything — but it is surfaced so the caller can retry.
//
// Rearm is safe to call concurrently with reads and writes; Rearm, Checkpoint
// and Close serialise on one mutex. On a closed store it returns wal.ErrClosed
// and leaves WALError alone; a Rearm already running when Close is called
// finishes against open logs first.
func (s *Store) Rearm() error {
	if !s.WALEnabled() {
		return ErrNoWAL
	}
	s.rearmMu.Lock()
	defer s.rearmMu.Unlock()
	if s.closed.Load() {
		return wal.ErrClosed
	}
	for _, sh := range s.shards {
		if err := sh.wal.Rearm(); err != nil {
			return err
		}
	}
	// Every shard's log accepts and persists records again: lift the sticky
	// error so writers resume.
	s.walErr.Store(nil)
	s.rearms.Add(1)
	_, err := s.checkpointLocked()
	return err
}

// autoRearmLoop probes a degraded store at the configured period until Close
// stops and joins it (Options.WALAutoRearm). A failed probe is deliberately
// dropped: the next tick retries, and the sticky WALError already tells
// operators what is wrong.
func (s *Store) autoRearmLoop(period time.Duration) {
	defer close(s.autoRearmDone)
	t := time.NewTicker(period)
	defer t.Stop()
	for {
		select {
		case <-s.autoRearmStop:
			return
		case <-t.C:
			if s.Degraded() {
				_ = s.Rearm()
			}
		}
	}
}

// WALStats is the durability subsystem's health snapshot, surfaced by the
// server HEALTH command and the CLI health subcommand.
type WALStats struct {
	Enabled  bool   // a write-ahead log is attached
	Degraded bool   // writes currently rejected (see ErrDegraded)
	Retries  uint64 // transient write/fsync failures retried by the committers
	Rearms   uint64 // successful Rearm recoveries
}

// WALStats returns the durability health snapshot. Safe for concurrent use.
func (s *Store) WALStats() WALStats {
	st := WALStats{Enabled: s.WALEnabled(), Degraded: s.Degraded(), Rearms: s.rearms.Load()}
	if st.Enabled {
		for _, sh := range s.shards {
			st.Retries += sh.wal.Stats().Retries
		}
	}
	return st
}

// Close makes the store's durable state final and releases its files: a
// Rearm or Checkpoint in flight finishes first (later ones get
// wal.ErrClosed), the auto-rearm prober is stopped and joined, in-flight
// writers are quiesced (each shard's write lock is taken once), and every
// per-shard log is flushed, fsynced and closed. Close returns the WAL failure
// the store already carried when it was closed (degraded mode's root cause),
// else the first error of its own flush/close — a nil Close after SyncAlways
// writes means every acknowledged write is on disk. Close is idempotent:
// repeat calls return the same result. Writes issued after Close are rejected
// before mutating memory (the same fail-fast path as degraded mode) and leave
// the sticky ErrClosed in WALError, not in Close's result. On a store without
// a WAL, Close only marks the store closed.
func (s *Store) Close() error {
	s.closeOnce.Do(func() {
		s.closed.Store(true)
		// Barrier: Rearm and Checkpoint re-check closed under rearmMu, so
		// none touches a log past this point.
		s.rearmMu.Lock()
		//lint:ignore SA2001 empty critical section is the point: a barrier
		s.rearmMu.Unlock()
		if s.autoRearmStop != nil {
			close(s.autoRearmStop)
			<-s.autoRearmDone
		}
		if prior := s.walErr.Load(); prior != nil {
			s.closeErr = *prior
		}
		for _, sh := range s.shards {
			sh.mu.Lock() // quiesce: no writer past this point enqueued before us
			//lint:ignore SA2001 empty critical section is the point: a barrier
			sh.mu.Unlock()
		}
		for _, sh := range s.shards {
			if sh.wal == nil {
				continue
			}
			if err := sh.wal.Close(); err != nil && s.closeErr == nil {
				s.closeErr = err
			}
		}
		s.noteWALErr(s.closeErr)
	})
	return s.closeErr
}

// Checkpoint folds the write-ahead log into a fresh snapshot: it rotates
// every shard's log, writes the snapshot atomically to checkpoint.hyp in the
// WAL directory, and then deletes the pre-rotation segments (oldest first —
// see the crash-window analysis at the top of this file). It returns the
// number of keys in the snapshot. Checkpoint is safe to run while other
// goroutines read and write the store; concurrent writes land in the
// post-rotation segments and replay idempotently over the snapshot. It
// serialises with Rearm and Close; on a closed store it returns
// wal.ErrClosed and leaves WALError alone.
func (s *Store) Checkpoint() (int, error) {
	if !s.WALEnabled() {
		return 0, ErrNoWAL
	}
	s.rearmMu.Lock()
	defer s.rearmMu.Unlock()
	return s.checkpointLocked()
}

// checkpointLocked is Checkpoint under rearmMu (Rearm ends with one).
func (s *Store) checkpointLocked() (int, error) {
	if s.closed.Load() {
		return 0, wal.ErrClosed
	}
	boundaries := make([]uint64, len(s.shards))
	for i, sh := range s.shards {
		b, err := sh.wal.Rotate()
		if err != nil {
			s.noteWALErr(err)
			return 0, err
		}
		boundaries[i] = b
	}
	n, err := s.SaveFile(filepath.Join(s.opts.WALDir, CheckpointFileName))
	if err != nil {
		// The snapshot failed but no segment was deleted: the log still
		// covers everything and the store remains fully recoverable.
		return 0, err
	}
	for i, sh := range s.shards {
		if err := sh.wal.TruncateBefore(boundaries[i]); err != nil {
			// Leftover pre-boundary segments are a space leak, not a
			// correctness problem: replaying extra history under last-op-wins
			// converges to the same state. Surface the error anyway.
			return n, err
		}
	}
	return n, nil
}

// appendWalOp encodes one operation into a record payload; decodeWalOps is
// its inverse (the format is at the top of this file).
func appendWalOp(dst []byte, kind byte, key []byte, value uint64) []byte {
	dst = append(dst, kind)
	if kind == walOpClear {
		return dst
	}
	dst = binary.AppendUvarint(dst, uint64(len(key)))
	dst = append(dst, key...)
	if kind == walOpPut {
		dst = binary.AppendUvarint(dst, value)
	}
	return dst
}

// decodeWalOps decodes one record payload, calling fn for every operation in
// order; key aliases payload. Anything that is not a sequence of well-formed
// operations — unknown kind, truncated or oversized key length, missing
// value — is ErrCorruptWAL: the bytes come from disk, so no length is trusted
// before it is checked against what is left of the payload.
func decodeWalOps(payload []byte, fn func(kind byte, key []byte, value uint64)) error {
	for len(payload) > 0 {
		kind := payload[0]
		payload = payload[1:]
		if kind == walOpClear {
			fn(kind, nil, 0)
			continue
		}
		if kind != walOpPut && kind != walOpPutKey && kind != walOpDelete {
			return fmt.Errorf("%w: unknown op kind %d", ErrCorruptWAL, kind)
		}
		klen, n := binary.Uvarint(payload)
		if n <= 0 || uint64(len(payload)-n) < klen {
			return fmt.Errorf("%w: bad key length in record", ErrCorruptWAL)
		}
		key := payload[n : n+int(klen)]
		payload = payload[n+int(klen):]
		var value uint64
		if kind == walOpPut {
			if value, n = binary.Uvarint(payload); n <= 0 {
				return fmt.Errorf("%w: bad value in record", ErrCorruptWAL)
			}
			payload = payload[n:]
		}
		fn(kind, key, value)
	}
	return nil
}

// The walEnqueue* functions are the log bodies of shardWrite: each runs
// under the shard write lock (that is what serialises the log against the
// tree) and returns the last enqueued record's sequence — for the durability
// wait after the lock is dropped; 0 = nothing to wait for — plus how many of
// the write's operations the log now holds. A refused enqueue makes the error
// sticky and covers nothing.

// walEnqueueOp logs one single-key operation (or a clear): covered is 1 or 0.
func (s *Store) walEnqueueOp(sh *shard, kind byte, key []byte, value uint64) (seq uint64, covered int) {
	var scratch [opScratchSize + 2*binary.MaxVarintLen64 + 1]byte
	seq, err := sh.wal.Enqueue(appendWalOp(scratch[:0], kind, key, value))
	if err != nil {
		s.noteWALErr(err)
		return 0, 0
	}
	return seq, 1
}

// walEnqueueBatch logs the write ops of one shard group (opIdx nil = all of
// ops; reads are skipped) as a single record: covered is the whole group or
// 0. A group with nothing to log is covered without a record.
func (s *Store) walEnqueueBatch(sh *shard, ops []Op, opIdx []int32) (seq uint64, covered int) {
	n := groupLen(len(ops), opIdx)
	payload := make([]byte, 0, n*16)
	for k := 0; k < n; k++ {
		op := &ops[groupAt(opIdx, k)]
		if kind := op.Kind.walKind(); kind != 0 {
			payload = appendWalOp(payload, kind, op.Key, op.Value)
		}
	}
	if len(payload) == 0 {
		return 0, n
	}
	seq, err := sh.wal.Enqueue(payload)
	if err != nil {
		s.noteWALErr(err)
		return 0, 0
	}
	return seq, n
}

// walEnqueuePairs logs a bulk run's pairs, chunked so one record payload
// stays under walMaxChunk: covered is any prefix. The log can fail mid-run
// with earlier chunks already enqueued, so exactly the covered prefix must
// reach the tree — applying more (or less) would diverge memory from what the
// log replays after a rearm or restart.
func (s *Store) walEnqueuePairs(sh *shard, pairs []Pair) (last uint64, covered int) {
	payload := make([]byte, 0, min(len(pairs)*16, walMaxChunk+opScratchSize))
	for i := range pairs {
		payload = appendWalOp(payload, walOpPut, pairs[i].Key, pairs[i].Value)
		if len(payload) >= walMaxChunk || i == len(pairs)-1 {
			seq, err := sh.wal.Enqueue(payload)
			if err != nil {
				s.noteWALErr(err)
				return last, covered
			}
			last, covered = seq, i+1
			payload = payload[:0]
		}
	}
	return last, covered
}
