package hyperion

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"strings"
	"testing"
	"time"

	"repro/internal/wal"
)

func walOptions(dir string, arenas int, policy SyncPolicy) Options {
	o := DefaultOptions()
	o.Arenas = arenas
	o.WALDir = dir
	o.WALSync = policy
	return o
}

// checkState asserts the store's content equals want (nil values = PutKey).
func checkState(t *testing.T, s *Store, want map[string]uint64, keyOnly map[string]bool) {
	t.Helper()
	if got := s.Len(); got != len(want)+len(keyOnly) {
		t.Fatalf("Len = %d, want %d", got, len(want)+len(keyOnly))
	}
	for k, v := range want {
		got, ok := s.Get([]byte(k))
		if !ok || got != v {
			t.Fatalf("Get(%q) = %d,%v want %d,true", k, got, ok, v)
		}
	}
	for k := range keyOnly {
		if !s.Has([]byte(k)) {
			t.Fatalf("Has(%q) = false, want true", k)
		}
	}
	if err := s.CheckInvariants(); err != nil {
		t.Fatalf("CheckInvariants: %v", err)
	}
}

// spreadKey prefixes name with a leading byte that walks the whole byte
// range as i grows, so a test's keys land in every arena rather than the one
// or two their ASCII letters route to.
func spreadKey(i int, name string) string { return string([]byte{byte(i * 97)}) + name }

func TestWALDurabilityRoundTrip(t *testing.T) {
	for _, arenas := range []int{1, 4} {
		for _, preprocess := range []bool{false, true} {
			t.Run(fmt.Sprintf("arenas=%d,preprocess=%v", arenas, preprocess), func(t *testing.T) {
				dir := t.TempDir()
				opts := walOptions(dir, arenas, SyncAlways)
				opts.KeyPreprocessing = preprocess
				s, err := Open(opts)
				if err != nil {
					t.Fatalf("Open: %v", err)
				}

				want := map[string]uint64{}
				keyOnly := map[string]bool{}
				// Every write path: Put, PutKey, Delete, ApplyBatch, BulkLoad.
				for i := 0; i < 200; i++ {
					k := spreadKey(i, fmt.Sprintf("putkey-%04d", i))
					s.Put([]byte(k), uint64(i))
					want[k] = uint64(i)
				}
				bare, doomed := spreadKey(4, "bare-key"), spreadKey(2, "doomed")
				s.PutKey([]byte(bare))
				keyOnly[bare] = true
				s.Put([]byte(doomed), 7)
				s.Delete([]byte(doomed))
				var ops []Op
				for i := 0; i < 50; i++ {
					k := spreadKey(i, fmt.Sprintf("batch-%04d", i))
					ops = append(ops, Op{Kind: OpPut, Key: []byte(k), Value: uint64(1000 + i)})
					want[k] = uint64(1000 + i)
				}
				ops = append(ops, Op{Kind: OpGet, Key: []byte(spreadKey(0, "putkey-0000"))}) // reads are not logged
				ops = append(ops, Op{Kind: OpDelete, Key: []byte(spreadKey(1, "putkey-0001"))})
				delete(want, spreadKey(1, "putkey-0001"))
				s.ApplyBatch(ops)
				var pairs []Pair
				for i := 0; i < 300; i++ {
					k := spreadKey(i, fmt.Sprintf("vulk-%06d", i))
					pairs = append(pairs, Pair{Key: []byte(k), Value: uint64(i * 3)})
					want[k] = uint64(i * 3)
				}
				slices.SortFunc(pairs, func(a, b Pair) int { return bytes.Compare(a.Key, b.Key) })
				s.BulkLoad(pairs)
				// Overwrite through a second path: last op wins after replay.
				s.Put([]byte(spreadKey(0, "vulk-000000")), 999)
				want[spreadKey(0, "vulk-000000")] = 999

				if err := s.Close(); err != nil {
					t.Fatalf("Close: %v", err)
				}
				r, err := Open(opts)
				if err != nil {
					t.Fatalf("reopen: %v", err)
				}
				defer r.Close()
				checkState(t, r, want, keyOnly)
			})
		}
	}
}

func TestWALClearSurvivesRestart(t *testing.T) {
	dir := t.TempDir()
	opts := walOptions(dir, 4, SyncAlways)
	s, err := Open(opts)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	for i := 0; i < 100; i++ {
		s.Put([]byte(spreadKey(i, fmt.Sprintf("pre-%04d", i))), uint64(i))
	}
	s.Clear()
	s.Put([]byte(spreadKey(2, "after")), 1)
	if err := s.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	r, err := Open(opts)
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer r.Close()
	checkState(t, r, map[string]uint64{spreadKey(2, "after"): 1}, nil)
}

func TestWALClearAfterCheckpoint(t *testing.T) {
	// A clear logged after a checkpoint must wipe the snapshot content too.
	dir := t.TempDir()
	opts := walOptions(dir, 2, SyncAlways)
	s, err := Open(opts)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	for i := 0; i < 100; i++ {
		s.Put([]byte(spreadKey(i, fmt.Sprintf("snap-%04d", i))), uint64(i))
	}
	if _, err := s.Checkpoint(); err != nil {
		t.Fatalf("Checkpoint: %v", err)
	}
	s.Clear()
	s.Put([]byte(spreadKey(2, "post-clear")), 5)
	if err := s.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	r, err := Open(opts)
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer r.Close()
	checkState(t, r, map[string]uint64{spreadKey(2, "post-clear"): 5}, nil)
}

func TestWALCheckpointTruncatesSegments(t *testing.T) {
	dir := t.TempDir()
	opts := walOptions(dir, 2, SyncAlways)
	opts.WALSegmentBytes = 4 << 10
	s, err := Open(opts)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	want := map[string]uint64{}
	for i := 0; i < 2000; i++ {
		k := spreadKey(i, fmt.Sprintf("key-%06d", i))
		s.Put([]byte(k), uint64(i))
		want[k] = uint64(i)
	}
	preFiles := countSegments(t, dir)
	n, err := s.Checkpoint()
	if err != nil {
		t.Fatalf("Checkpoint: %v", err)
	}
	if n != len(want) {
		t.Fatalf("Checkpoint keys = %d, want %d", n, len(want))
	}
	postFiles := countSegments(t, dir)
	if postFiles >= preFiles {
		t.Fatalf("checkpoint did not shrink the log: %d -> %d segments", preFiles, postFiles)
	}
	// Post-checkpoint writes land in the new tail.
	s.Put([]byte(spreadKey(2, "tail")), 42)
	want[spreadKey(2, "tail")] = 42
	if err := s.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	r, err := Open(opts)
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer r.Close()
	checkState(t, r, want, nil)
}

func countSegments(t *testing.T, dir string) int {
	t.Helper()
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	n := 0
	for _, e := range ents {
		if strings.HasSuffix(e.Name(), ".seg") {
			n++
		}
	}
	return n
}

func TestWALSyncIntervalAndNeverCloseFlushes(t *testing.T) {
	for _, policy := range []SyncPolicy{SyncInterval, SyncNever} {
		t.Run(policy.String(), func(t *testing.T) {
			dir := t.TempDir()
			opts := walOptions(dir, 2, policy)
			opts.WALSyncInterval = 5 * time.Millisecond
			s, err := Open(opts)
			if err != nil {
				t.Fatalf("Open: %v", err)
			}
			want := map[string]uint64{}
			for i := 0; i < 500; i++ {
				k := fmt.Sprintf("k-%05d", i)
				s.Put([]byte(k), uint64(i))
				want[k] = uint64(i)
			}
			if err := s.Close(); err != nil {
				t.Fatalf("Close: %v", err)
			}
			r, err := Open(opts)
			if err != nil {
				t.Fatalf("reopen: %v", err)
			}
			defer r.Close()
			checkState(t, r, want, nil)
		})
	}
}

func TestWALArenaMismatchRejectedAndCheckpointMigrates(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(walOptions(dir, 4, SyncAlways))
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	want := map[string]uint64{}
	for i := 0; i < 200; i++ {
		k := spreadKey(i, fmt.Sprintf("key-%04d", i))
		s.Put([]byte(k), uint64(i))
		want[k] = uint64(i)
	}
	if err := s.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	// Opening with a different arena count must be rejected, not mis-replayed.
	if _, err := Open(walOptions(dir, 8, SyncAlways)); !errors.Is(err, ErrWALArenaMismatch) {
		t.Fatalf("Open with 8 arenas = %v, want ErrWALArenaMismatch", err)
	}
	// The documented migration: reopen with the old count, checkpoint (folds
	// the log into the snapshot and truncates it), close, reopen with the new.
	s, err = Open(walOptions(dir, 4, SyncAlways))
	if err != nil {
		t.Fatalf("reopen old count: %v", err)
	}
	if _, err := s.Checkpoint(); err != nil {
		t.Fatalf("Checkpoint: %v", err)
	}
	if err := s.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	// Note the snapshot itself is arena-agnostic (raw keys in global order).
	r, err := Open(walOptions(dir, 8, SyncAlways))
	if err != nil {
		t.Fatalf("Open with 8 arenas after checkpoint: %v", err)
	}
	checkState(t, r, want, nil)
	// Shrinking works the same way; the empty segments shards 4..7 left
	// behind are cleaned up, not treated as a mismatch.
	r.Put([]byte(spreadKey(2, "wide")), 8)
	want[spreadKey(2, "wide")] = 8
	if _, err := r.Checkpoint(); err != nil {
		t.Fatalf("Checkpoint under 8 arenas: %v", err)
	}
	if err := r.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	n, err := Open(walOptions(dir, 4, SyncAlways))
	if err != nil {
		t.Fatalf("Open with 4 arenas after checkpoint: %v", err)
	}
	defer n.Close()
	checkState(t, n, want, nil)
}

func TestWALCloseSemantics(t *testing.T) {
	dir := t.TempDir()
	opts := walOptions(dir, 2, SyncAlways)
	s, err := Open(opts)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	s.Put([]byte("a"), 1)
	if err := s.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	if err := s.Close(); err != nil { // idempotent
		t.Fatalf("second Close: %v", err)
	}
	// Writes after Close mutate memory only and poison WALError.
	s.Put([]byte("b"), 2)
	if err := s.WALError(); !errors.Is(err, wal.ErrClosed) {
		t.Fatalf("WALError after post-Close write = %v, want wal.ErrClosed", err)
	}
	// A store without a WAL: Close is a cheap no-op.
	m, err := Open(DefaultOptions())
	if err != nil {
		t.Fatalf("Open without WAL: %v", err)
	}
	if m.WALEnabled() {
		t.Fatal("WALEnabled on memory-only store")
	}
	if err := m.Close(); err != nil {
		t.Fatalf("Close memory-only store: %v", err)
	}
	if _, err := m.Checkpoint(); !errors.Is(err, ErrNoWAL) {
		t.Fatalf("Checkpoint without WAL = %v, want ErrNoWAL", err)
	}
}

// TestWALCorruptTailTruncates mirrors the snapshot corruption tests at the
// store level: damage to the newest segment recovers cleanly with the intact
// prefix, damage to an older segment is a typed error.
func TestWALCorruptTailTruncates(t *testing.T) {
	dir := t.TempDir()
	opts := walOptions(dir, 1, SyncAlways)
	s, err := Open(opts)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	for i := 0; i < 100; i++ {
		s.Put([]byte(fmt.Sprintf("key-%04d", i)), uint64(i))
	}
	if err := s.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	// Flip a byte near the end of the newest segment.
	segs := segmentPaths(t, dir)
	path := segs[len(segs)-1]
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	b[len(b)-5] ^= 0xFF
	if err := os.WriteFile(path, b, 0o644); err != nil {
		t.Fatal(err)
	}
	r, err := Open(opts)
	if err != nil {
		t.Fatalf("Open with corrupt tail = %v, want clean truncation", err)
	}
	defer r.Close()
	// The prefix before the flipped record must be intact; nothing invented.
	if got := r.Len(); got < 90 || got > 100 {
		t.Fatalf("Len after tail truncation = %d, want 90..100", got)
	}
	for i := 0; i < r.Len(); i++ {
		k := fmt.Sprintf("key-%04d", i)
		if v, ok := r.Get([]byte(k)); !ok || v != uint64(i) {
			t.Fatalf("Get(%q) = %d,%v after truncation", k, v, ok)
		}
	}
	if err := r.CheckInvariants(); err != nil {
		t.Fatalf("CheckInvariants: %v", err)
	}
}

func TestWALCorruptMiddleSegmentIsTypedError(t *testing.T) {
	dir := t.TempDir()
	opts := walOptions(dir, 1, SyncAlways)
	opts.WALSegmentBytes = 2 << 10
	s, err := Open(opts)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	for i := 0; i < 500; i++ {
		s.Put([]byte(fmt.Sprintf("key-%04d", i)), uint64(i))
	}
	if err := s.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	segs := segmentPaths(t, dir)
	if len(segs) < 3 {
		t.Fatalf("need >=3 segments, got %d", len(segs))
	}
	b, err := os.ReadFile(segs[0])
	if err != nil {
		t.Fatal(err)
	}
	b[len(b)/2] ^= 0xFF
	if err := os.WriteFile(segs[0], b, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(opts); !errors.Is(err, ErrCorruptWAL) {
		t.Fatalf("Open with mid-log corruption = %v, want ErrCorruptWAL", err)
	}
}

func segmentPaths(t *testing.T, dir string) []string {
	t.Helper()
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var out []string
	for _, e := range ents {
		if strings.HasSuffix(e.Name(), ".seg") {
			out = append(out, filepath.Join(dir, e.Name()))
		}
	}
	return out
}

// FuzzWALOps fuzzes the WAL op codec (appendWalOp / decodeWalOps), the
// decoder of record payloads read back from disk. Two properties: the input
// used as a key round-trips encode→decode under every op kind, and the input
// used as a payload decodes to success or ErrCorruptWAL — never a panic, never
// a slice bound taken from an unchecked varint — with whatever decoded
// surviving a re-encode unchanged. The seed corpus is committed under
// testdata/fuzz/FuzzWALOps.
func FuzzWALOps(f *testing.F) {
	f.Add([]byte("key"))
	f.Add(appendWalOp(appendWalOp(nil, walOpPut, []byte("k"), 1<<63), walOpClear, nil, 0))
	f.Fuzz(func(t *testing.T, data []byte) {
		type op struct {
			kind  byte
			key   string
			value uint64
		}
		decode := func(payload []byte) (ops []op, err error) {
			err = decodeWalOps(payload, func(kind byte, key []byte, value uint64) {
				ops = append(ops, op{kind, string(key), value})
			})
			return ops, err
		}

		value := uint64(len(data)) * 0x9E3779B97F4A7C15
		for _, kind := range []byte{walOpPut, walOpPutKey, walOpDelete, walOpClear} {
			want := op{kind: kind, key: string(data)}
			switch kind {
			case walOpPut:
				want.value = value
			case walOpClear:
				want.key = ""
			}
			ops, err := decode(appendWalOp(nil, kind, data, value))
			if err != nil || len(ops) != 1 || ops[0] != want {
				t.Fatalf("kind %d: decode(encode) = %+v, %v; want %+v", kind, ops, err, want)
			}
		}

		ops, err := decode(data)
		if err != nil {
			if !errors.Is(err, ErrCorruptWAL) {
				t.Fatalf("decode error %v is not ErrCorruptWAL", err)
			}
			return
		}
		var enc []byte
		for _, o := range ops {
			enc = appendWalOp(enc, o.kind, []byte(o.key), o.value)
		}
		if len(enc) > len(data) {
			t.Fatalf("re-encoding grew the payload: %d > %d bytes", len(enc), len(data))
		}
		if again, err := decode(enc); err != nil || !reflect.DeepEqual(again, ops) {
			t.Fatalf("decode(encode(ops)) = %+v, %v; want %+v", again, err, ops)
		}
	})
}
