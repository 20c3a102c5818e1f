package hyperion

import (
	"bytes"
	"fmt"
	"testing"
	"time"

	"repro/internal/keys"
)

// The tests in this file pin the Range/ParallelEach reentrancy contract: the
// callback may call write methods on the same store. Before the chunked-
// snapshot iteration this self-deadlocked — the shard read lock was held
// while the callback ran, so a Put on the same shard blocked forever. The
// tests run the iteration in a goroutine and fail after a timeout instead of
// hanging the suite if the deadlock ever comes back.

// withDeadlockGuard runs fn and fails the test if it does not finish.
func withDeadlockGuard(t *testing.T, name string, fn func()) {
	t.Helper()
	done := make(chan struct{})
	go func() {
		defer close(done)
		fn()
	}()
	select {
	case <-done:
	case <-time.After(30 * time.Second):
		t.Fatalf("%s: iteration callback deadlocked against its own store", name)
	}
}

func reentrancyStore(t *testing.T, opts Options, n int) *Store {
	t.Helper()
	s := New(opts)
	var buf [keys.Uint64Size]byte
	for i := uint64(0); i < uint64(n); i++ {
		keys.PutUint64(buf[:], i)
		s.Put(buf[:], i)
	}
	return s
}

func TestRangeCallbackMayWriteToStore(t *testing.T) {
	for _, tc := range []struct {
		name string
		opts Options
	}{
		{"one-arena", DefaultOptions()},
		{"arenas-8-preprocessed", Options{Arenas: 8, KeyPreprocessing: true, EmbeddedEjectThreshold: 8 * 1024}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			const n = 5000
			s := reentrancyStore(t, tc.opts, n)
			visited := 0
			withDeadlockGuard(t, "Range", func() {
				var buf [keys.Uint64Size]byte
				s.Range(nil, func(key []byte, value uint64) bool {
					visited++
					// Overwrite an already-visited key (a write lock on the
					// same shard the iteration is positioned in) and delete /
					// re-insert another: all of these deadlocked before.
					s.Put(key, value+1)
					keys.PutUint64(buf[:], value/2)
					s.Delete(buf[:])
					s.Put(buf[:], value)
					return true
				})
			})
			if visited == 0 {
				t.Fatal("Range visited nothing")
			}
			if err := s.CheckInvariants(); err != nil {
				t.Fatal(err)
			}
		})
	}
}

func TestParallelEachCallbackMayWriteToStore(t *testing.T) {
	const n = 5000
	s := reentrancyStore(t, Options{Arenas: 16, BatchWorkers: 4, EmbeddedEjectThreshold: 8 * 1024}, n)
	visited := 0
	withDeadlockGuard(t, "ParallelEach", func() {
		s.ParallelEach(func(key []byte, value uint64) bool {
			visited++
			s.Put(key, value+1)
			return true
		})
	})
	if visited == 0 {
		t.Fatal("ParallelEach visited nothing")
	}
	if err := s.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestRangeCallbackMayAppendToKey pins the aliasing contract of the chunked
// scan: the key slice handed to a callback has its capacity capped, so a
// callback appending to it (e.g. building a successor probe key) must not
// corrupt the keys of later pairs in the same snapshot chunk.
func TestRangeCallbackMayAppendToKey(t *testing.T) {
	const n = 3000
	s := reentrancyStore(t, DefaultOptions(), n)
	var visited uint64
	s.Range(nil, func(key []byte, value uint64) bool {
		if got := keys.DecodeUint64(key); got != visited {
			t.Fatalf("key %d corrupted: decoded %d", visited, got)
		}
		_ = append(key, 0xff) // must reallocate, not scribble over the chunk
		visited++
		return true
	})
	if visited != n {
		t.Fatalf("visited %d keys, want %d", visited, n)
	}
}

// TestRangeResumeAfterCallbackWrite pins that a scan never continues its
// cursor on a tree that moved: at every chunk boundary the callback inserts
// and then deletes most of a wave of neighbours of the key it was just
// handed — keys in the containers the parked cursor points into, behind its
// position, so the scan never reaches them — enough to grow containers
// through their size classes, eject embedded ones and rebuild jump tables.
// A cursor continued across that would decode shifted or recycled bytes; the
// re-seek reports every untouched key once, in order, with its value.
func TestRangeResumeAfterCallbackWrite(t *testing.T) {
	for _, tc := range []struct {
		name string
		opts Options
	}{
		{"one-arena", IntegerOptions()},
		{"arenas-4-preprocessed", Options{Arenas: 4, KeyPreprocessing: true, EmbeddedEjectThreshold: 8 * 1024}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			const n = 1200
			s := New(tc.opts)
			stable := func(i int) []byte { return fmt.Appendf(nil, "s%04d/stable", i) }
			for i := 0; i < n; i++ {
				k := stable(i)
				s.Put(k, fnvValue(k))
			}
			// 'A'+j%24 stays below the 's' of "/stable": neighbours of key i
			// sort before it, behind a cursor parked right after it. Forty
			// S-Nodes under each of 24 T-Nodes grow T-Node jump tables.
			neighbour := func(i, j int) []byte {
				return fmt.Appendf(nil, "s%04d/%c%c%03d", i, 'A'+j%24, '0'+j/24, j%7)
			}
			const perWave = 24 * 40
			next, calls, waves := 0, 0, 0
			withDeadlockGuard(t, "Range", func() {
				s.Range(nil, func(k []byte, v uint64) bool {
					if want := stable(next); next >= n || !bytes.Equal(k, want) || v != fnvValue(k) {
						t.Errorf("call %d: Range reported %q = %d, want the untouched %q = %d", calls, k, v, want, fnvValue(want))
						return false
					}
					next++
					calls++
					if calls%scanChunkSize == 0 {
						i := next - 1
						for j := 0; j < perWave; j++ {
							s.Put(neighbour(i, j), uint64(j))
						}
						for j := 0; j < perWave; j++ {
							if (j+waves)%2 != 0 { // leave a changing half behind: holes, not empty streams
								s.Delete(neighbour(i, j))
							}
						}
						waves++
					}
					return true
				})
			})
			if next != n {
				t.Fatalf("Range reported %d of %d untouched keys", next, n)
			}
			if err := s.CheckInvariants(); err != nil {
				t.Fatal(err)
			}
			st := s.Stats()
			reallocs := int64(0)
			for _, sh := range s.shards {
				reallocs += int64(sh.tree.Allocator().Stats().TotalReallocs)
			}
			if st.Ejections == 0 || st.TNodeJumpTables == 0 || reallocs == 0 {
				t.Fatalf("churn too gentle: %d ejections, %d T-Node jump tables, %d reallocs after %d waves",
					st.Ejections, st.TNodeJumpTables, reallocs, waves)
			}
		})
	}
}

// TestRangeStableUnderUnrelatedWrites verifies the exactly-once guarantee for
// keys untouched during the iteration: overwriting values must not make the
// chunk-resume logic skip or repeat keys.
func TestRangeStableUnderUnrelatedWrites(t *testing.T) {
	const n = 4000
	s := reentrancyStore(t, PreprocessedIntegerOptions(), n)
	seen := make(map[uint64]int)
	var buf [keys.Uint64Size]byte
	s.Range(nil, func(key []byte, value uint64) bool {
		seen[keys.DecodeUint64(key)]++
		// Overwrite a fixed unrelated key on every callback.
		keys.PutUint64(buf[:], 0)
		s.Put(buf[:], value)
		return true
	})
	if len(seen) != n {
		t.Fatalf("visited %d distinct keys, want %d", len(seen), n)
	}
	for k, c := range seen {
		if c != 1 {
			t.Fatalf("key %d visited %d times", k, c)
		}
	}
}
