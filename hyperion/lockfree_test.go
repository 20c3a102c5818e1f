package hyperion

// Tests for the epoch-based lock-free read path (lockfree.go). The stress
// differential is the load-bearing one: N unsynchronized readers doing
// Get/Has/cursor scans race M writers doing Put/Delete/BulkLoad, and every
// read must observe an old or a new value — never garbage. On race-detector
// builds lockFreeBuild is false and the same tests exercise the locked half
// of shardRead (and the always-on write-side bracket), which keeps the suite
// meaningful under `go test -race`.

import (
	"bytes"
	"encoding/binary"
	"math/rand"
	"sort"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// stressKey derives a unique 8-byte key whose leading byte is uniformly
// distributed (odd-multiplier bijection mod 2^64), spreading keys over all
// arenas.
func stressKey(i uint64) []byte {
	k := make([]byte, 8)
	binary.BigEndian.PutUint64(k, i*0x9E3779B97F4A7C15)
	return k
}

// churnValue is the fixed value a churn key carries whenever it is present.
func churnValue(k []byte) uint64 {
	return binary.BigEndian.Uint64(k)*0x2545F4914F6CDD1D + 1
}

const (
	stableLo = 1    // stable-key values stay within [stableLo, stableHi]
	stableHi = 1000 //
)

// TestLockFreeStressDifferential races pinned readers (Get, Has, Range,
// ScanPrefix, CountPrefix) against writers (Put, Delete, BulkLoad) and
// asserts that every observed read is explainable:
//
//   - a stable key is always present with a value in [stableLo, stableHi]
//     (writers only overwrite within that range);
//   - a churn key is either absent or carries exactly churnValue(key)
//     (writers only ever store that one value);
//   - scans emit well-formed 8-byte keys in strictly increasing order.
//
// After quiescence the final store state must match the writers' records
// exactly, and CheckInvariants must hold.
func TestLockFreeStressDifferential(t *testing.T) {
	opts := PreprocessedIntegerOptions()
	opts.Arenas = 8
	s := New(opts)

	const (
		numStable  = 256
		numChurn   = 512
		numWriters = 2
		numReaders = 3
	)

	stableKeys := make([][]byte, numStable)
	stableSet := make(map[string]bool, numStable)
	for i := range stableKeys {
		stableKeys[i] = stressKey(uint64(i))
		stableSet[string(stableKeys[i])] = true
		s.Put(stableKeys[i], stableLo)
	}
	churnKeys := make([][]byte, numChurn)
	churnExpect := make(map[string]uint64, numChurn)
	for i := range churnKeys {
		churnKeys[i] = stressKey(uint64(numStable + i))
		churnExpect[string(churnKeys[i])] = churnValue(churnKeys[i])
	}

	var stop atomic.Bool
	var readErr atomic.Pointer[string]
	fail := func(msg string) {
		readErr.CompareAndSwap(nil, &msg)
		stop.Store(true)
	}

	var wg sync.WaitGroup
	// Writer state, read only after wg.Wait (happens-before via WaitGroup).
	lastStable := make([]map[string]uint64, numWriters)
	finalChurn := make([]map[string]bool, numWriters)

	for w := 0; w < numWriters; w++ {
		w := w
		lastStable[w] = make(map[string]uint64)
		finalChurn[w] = make(map[string]bool)
		// Disjoint ownership: writer w mutates only keys with index ≡ w.
		var myStable, myChurn [][]byte
		for i, k := range stableKeys {
			if i%numWriters == w {
				myStable = append(myStable, k)
			}
		}
		for i, k := range churnKeys {
			if i%numWriters == w {
				myChurn = append(myChurn, k)
			}
		}
		// BulkLoad requires ascending raw-key order.
		sortedChurn := append([][]byte(nil), myChurn...)
		sort.Slice(sortedChurn, func(a, b int) bool {
			return bytes.Compare(sortedChurn[a], sortedChurn[b]) < 0
		})
		wg.Add(1)
		go func() {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(w) + 1))
			for round := 0; !stop.Load(); round++ {
				for _, k := range myStable {
					v := stableLo + uint64(rng.Intn(stableHi-stableLo+1))
					s.Put(k, v)
					lastStable[w][string(k)] = v
				}
				switch round % 3 {
				case 0: // insert half the churn keys one by one
					for i, k := range myChurn {
						if i%2 == round/3%2 {
							s.Put(k, churnValue(k))
							finalChurn[w][string(k)] = true
						}
					}
				case 1: // delete a rotating half
					for i, k := range myChurn {
						if i%2 == round/3%2 {
							s.Delete(k)
							finalChurn[w][string(k)] = false
						}
					}
				case 2: // bulk-reload the whole partition
					pairs := make([]Pair, len(sortedChurn))
					for i, k := range sortedChurn {
						pairs[i] = Pair{Key: k, Value: churnValue(k)}
					}
					s.BulkLoad(pairs)
					for _, k := range myChurn {
						finalChurn[w][string(k)] = true
					}
				}
			}
		}()
	}

	checkPair := func(key []byte, v uint64, where string) bool {
		ks := string(key)
		if stableSet[ks] {
			if v < stableLo || v > stableHi {
				fail(where + ": stable key with out-of-range value")
				return false
			}
			return true
		}
		if want, ok := churnExpect[ks]; ok {
			if v != want {
				fail(where + ": churn key with garbage value")
				return false
			}
			return true
		}
		fail(where + ": emitted key that was never written")
		return false
	}

	for r := 0; r < numReaders; r++ {
		r := r
		wg.Add(1)
		go func() {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(r) + 100))
			prev := make([]byte, 0, 16)
			for it := 0; !stop.Load(); it++ {
				k := stableKeys[rng.Intn(numStable)]
				if v, ok := s.Get(k); !ok {
					fail("Get: stable key reported absent")
					return
				} else if v < stableLo || v > stableHi {
					fail("Get: stable key out-of-range value")
					return
				}
				if !s.Has(k) {
					fail("Has: stable key reported absent")
					return
				}
				ck := churnKeys[rng.Intn(numChurn)]
				if v, ok := s.Get(ck); ok && v != churnValue(ck) {
					fail("Get: churn key garbage value")
					return
				}
				switch it % 8 {
				case 3: // full-order scan
					prev = prev[:0]
					n := 0
					s.Range(nil, func(key []byte, v uint64) bool {
						if len(key) != 8 {
							fail("Range: malformed key length")
							return false
						}
						if len(prev) > 0 && bytes.Compare(prev, key) >= 0 {
							fail("Range: emission order not strictly increasing")
							return false
						}
						prev = append(prev[:0], key...)
						n++
						return checkPair(key, v, "Range")
					})
					if n < numStable && !stop.Load() {
						fail("Range: saw fewer pairs than the always-present stable set")
						return
					}
				case 5: // prefix scan over one leading byte
					p := []byte{stableKeys[rng.Intn(numStable)][0]}
					s.ScanPrefix(p, func(key []byte, v uint64) bool {
						if len(key) != 8 || key[0] != p[0] {
							fail("ScanPrefix: key outside prefix")
							return false
						}
						return checkPair(key, v, "ScanPrefix")
					})
				case 7:
					k0 := stableKeys[rng.Intn(numStable)]
					if n := s.CountPrefix(k0[:1]); n < 1 {
						fail("CountPrefix: always-present stable key not counted")
						return
					}
				}
			}
		}()
	}

	time.Sleep(500 * time.Millisecond)
	stop.Store(true)
	wg.Wait()
	if msg := readErr.Load(); msg != nil {
		t.Fatalf("reader observed inconsistency: %s", *msg)
	}
	if err := s.CheckInvariants(); err != nil {
		t.Fatalf("CheckInvariants after quiescence: %v", err)
	}

	// Final-state differential against the writers' records.
	want := make(map[string]uint64, numStable+numChurn)
	for w := 0; w < numWriters; w++ {
		for k, v := range lastStable[w] {
			want[k] = v
		}
		for k, present := range finalChurn[w] {
			if present {
				want[k] = churnExpect[k]
			}
		}
	}
	for _, k := range stableKeys {
		if _, ok := want[string(k)]; !ok {
			want[string(k)] = stableLo // preloaded, never overwritten
		}
	}
	if got := s.Len(); got != len(want) {
		t.Fatalf("final Len = %d, want %d", got, len(want))
	}
	got := make(map[string]uint64, len(want))
	s.Each(func(key []byte, v uint64) bool {
		got[string(key)] = v
		return true
	})
	if len(got) != len(want) {
		t.Fatalf("final Each emitted %d pairs, want %d", len(got), len(want))
	}
	for k, v := range want {
		if gv, ok := got[k]; !ok || gv != v {
			t.Fatalf("final state mismatch for key %x: got (%d,%v), want %d",
				k, gv, ok, v)
		}
	}
}

// TestRetiredFreesHeldWhilePinned is the retire-counter hook test of the
// epoch contract: memory freed while a reader guard is pinned must stay on
// the retire queue — ReclaimedFrees must not move — until the guard unpins
// and the epoch advances past the retirement tags.
func TestRetiredFreesHeldWhilePinned(t *testing.T) {
	s := New(IntegerOptions())
	const n = 4096
	for i := uint64(0); i < n; i++ {
		s.PutUint64(i, i)
	}
	alloc := s.shards[0].tree.Allocator()

	// Deleting every key empties and frees the containers themselves; with
	// the guard pinned those frees must queue, not recycle. ReclaimedFrees
	// is a lifetime counter (the preload already drained some realloc
	// frees), so assert on the delta.
	base := alloc.ReclaimedFrees()
	g := s.epochs.Pin()
	for i := uint64(0); i < n; i++ {
		s.DeleteUint64(i)
	}
	if alloc.RetiredCount() == 0 {
		t.Fatal("emptying the store queued no deferred frees")
	}
	if got := alloc.ReclaimedFrees() - base; got != 0 {
		t.Fatalf("%d deferred frees reclaimed while a reader guard was pinned", got)
	}
	g.Unpin()

	// Each write unlock attempts one epoch advance and one drain; a handful
	// of writes must push SafeEpoch past the pinned-era retirement tags.
	for i := uint64(0); i < 20; i++ {
		s.PutUint64(i, i)
	}
	if got := alloc.ReclaimedFrees() - base; got == 0 {
		t.Fatal("deferred frees never reclaimed after the guard unpinned")
	}
}

// TestReadsDoNotBlockOnShardMutex proves the zero-mutex-acquisition claim
// operationally: with a shard's write mutex held (and no mutation in
// flight), point reads, Len, Stats and scans must all complete — the
// optimistic path validates and never touches the mutex.
func TestReadsDoNotBlockOnShardMutex(t *testing.T) {
	s := New(DefaultOptions())
	if !lockFreeBuild {
		t.Skip("optimistic reads are compiled out of this build (race detector)")
	}
	key := []byte("hyperion")
	s.Put(key, 42)

	sh := s.shardFor(key)
	sh.mu.Lock()
	defer sh.mu.Unlock()

	done := make(chan struct{})
	go func() {
		defer close(done)
		if v, ok := s.Get(key); !ok || v != 42 {
			t.Errorf("Get under held mutex = (%d,%v), want (42,true)", v, ok)
		}
		if !s.Has(key) {
			t.Error("Has under held mutex = false")
		}
		if got := s.Len(); got != 1 {
			t.Errorf("Len under held mutex = %d, want 1", got)
		}
		if st := s.Stats(); st.Keys != 1 {
			t.Errorf("Stats.Keys under held mutex = %d, want 1", st.Keys)
		}
		if s.MemoryFootprint() <= 0 {
			t.Error("MemoryFootprint under held mutex not positive")
		}
		n := 0
		s.Each(func(k []byte, v uint64) bool { n++; return true })
		if n != 1 {
			t.Errorf("Each under held mutex emitted %d pairs, want 1", n)
		}
	}()
	select {
	case <-done:
	case <-time.After(30 * time.Second):
		t.Fatal("read path blocked on the shard mutex")
	}
}

// TestStatsDuringWriteBurst asserts that Stats/MemoryStats/MemoryFootprint
// taken during a concurrent write burst return sane snapshots without
// blocking the burst (and without racing it — this test runs under -race in
// CI, where it exercises the RLock fallback).
func TestStatsDuringWriteBurst(t *testing.T) {
	opts := IntegerOptions()
	opts.Arenas = 4
	s := New(opts)
	const n = 20000

	var stop atomic.Bool
	var wg sync.WaitGroup
	for w := 0; w < 2; w++ {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := uint64(w); !stop.Load(); i = (i + 2) % n {
				s.PutUint64(i, i)
				if i%16 == uint64(w) {
					s.DeleteUint64(i)
				}
			}
		}()
	}

	deadline := time.Now().Add(300 * time.Millisecond)
	for time.Now().Before(deadline) {
		st := s.Stats()
		if st.Keys < 0 || st.Keys > n {
			t.Errorf("Stats.Keys = %d, outside [0,%d]", st.Keys, n)
			break
		}
		ms := s.MemoryStats()
		if ms.Footprint < 0 || ms.AllocatedBytes < 0 {
			t.Errorf("MemoryStats negative: footprint=%d allocated=%d",
				ms.Footprint, ms.AllocatedBytes)
			break
		}
		if s.MemoryFootprint() < 0 {
			t.Error("MemoryFootprint negative")
			break
		}
		if l := s.Len(); l < 0 || l > n {
			t.Errorf("Len = %d, outside [0,%d]", l, n)
			break
		}
	}
	stop.Store(true)
	wg.Wait()
	if err := s.CheckInvariants(); err != nil {
		t.Fatalf("CheckInvariants after burst: %v", err)
	}
}

// TestReadLockMode pins the mode string the concurrency benchmark records.
func TestReadLockMode(t *testing.T) {
	want := "rwmutex"
	if lockFreeBuild {
		want = "epoch"
	}
	if got := New(DefaultOptions()).ReadLockMode(); got != want {
		t.Fatalf("ReadLockMode = %q, want %q", got, want)
	}
}

// TestShardReadRetryBound pins the combinator's retry bound by counting body
// invocations: against a sequence that moves during every optimistic attempt
// (the body itself plays the racing writer, so the test is deterministic),
// shardRead runs exactly readTries optimistic attempts and then exactly one
// locked attempt, whose result stands.
func TestShardReadRetryBound(t *testing.T) {
	s := New(DefaultOptions())
	sh := s.shards[0]
	var optimistic, locked int
	result := ""
	s.shardRead(sh, true, func(opt bool) {
		if opt {
			optimistic++
			sh.tree.BeginWrite()
			sh.tree.EndWrite()
			result = "torn"
			return
		}
		locked++
		result = "locked"
	})
	wantOptimistic := 0
	if lockFreeBuild {
		wantOptimistic = readTries
	}
	if optimistic != wantOptimistic || locked != 1 {
		t.Fatalf("body ran %d optimistic + %d locked times, want %d + 1", optimistic, locked, wantOptimistic)
	}
	if result != "locked" {
		t.Fatalf("result = %q, want the locked attempt's", result)
	}
}

// TestShardReadUnderWriter runs shardRead against a goroutine flipping the
// write bracket as fast as it can: however the attempts interleave, the body
// runs at most readTries optimistic times plus at most one locked time per
// call, and a call that returns has seen one accepted run.
func TestShardReadUnderWriter(t *testing.T) {
	s := New(DefaultOptions())
	sh := s.shards[0]
	var stop atomic.Bool
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for !stop.Load() {
			s.unlockShardWrite(sh, s.lockShardWrite(sh))
		}
	}()
	for i := 0; i < 2000; i++ {
		var optimistic, locked int
		s.shardRead(sh, i%2 == 0, func(opt bool) {
			if opt {
				optimistic++
			} else {
				locked++
			}
		})
		if optimistic > readTries || locked > 1 || optimistic+locked == 0 {
			t.Fatalf("call %d: body ran %d optimistic + %d locked times", i, optimistic, locked)
		}
		if !lockFreeBuild && (optimistic != 0 || locked != 1) {
			t.Fatalf("call %d: race build ran %d optimistic + %d locked times, want 0 + 1", i, optimistic, locked)
		}
	}
	stop.Store(true)
	wg.Wait()
}

// epochAdvances reports whether the store's epoch domain can still move
// forward, i.e. no reader pin leaked.
func epochAdvances(s *Store) bool {
	before := s.epochs.Epoch()
	return s.epochs.TryAdvance() > before
}

// TestShardReadOptimisticPanic: a body that panics while optimistic (a torn
// walk) is absorbed — the locked attempt supplies the result — and the pin
// taken for the optimistic attempts is released.
func TestShardReadOptimisticPanic(t *testing.T) {
	s := New(DefaultOptions())
	sh := s.shards[0]
	for _, pin := range []bool{false, true} {
		locked := 0
		s.shardRead(sh, pin, func(opt bool) {
			if opt {
				panic("torn walk")
			}
			locked++
		})
		if locked != 1 {
			t.Fatalf("pin=%v: locked attempt ran %d times, want 1", pin, locked)
		}
		if !epochAdvances(s) {
			t.Fatalf("pin=%v: epoch cannot advance after a recovered optimistic panic: pin leaked", pin)
		}
	}
}

// TestShardReadLockedPanicPropagates: a panic under the read lock is a real
// bug, not a torn read — it reaches the caller, and the shard lock and the
// pin are released on the way out.
func TestShardReadLockedPanicPropagates(t *testing.T) {
	s := New(DefaultOptions())
	sh := s.shards[0]
	func() {
		defer func() {
			if r := recover(); r != "real bug" {
				t.Fatalf("recovered %v, want the body's panic", r)
			}
		}()
		s.shardRead(sh, true, func(opt bool) {
			if !opt {
				panic("real bug")
			}
			sh.tree.BeginWrite() // invalidate the optimistic attempts
			sh.tree.EndWrite()
		})
		t.Fatal("shardRead returned normally")
	}()
	if !sh.mu.TryLock() {
		t.Fatal("shard read lock still held after the panic propagated")
	}
	sh.mu.Unlock()
	if !epochAdvances(s) {
		t.Fatal("epoch cannot advance after the panic propagated: pin leaked")
	}
}
