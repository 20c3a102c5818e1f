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
	"errors"
	"fmt"
	"math/rand"
	"os"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/fault"
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
			s.shardWrite(sh, 0, nil, func(int) {})
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
	if !epochAdvances(s) {
		t.Fatal("epoch cannot advance after the readers returned: pin leaked")
	}
}

// fnvValue gives every key one value, a function of its bytes (FNV-1a), so
// a reader can check any pair it sees on its own.
func fnvValue(k []byte) uint64 {
	h := uint64(14695981039346656037)
	for _, c := range k {
		h = (h ^ uint64(c)) * 1099511628211
	}
	return h
}

// churnGroups and churnSuffixes shape underChurn's never-modified keys: group
// g holds "g<g>" plus each suffix, in sorted order.
const churnGroups = 6

var churnSuffixes = []string{"", "/", "/st", "/stable", "/stable/and/a/long/path/compressed/tail", "/zz"}

// underChurn is the torn-read torture for the optimistic readers: readers
// call read over a fixed set of keys that are never modified (stable, group
// g at stable[g*len(churnSuffixes):], each key carrying fnvValue) while one
// writer inserts and deletes their neighbours in the same arena — keys that
// share every container on the stable keys' paths, in waves large enough to
// grow the containers through the size classes (realloc), eject embedded
// containers and build, grow and hole both kinds of jump table under the
// readers' feet. read returns a description of anything wrong it saw: a torn
// walk that the seqlock validation or the recover barrier let through.
// Lock-free builds only (on race builds every read is a plain RLock).
func underChurn(t *testing.T, read func(s *Store, stable [][]byte, i int) string) {
	t.Helper()
	s := New(DefaultOptions()) // one arena: everything churns in the same tree
	if s.ReadLockMode() != "epoch" {
		t.Skip("reads are only optimistic on lock-free (non-race) builds")
	}
	const (
		perWave = 64 * 48 // neighbours per group and wave: 64 T-Nodes x 48 S-Nodes two levels down
		waves   = 2
	)
	// Readers spin without yielding; leave the writer a CPU of its own, or a
	// wave takes minutes of 10 ms preemption slices instead of a second.
	readers := min(max(runtime.GOMAXPROCS(0)-1, 1), 3)
	var stable [][]byte
	for g := 0; g < churnGroups; g++ {
		for _, suffix := range churnSuffixes {
			k := []byte(fmt.Sprintf("g%d%s", g, suffix))
			stable = append(stable, k)
			s.Put(k, fnvValue(k))
		}
	}
	// Neighbours of group g vary bytes 3 and 4 — the T and S key of the
	// stream the "/st..." stable keys live in — so that stream gains and
	// loses T-Nodes next to 's' and S-Nodes next to 't'.
	neighbour := func(g, i int) []byte {
		return []byte(fmt.Sprintf("g%d/%c%c%03d", g, 'A'+i%64, '0'+i/64, i%7))
	}

	var stop atomic.Bool
	var reads atomic.Int64
	var wg sync.WaitGroup
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			n := int64(0)
			for i := r; !stop.Load(); i++ {
				if msg := read(s, stable, i); msg != "" {
					t.Error(msg)
					stop.Store(true)
				}
				n++
			}
			reads.Add(n)
		}(r)
	}
	for w := 0; w < waves && !stop.Load(); w++ {
		for g := 0; g < churnGroups; g++ {
			for i := 0; i < perWave; i++ {
				k := neighbour(g, i)
				s.Put(k, fnvValue(k))
			}
		}
		for g := 0; g < churnGroups; g++ {
			for i := 0; i < perWave; i++ {
				if (i+w)%5 != 0 { // leave a changing fifth behind: holes, not empty streams
					s.Delete(neighbour(g, i))
				}
			}
		}
	}
	stop.Store(true)
	wg.Wait()
	if !epochAdvances(s) {
		t.Fatal("epoch cannot advance after the readers returned: pin leaked")
	}

	if err := s.CheckInvariants(); err != nil {
		t.Fatalf("CheckInvariants after churn: %v", err)
	}
	st := s.Stats()
	reallocs := s.shards[0].tree.Allocator().Stats().TotalReallocs
	if st.Ejections == 0 || st.TNodeJumpTables == 0 || st.ContainerJTUpdates == 0 || reallocs == 0 {
		t.Fatalf("churn too gentle: %d ejections, %d T-Node jump tables, %d container jump table updates, %d reallocs",
			st.Ejections, st.TNodeJumpTables, st.ContainerJTUpdates, reallocs)
	}
	t.Logf("%d reads against %d ejections, %d T-Node jump tables, %d container jump table updates, %d reallocs",
		reads.Load(), st.Ejections, st.TNodeJumpTables, st.ContainerJTUpdates, reallocs)
}

// TestShardFindUnderChurn runs underChurn's torture against shardFind, the
// one reader whose protocol is open-coded: every Get of a stable key must
// return its one value — a miss or any other value is a torn walk.
func TestShardFindUnderChurn(t *testing.T) {
	underChurn(t, func(s *Store, stable [][]byte, i int) string {
		k := stable[i%len(stable)]
		if v, ok := s.Get(k); !ok || v != fnvValue(k) {
			return fmt.Sprintf("Get(%q) = %d,%v under churn, want %d,true", k, v, ok, fnvValue(k))
		}
		return ""
	})
}

// TestScanUnderChurn runs underChurn's torture against the chunked scan,
// whose cursor continues across rounds only while the tree's sequence has
// not moved. Range over a group must report keys in strictly increasing
// order, each with its fnvValue, and every stable key of the group exactly
// once; CountPrefix of "g<g>/st", whose three keys no neighbour shares, must
// be 3.
func TestScanUnderChurn(t *testing.T) {
	underChurn(t, func(s *Store, stable [][]byte, i int) string {
		g := (i / 2) % churnGroups
		group := stable[g*len(churnSuffixes) : (g+1)*len(churnSuffixes)]
		if i%2 == 1 {
			if n := s.CountPrefix(group[2]); n != 3 {
				return fmt.Sprintf("CountPrefix(%q) = %d under churn, want 3", group[2], n)
			}
			return ""
		}
		prefix := group[0]
		var prev []byte
		seen := 0
		msg := ""
		s.Range(prefix, func(k []byte, v uint64) bool {
			switch {
			case !bytes.HasPrefix(k, prefix):
				return false
			case prev != nil && bytes.Compare(prev, k) >= 0:
				msg = fmt.Sprintf("Range(%q) reported %q after %q under churn", prefix, k, prev)
			case v != fnvValue(k):
				msg = fmt.Sprintf("Range(%q) reported %q = %d under churn, want %d", prefix, k, v, fnvValue(k))
			}
			if msg != "" {
				return false
			}
			if seen < len(group) && bytes.Equal(k, group[seen]) {
				seen++
			}
			prev = append(prev[:0], k...)
			return true
		})
		if msg == "" && seen != len(group) {
			msg = fmt.Sprintf("Range(%q) reported %d of its %d stable keys in order under churn", prefix, seen, len(group))
		}
		return msg
	})
}

// epochAdvances reports whether the store's epoch domain can still move
// forward, i.e. no pin leaked. It takes two consecutive advances: a slot
// pinned at the current epoch does not block the first.
func epochAdvances(s *Store) bool {
	e0 := s.epochs.Epoch()
	e1 := s.epochs.TryAdvance()
	return e1 > e0 && s.epochs.TryAdvance() > e1
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

// openFaulty opens a SyncAlways WAL store in a fresh directory whose segment
// files run through in (and through wrap, when non-nil), with the smallest
// retry budget so a persistent fault turns sticky at once.
func openFaulty(t *testing.T, in *fault.Injector, arenas int, wrap func(WALFile) WALFile) (*Store, string) {
	t.Helper()
	dir := t.TempDir()
	opts := walOptions(dir, arenas, SyncAlways)
	opts.WALRetryMax = 1
	opts.WALRetryBackoff = time.Millisecond
	opts.WALOpenFile = func(path string) (WALFile, error) {
		f, err := os.OpenFile(path, os.O_WRONLY|os.O_CREATE|os.O_EXCL, 0o644)
		if err != nil {
			return nil, err
		}
		if wrap != nil {
			return wrap(in.Wrap(f)), nil
		}
		return in.Wrap(f), nil
	}
	s, err := Open(opts)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	t.Cleanup(func() { s.Close() }) //nolint:errsink double-close guard; tests that care close explicitly
	return s, dir
}

// degrade makes s's log fail persistently and spends one Put discovering it
// (that write is the documented ambiguity: applied and stashed).
func degrade(t *testing.T, s *Store, in *fault.Injector) {
	t.Helper()
	in.FailWrites(-1, fault.ENOSPC())
	s.Put([]byte("discovery"), 1)
	if err := s.WALError(); !errors.Is(err, ErrDegraded) {
		t.Fatalf("WALError after fault = %v, want ErrDegraded", err)
	}
}

// dump returns the store's content.
func dump(s *Store) map[string]uint64 {
	m := map[string]uint64{}
	s.Range(nil, func(key []byte, value uint64) bool {
		m[string(key)] = value
		return true
	})
	return m
}

// checkShardIdle asserts what every shardWrite must leave behind: the tree
// published (even sequence), the shard lock free and no pin held.
func checkShardIdle(t *testing.T, s *Store, sh *shard) {
	t.Helper()
	if _, stable := sh.tree.ReadSeq(); !stable {
		t.Fatal("tree sequence is odd after shardWrite returned")
	}
	if !sh.mu.TryLock() {
		t.Fatal("shard lock still held after shardWrite returned")
	}
	sh.mu.Unlock()
	if !epochAdvances(s) {
		t.Fatal("epoch cannot advance after shardWrite returned: pin leaked")
	}
}

// TestShardWriteCovered pins the covered contract on healthy stores: without
// a WAL log is never called and apply gets all n; with one, apply gets what
// log reports, and a group with nothing to log is covered, not refused.
func TestShardWriteCovered(t *testing.T) {
	mem := New(DefaultOptions())
	got := -1
	mem.shardWrite(mem.shards[0], 7,
		func() (uint64, int) { t.Fatal("log called on a store without a WAL"); return 0, 0 },
		func(covered int) { got = covered })
	if got != 7 {
		t.Fatalf("WAL-less apply saw covered = %d, want 7", got)
	}
	checkShardIdle(t, mem, mem.shards[0])

	var in fault.Injector
	s, _ := openFaulty(t, &in, 1, nil)
	sh := s.shards[0]
	reads := []Op{{Kind: OpGet, Key: []byte("a")}, {Kind: OpHas, Key: []byte("b")}}
	s.shardWrite(sh, len(reads),
		func() (uint64, int) { return s.walEnqueueBatch(sh, reads, nil) },
		func(covered int) { got = covered })
	if got != len(reads) {
		t.Fatalf("nothing-to-log group saw covered = %d, want %d", got, len(reads))
	}
	s.shardWrite(sh, 1,
		func() (uint64, int) { return s.walEnqueueOp(sh, walOpPut, []byte("a"), 1) },
		func(covered int) { got = covered })
	if got != 1 || s.WALError() != nil {
		t.Fatalf("healthy single op: covered = %d, WALError = %v", got, s.WALError())
	}
	checkShardIdle(t, s, sh)
}

// TestShardWriteRefusedLog: once the log refuses records, apply sees
// covered == 0 and every writer of the package — each a body passed to
// shardWrite — leaves the tree and Len() exactly as they were.
func TestShardWriteRefusedLog(t *testing.T) {
	var in fault.Injector
	s, _ := openFaulty(t, &in, 1, nil)
	sh := s.shards[0]
	s.Put([]byte("keep"), 42)
	degrade(t, s, &in)
	before, beforeLen := dump(s), s.Len()

	got := -1
	s.shardWrite(sh, 1,
		func() (uint64, int) { return s.walEnqueueOp(sh, walOpPut, []byte("x"), 1) },
		func(covered int) { got = covered })
	if got != 0 {
		t.Fatalf("apply saw covered = %d on a refusing log, want 0", got)
	}
	checkShardIdle(t, s, sh)

	run := make([]Pair, 2*bulkDivertMinRun)
	ops := make([]Op, len(run))
	for i := range run {
		run[i] = Pair{Key: []byte(fmt.Sprintf("run-%04d", i)), Value: uint64(i)}
		ops[i] = Op{Kind: OpPut, Key: run[i].Key, Value: run[i].Value}
	}
	s.Put([]byte("x"), 1)
	s.PutKey([]byte("y"))
	if s.Delete([]byte("keep")) {
		t.Fatal("refused Delete reported success")
	}
	s.BulkLoad(run)
	for i, r := range s.ApplyBatch(ops) { // diverted to the run writer
		if r.Ok {
			t.Fatalf("refused diverted batch op %d acknowledged", i)
		}
	}
	s.Clear()
	checkShardIdle(t, s, sh)
	if s.Len() != beforeLen {
		t.Fatalf("Len = %d after refused writes, want %d", s.Len(), beforeLen)
	}
	if after := dump(s); fmt.Sprint(after) != fmt.Sprint(before) {
		t.Fatalf("refused writes reached memory: %v, want %v", after, before)
	}
}

// TestShardWriteBulkPrefix: a bulk run whose log fails after its first chunks
// lands exactly the enqueued prefix, and what a restart recovers from the
// directory is what memory holds. The failure is sequenced from inside the
// log body (enqueue k pairs, turn the log sticky, offer the rest), because
// nothing outside the shard lock can step between two chunks of one run.
func TestShardWriteBulkPrefix(t *testing.T) {
	var in fault.Injector
	s, dir := openFaulty(t, &in, 1, nil)
	sh := s.shards[0]
	const n, k = 3000, 1000
	pairs := make([]Pair, n)
	tkeys, vals := make([][]byte, n), make([]uint64, n)
	for i := range pairs {
		pairs[i] = Pair{Key: []byte(fmt.Sprintf("run-%05d", i)), Value: uint64(i)}
		tkeys[i], vals[i] = pairs[i].Key, pairs[i].Value
	}
	got := -1
	s.shardWrite(sh, n,
		func() (uint64, int) {
			// Armed before the enqueue: armed after it, the committer may
			// already have written the chunk and nothing trips the log.
			in.FailWrites(-1, fault.ENOSPC())
			seq, covered := s.walEnqueuePairs(sh, pairs[:k])
			for sh.wal.Err() == nil { // the committer trips over the chunk just enqueued
				time.Sleep(time.Millisecond)
			}
			_, rest := s.walEnqueuePairs(sh, pairs[k:])
			return seq, covered + rest
		},
		func(covered int) {
			got = covered
			sh.tree.BulkLoad(tkeys[:covered], vals[:covered])
		})
	if got != k || s.Len() != k {
		t.Fatalf("covered = %d, Len = %d, want the enqueued prefix %d", got, s.Len(), k)
	}
	if !errors.Is(s.WALError(), ErrDegraded) {
		t.Fatalf("WALError = %v, want ErrDegraded", s.WALError())
	}
	checkShardIdle(t, s, sh)

	in.Heal()
	if err := s.Rearm(); err != nil {
		t.Fatalf("Rearm: %v", err)
	}
	inMemory := dump(s)
	if err := s.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	re, err := Open(walOptions(dir, 1, SyncAlways))
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer re.Close() //nolint:errsink read-only verification store
	if recovered := dump(re); len(recovered) != k || fmt.Sprint(recovered) != fmt.Sprint(inMemory) {
		t.Fatalf("recovered %d keys, memory holds %d: the log and the tree diverged", len(recovered), len(inMemory))
	}
}

// ioGate parks one caller of park — the first after armed is set — until
// release is closed, and says so on entered: the seam tests use to hold a
// committer inside a file operation and look at the store meanwhile.
type ioGate struct {
	armed   atomic.Bool
	entered chan struct{}
	release chan struct{}
}

func newIOGate() *ioGate {
	return &ioGate{entered: make(chan struct{}, 1), release: make(chan struct{})}
}

func (g *ioGate) park() {
	if g.armed.CompareAndSwap(true, false) {
		g.entered <- struct{}{}
		<-g.release
	}
}

// gatedSyncFile runs every Sync through an ioGate.
type gatedSyncFile struct {
	WALFile
	gate *ioGate
}

func (f gatedSyncFile) Sync() error {
	f.gate.park()
	return f.WALFile.Sync()
}

// TestShardWriteAwaitsOutsideLock: the durability wait happens after the
// shard lock is dropped — while one writer waits on its fsync, a second
// writer to the same shard takes the lock, enqueues and applies.
func TestShardWriteAwaitsOutsideLock(t *testing.T) {
	var in fault.Injector
	gate := newIOGate()
	s, _ := openFaulty(t, &in, 1, func(f WALFile) WALFile { return gatedSyncFile{f, gate} })
	sh := s.shards[0]
	gate.armed.Store(true)
	released := false
	release := func() {
		if !released {
			released = true
			close(gate.release)
		}
	}
	// Runs before openFaulty's Close: a failed check must not leave Close
	// waiting for the parked committer forever.
	t.Cleanup(release)

	var wg sync.WaitGroup
	wg.Add(2)
	go func() { defer wg.Done(); s.Put([]byte("first"), 1) }()
	<-gate.entered // the first writer's record is in Sync; its Put has not returned
	// The committer can reach Sync while the first writer is still on its way
	// out of the lock it enqueued under; the wait it then parks in is outside.
	for i := 0; !sh.mu.TryLock(); i++ {
		if i == 5000 {
			t.Fatal("shard lock still held while the first writer waits on its fsync")
		}
		time.Sleep(time.Millisecond)
	}
	sh.mu.Unlock()
	checkShardIdle(t, s, sh)
	go func() { defer wg.Done(); s.Put([]byte("second"), 2) }()
	for !s.Has([]byte("second")) { // applied ⇒ it held the lock and enqueued
		time.Sleep(time.Millisecond)
	}
	release()
	wg.Wait()
	if err := s.WALError(); err != nil {
		t.Fatalf("WALError = %v after both fsyncs completed", err)
	}
	if err := s.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
}

// TestShardWriteDegradedGroup: a mixed batch group on a refusing log serves
// its reads and zero-Results its writes — through the one group function,
// whether the batch is the single-shard whole or a runGroups slice.
func TestShardWriteDegradedGroup(t *testing.T) {
	for _, arenas := range []int{1, 4} {
		var in fault.Injector
		s, _ := openFaulty(t, &in, arenas, nil)
		s.Put([]byte("k1"), 11)
		s.PutKey([]byte("k2"))
		degrade(t, s, &in)
		beforeLen := s.Len()
		res := s.ApplyBatch([]Op{
			{Kind: OpGet, Key: []byte("k1")},
			{Kind: OpPut, Key: []byte("k9"), Value: 9},
			{Kind: OpHas, Key: []byte("k2")},
			{Kind: OpDelete, Key: []byte("k1")},
			{Kind: OpPutKey, Key: []byte("k8")},
			{Kind: OpGet, Key: []byte("k9")},
		})
		want := []Result{{Value: 11, Ok: true}, {}, {Ok: true}, {}, {}, {}}
		for i := range want {
			if res[i] != want[i] {
				t.Fatalf("arenas=%d: result %d = %+v, want %+v", arenas, i, res[i], want[i])
			}
		}
		if !s.Has([]byte("k1")) || s.Has([]byte("k9")) || s.Has([]byte("k8")) || s.Len() != beforeLen {
			t.Fatalf("arenas=%d: refused group writes reached memory", arenas)
		}
		for _, sh := range s.shards {
			checkShardIdle(t, s, sh)
		}
	}
}
