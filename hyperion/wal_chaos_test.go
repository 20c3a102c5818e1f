package hyperion

// Randomized fault-schedule chaos harness for the durability stack. Each
// schedule builds a WAL-backed store whose segment I/O runs through a
// fault.Injector, hits it with concurrent writers while a controller
// goroutine injects scheduled faults (transient EIO bursts below the retry
// budget, fail-sync bursts, write latency, and — in degrading schedules — a
// persistent ENOSPC that must push the store into degraded read-only mode),
// then verifies the contract from every angle:
//
//   - transient-only schedules are invisible: no client-visible error, no
//     degraded entry — the retry budget absorbs everything;
//   - every write acknowledged under SyncAlways survives a kill-9 equivalent
//     (the WAL directory is copied while the store is still open — no Close,
//     no flush — and recovered from the copy);
//   - degrading schedules actually degrade, reads keep serving while writes
//     are refused, and Rearm (manual or the auto-rearm prober) restores full
//     write service on the same directory;
//   - recovery after a clean Close holds every acknowledged write, nothing
//     carries a wrong value, and CheckInvariants is clean throughout.
//
// Schedules are seeded deterministically so a failure reproduces by number;
// HYPERION_CHAOS_SCHEDULES overrides the count (CI runs a fixed budget).

import (
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"strconv"
	"sync"
	"testing"
	"time"

	"repro/internal/fault"
	"repro/internal/wal"
)

// chaosWriter is one writer goroutine's ledger: acked holds writes whose
// durability ack (SyncAlways Put returning with a nil WALError) was observed;
// attempted holds every write issued, acked or not, for value validation.
type chaosWriter struct {
	acked     map[string]uint64
	attempted map[string]uint64
	sawError  bool
}

func chaosSchedules(t *testing.T) int {
	if env := os.Getenv("HYPERION_CHAOS_SCHEDULES"); env != "" {
		n, err := strconv.Atoi(env)
		if err != nil || n <= 0 {
			t.Fatalf("bad HYPERION_CHAOS_SCHEDULES %q", env)
		}
		return n
	}
	if testing.Short() {
		return 4
	}
	return 20
}

func TestWALChaosSchedules(t *testing.T) {
	n := chaosSchedules(t)
	for i := 0; i < n; i++ {
		i := i
		t.Run(fmt.Sprintf("schedule-%02d", i), func(t *testing.T) {
			t.Parallel()
			runChaosSchedule(t, int64(1000+i))
		})
	}
}

func runChaosSchedule(t *testing.T, seed int64) {
	rng := rand.New(rand.NewSource(seed))
	dir := t.TempDir()
	var in fault.Injector

	const retryBudget = 3
	degrading := rng.Intn(5) >= 3 // ~40% of schedules force a degraded entry
	autoRearm := degrading && rng.Intn(2) == 0

	opts := walOptions(dir, 1+rng.Intn(4), SyncAlways)
	opts.WALRetryMax = retryBudget
	opts.WALRetryBackoff = time.Millisecond
	if autoRearm {
		opts.WALAutoRearm = 5 * time.Millisecond
	}
	opts.WALOpenFile = func(path string) (WALFile, error) {
		f, err := os.OpenFile(path, os.O_WRONLY|os.O_CREATE|os.O_EXCL, 0o644)
		if err != nil {
			return nil, err
		}
		return in.Wrap(f), nil
	}
	s, err := Open(opts)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	defer s.Close() //nolint:errsink double-close guard; the happy path closes explicitly

	// Writers: each owns a key range and records what it attempted and what
	// was acknowledged. A Put that returns with a nil store-level WAL error
	// was fsynced (SyncAlways blocks on the group commit). Writers keep
	// writing past their quota until the fault controller is done, so every
	// scheduled burst has traffic to land on.
	nWriters := 1 + rng.Intn(3)
	opsPerWriter := 80 + rng.Intn(120)
	ctlDone := make(chan struct{})
	writers := make([]*chaosWriter, nWriters)
	var wg sync.WaitGroup
	for w := 0; w < nWriters; w++ {
		w := w
		writers[w] = &chaosWriter{acked: map[string]uint64{}, attempted: map[string]uint64{}}
		wg.Add(1)
		go func() {
			defer wg.Done()
			led := writers[w]
			for i := 0; ; i++ {
				if i >= opsPerWriter {
					select {
					case <-ctlDone:
						return
					default:
					}
				}
				key := fmt.Sprintf("chaos-w%d-%05d", w, i)
				val := uint64(w)<<32 | uint64(i)*7 + 1
				led.attempted[key] = val
				s.Put([]byte(key), val)
				if err := s.WALError(); err != nil {
					led.sawError = true
					continue
				}
				led.acked[key] = val
			}
		}()
	}

	// Controller: interleaves scheduled faults with the writers. Transient
	// bursts stay strictly below the retry budget, and each burst must fully
	// drain before the next is scheduled — two bursts overlapping one
	// commit's retry sequence would merge into more consecutive failures
	// than the budget, which is by definition a persistent fault. The
	// injector is shared by every shard's committer, so a burst split across
	// shards only gets smaller per commit.
	var schedWrites, schedSyncs uint64
	waitDrained := func() {
		deadline := time.Now().Add(10 * time.Second)
		for {
			_, _, iw, is := in.Counters()
			if iw >= schedWrites && is >= schedSyncs {
				break
			}
			if time.Now().After(deadline) {
				t.Fatal("injected fault burst never drained")
			}
			time.Sleep(time.Millisecond)
		}
		// The commit that consumed the burst's last failure may still be in
		// its final backoff sleep; a new burst scheduled inside that window
		// would merge with the old one into a single over-budget failure
		// sequence. Worst-case tail is ~6ms (4ms cap + 50% jitter).
		time.Sleep(25 * time.Millisecond)
	}
	events := 2 + rng.Intn(4)
	for e := 0; e < events; e++ {
		time.Sleep(time.Duration(rng.Intn(8)) * time.Millisecond)
		switch rng.Intn(3) {
		case 0:
			n := 1 + rng.Intn(retryBudget)
			waitDrained()
			schedWrites += uint64(n)
			in.FailWrites(n, fault.EIO())
		case 1:
			n := 1 + rng.Intn(retryBudget)
			waitDrained()
			schedSyncs += uint64(n)
			in.FailSyncs(n, fault.EIO())
		case 2:
			in.SetLatency(time.Duration(rng.Intn(500)) * time.Microsecond)
		}
	}
	close(ctlDone)
	wg.Wait()

	// Every transient burst stayed below the retry budget, so no writer saw
	// an error and nothing degraded — faults the budget absorbs are
	// invisible to clients.
	for w, led := range writers {
		if led.sawError {
			t.Fatalf("writer %d saw a client-visible error from below-budget transient faults", w)
		}
		if len(led.acked) != len(led.attempted) || len(led.acked) < opsPerWriter {
			t.Fatalf("writer %d acked %d of %d attempted writes", w, len(led.acked), len(led.attempted))
		}
	}
	if s.Degraded() || s.WALStats().Rearms != 0 {
		t.Fatalf("transient faults degraded the store: %+v", s.WALStats())
	}

	degradedSeen := false
	if degrading {
		in.FailWrites(-1, fault.ENOSPC())
		// Drive writes into the broken disk until the retry budget gives up
		// and the store degrades. These trigger writes are ambiguous by
		// design (enqueued before the fault surfaced): the rearm rewrite
		// makes them durable.
		deadline := time.Now().Add(10 * time.Second)
		for j := 0; !s.Degraded(); j++ {
			s.Put([]byte(fmt.Sprintf("degrade-trigger-%03d", j)), uint64(j))
			if time.Now().After(deadline) {
				t.Fatal("store never degraded under a persistent fault")
			}
		}
		degradedSeen = true
		// Once degraded: writes fail fast before memory, reads keep serving.
		s.PutKey([]byte("degraded-probe"))
		if s.Has([]byte("degraded-probe")) {
			t.Fatal("fail-fast violated: a degraded write reached memory")
		}
		for key, val := range writers[0].acked {
			if v, ok := s.Get([]byte(key)); !ok || v != val {
				t.Fatalf("degraded read of acked key %q: %d,%v want %d", key, v, ok, val)
			}
			break // one probe is enough
		}
	}

	// Kill-9 equivalence: copy the live WAL directory without closing the
	// store — exactly the bytes a power cut would leave — and recover the
	// copy. Every acknowledged write must be there.
	if degrading {
		copyDir := t.TempDir()
		copyTree(t, dir, copyDir)
		verifyRecovered(t, copyDir, opts.Arenas, writers)
	}

	if degrading {
		// Heal the disk, then restore durability: explicitly, or by letting
		// the auto-rearm prober find the healed disk.
		in.Heal()
		if autoRearm {
			deadline := time.Now().Add(10 * time.Second)
			for s.Degraded() {
				if time.Now().After(deadline) {
					t.Fatal("auto-rearm never cleared the degraded state")
				}
				time.Sleep(time.Millisecond)
			}
		} else if err := s.Rearm(); err != nil {
			t.Fatalf("Rearm after heal: %v", err)
		}
		if s.Degraded() {
			t.Fatal("store still degraded after rearm")
		}
		if s.WALStats().Rearms == 0 {
			t.Fatal("rearm counter did not advance")
		}
	}
	if degrading && !degradedSeen {
		t.Fatal("degrading schedule never observed the degraded state")
	}

	// The re-armed (or never-degraded) store accepts durable writes again.
	s.Put([]byte("chaos-final-probe"), 99)
	if err := s.WALError(); err != nil {
		t.Fatalf("WALError after final probe: %v", err)
	}
	if err := s.CheckInvariants(); err != nil {
		t.Fatalf("CheckInvariants: %v", err)
	}
	if err := s.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	// Clean recovery on the original directory: acked writes plus the probe.
	re := verifyRecovered(t, dir, opts.Arenas, writers)
	defer re.Close() //nolint:errsink read-only verification store
	if v, ok := re.Get([]byte("chaos-final-probe")); !ok || v != 99 {
		t.Fatalf("final probe after recovery: %d,%v", v, ok)
	}
}

// verifyRecovered opens dir (with plain file I/O — the fault window is over)
// and asserts the durability contract against the writers' ledgers: every
// acked write present with its exact value, every present chaos key carries
// the value its writer attempted, invariants clean.
func verifyRecovered(t *testing.T, dir string, arenas int, writers []*chaosWriter) *Store {
	t.Helper()
	s, err := Open(walOptions(dir, arenas, SyncAlways))
	if err != nil {
		t.Fatalf("recovery Open %s: %v", dir, err)
	}
	attempted := map[string]uint64{}
	for w, led := range writers {
		for key, val := range led.attempted {
			attempted[key] = val
		}
		for key, val := range led.acked {
			if v, ok := s.Get([]byte(key)); !ok || v != val {
				s.Close() //nolint:errsink the test is already failing
				t.Fatalf("acked write %q by writer %d lost or wrong after recovery: %d,%v want %d", key, w, v, ok, val)
			}
		}
	}
	s.Range(nil, func(key []byte, value uint64) bool {
		if k := string(key); len(k) > 6 && k[:6] == "chaos-" && k != "chaos-final-probe" {
			if want, ok := attempted[k]; !ok || want != value {
				t.Errorf("recovered key %q = %d was never attempted with that value", k, value)
			}
		}
		return true
	})
	if err := s.CheckInvariants(); err != nil {
		t.Fatalf("CheckInvariants on recovered store: %v", err)
	}
	return s
}

// copyTree copies every regular file under src into dst (one level deep — the
// WAL directory is flat), byte-for-byte, without touching the source store.
func copyTree(t *testing.T, src, dst string) {
	t.Helper()
	entries, err := os.ReadDir(src)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if !e.Type().IsRegular() {
			continue
		}
		data, err := os.ReadFile(filepath.Join(src, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dst, e.Name()), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
}

// TestFailFastKeepsMemoryMatchingLog is the satellite regression test for the
// degraded fail-fast path: once the store is degraded, refused writes must
// not mutate memory, so the in-memory state stays exactly what a recovery
// replay of the (re-armed) log reproduces. The write that discovers the fault
// is the one allowed ambiguity: it is refused but already enqueued, so the
// rearm rewrite makes it durable — memory and log agree on it too.
func TestFailFastKeepsMemoryMatchingLog(t *testing.T) {
	dir := t.TempDir()
	var in fault.Injector
	opts := walOptions(dir, 1, SyncAlways)
	opts.WALRetryMax = 1
	opts.WALRetryBackoff = time.Millisecond
	opts.WALOpenFile = func(path string) (WALFile, error) {
		f, err := os.OpenFile(path, os.O_WRONLY|os.O_CREATE|os.O_EXCL, 0o644)
		if err != nil {
			return nil, err
		}
		return in.Wrap(f), nil
	}
	s, err := Open(opts)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	defer s.Close() //nolint:errsink double-close guard; the happy path closes explicitly

	s.Put([]byte("k1"), 1)
	if err := s.WALError(); err != nil {
		t.Fatalf("healthy Put: %v", err)
	}

	in.FailWrites(-1, fault.ENOSPC())
	s.Put([]byte("k2"), 2) // discovers the fault: refused but enqueued (ambiguous)
	if err := s.WALError(); !errors.Is(err, ErrDegraded) {
		t.Fatalf("WALError after fault = %v, want ErrDegraded", err)
	}
	s.Put([]byte("k3"), 3) // degraded: must fail fast, before memory
	if s.Has([]byte("k3")) {
		t.Fatal("degraded Put reached memory")
	}
	if s.Delete([]byte("k1")) {
		t.Fatal("degraded Delete reported success")
	}
	if !s.Has([]byte("k1")) {
		t.Fatal("degraded Delete mutated memory")
	}
	res := s.ApplyBatch([]Op{{Kind: OpPut, Key: []byte("k4"), Value: 4}, {Kind: OpGet, Key: []byte("k1")}})
	if res[0].Ok {
		t.Fatal("degraded batch Put acknowledged")
	}
	if !res[1].Ok || res[1].Value != 1 {
		t.Fatalf("degraded batch Get = %+v, want 1 (reads keep serving)", res[1])
	}
	if s.Has([]byte("k4")) {
		t.Fatal("degraded batch Put reached memory")
	}

	in.Heal()
	if err := s.Rearm(); err != nil {
		t.Fatalf("Rearm: %v", err)
	}

	// Memory now: k1=1, k2=2. The replayed log must agree exactly.
	inMemory := map[string]uint64{}
	s.Range(nil, func(key []byte, value uint64) bool {
		inMemory[string(key)] = value
		return true
	})
	if err := s.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	re, err := Open(walOptions(dir, 1, SyncAlways))
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer re.Close()
	replayed := map[string]uint64{}
	re.Range(nil, func(key []byte, value uint64) bool {
		replayed[string(key)] = value
		return true
	})
	if len(inMemory) != len(replayed) {
		t.Fatalf("memory (%d keys) and replayed log (%d keys) diverge: %v vs %v", len(inMemory), len(replayed), inMemory, replayed)
	}
	for k, v := range inMemory {
		if rv, ok := replayed[k]; !ok || rv != v {
			t.Fatalf("key %q: memory %d, replay %d,%v", k, v, rv, ok)
		}
	}
	if _, ok := replayed["k3"]; ok {
		t.Fatal("failed-fast key k3 found in the replayed log")
	}
}

// TestWALCloseJoinsProber is the deterministic reproducer of the Close
// ordering bug behind the chaos suite's "Close: wal: log closed" failures:
// the auto-rearm prober is parked in the middle of a Rearm (inside the log's
// fresh-segment open, past every closed check it makes) when Close is called.
// Close must wait that probe out and join the prober before it closes the
// logs; before it did, the probe went on to rotate a closed log for its
// checkpoint and poisoned WALError with wal.ErrClosed, which Close (or the
// next Close) then returned.
func TestWALCloseJoinsProber(t *testing.T) {
	dir := t.TempDir()
	var in fault.Injector
	gate := newIOGate()
	opts := walOptions(dir, 1, SyncAlways)
	opts.WALRetryMax = 1
	opts.WALRetryBackoff = time.Millisecond
	opts.WALAutoRearm = time.Millisecond
	opts.WALOpenFile = func(path string) (WALFile, error) {
		gate.park()
		f, err := os.OpenFile(path, os.O_WRONLY|os.O_CREATE|os.O_EXCL, 0o644)
		if err != nil {
			return nil, err
		}
		return in.Wrap(f), nil
	}
	s, err := Open(opts)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	s.Put([]byte("acked"), 1)

	// Degrade, then let the medium heal: the prober's next tick starts a
	// Rearm, which parks opening the fresh segment.
	gate.armed.Store(true)
	in.FailWrites(-1, fault.ENOSPC())
	s.Put([]byte("discovery"), 2)
	in.Heal()
	// Both waits are bounded: a prober that never parks, or a Close that
	// never marks the store, fails the test instead of hanging the package.
	const bound = 10 * time.Second
	select {
	case <-gate.entered:
	case <-time.After(bound):
		t.Fatalf("no Rearm parked in opening a segment within %v", bound)
	}

	closed := make(chan error, 1)
	go func() { closed <- s.Close() }()
	for deadline := time.Now().Add(bound); !s.closed.Load(); time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			close(gate.release)
			t.Fatalf("Close did not mark the store closed within %v", bound)
		}
	}
	close(gate.release)
	if err := <-closed; err != nil {
		t.Fatalf("Close: %v", err)
	}
	// Close joined the prober, so nothing can touch the store any more.
	if err := s.WALError(); err != nil {
		t.Fatalf("WALError after Close = %v", err)
	}
	if err := s.Close(); err != nil {
		t.Fatalf("second Close: %v", err)
	}
	if err := s.Rearm(); !errors.Is(err, wal.ErrClosed) {
		t.Fatalf("Rearm on a closed store = %v, want wal.ErrClosed", err)
	}
	if _, err := s.Checkpoint(); !errors.Is(err, wal.ErrClosed) {
		t.Fatalf("Checkpoint on a closed store = %v, want wal.ErrClosed", err)
	}
	if err := s.WALError(); err != nil {
		t.Fatalf("Rearm/Checkpoint on a closed store poisoned WALError: %v", err)
	}

	re, err := Open(walOptions(dir, 1, SyncAlways))
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer re.Close() //nolint:errsink read-only verification store
	checkState(t, re, map[string]uint64{"acked": 1, "discovery": 2}, nil)
}
