package hyperion

import (
	"fmt"
	"testing"

	"repro/internal/keys"
)

// These tests pin the zero-allocation contract of the hot paths: steady-state
// Get/Has/Put (and the single-arena batched lookup with a reused result
// buffer) must not touch the heap, including with KeyPreprocessing enabled,
// where the transformed key lives in a fixed stack scratch. A regression here
// usually means something made the key or a descent structure escape again —
// check `go build -gcflags=-m` before reaching for sync.Pool. Scans are the
// one pooled path: Range/ScanPrefix/CountPrefix draw their cursor and buffers
// from the scan-state pool (scan.go), and the TestZeroAlloc scan tests pin
// that a warm scan allocates nothing.

// loadedStore builds a store with n random integer keys and returns one of
// the stored keys.
func loadedStore(opts Options, n int) (*Store, []byte) {
	s := New(opts)
	var buf [keys.Uint64Size]byte
	for i := uint64(0); i < uint64(n); i++ {
		keys.PutUint64(buf[:], i*2654435761)
		s.Put(buf[:], i)
	}
	probe := make([]byte, keys.Uint64Size)
	keys.PutUint64(probe, 42*2654435761)
	return s, probe
}

func TestZeroAllocSingleOps(t *testing.T) {
	for _, tc := range []struct {
		name string
		opts Options
	}{
		{"integer", IntegerOptions()},
		{"preprocessed", PreprocessedIntegerOptions()},
		{"preprocessed-arenas-8", Options{Arenas: 8, KeyPreprocessing: true, EmbeddedEjectThreshold: 8 * 1024}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			s, probe := loadedStore(tc.opts, 50_000)
			// One warm call per op: the very first touch of a container can
			// still add jump metadata, which is legitimate one-time
			// structural work.
			s.Get(probe)
			s.Has(probe)
			s.Put(probe, 7)
			if n := testing.AllocsPerRun(500, func() { s.Get(probe) }); n != 0 {
				t.Errorf("Get allocates %v allocs/op, want 0", n)
			}
			if n := testing.AllocsPerRun(500, func() { s.Has(probe) }); n != 0 {
				t.Errorf("Has allocates %v allocs/op, want 0", n)
			}
			if n := testing.AllocsPerRun(500, func() { s.Put(probe, 7) }); n != 0 {
				t.Errorf("steady-state Put allocates %v allocs/op, want 0", n)
			}
		})
	}
}

func TestZeroAllocGetBatchInto(t *testing.T) {
	s, _ := loadedStore(PreprocessedIntegerOptions(), 50_000)
	lookups := make([][]byte, 64)
	for i := range lookups {
		k := make([]byte, keys.Uint64Size)
		keys.PutUint64(k, uint64(i)*2654435761)
		lookups[i] = k
	}
	var results []Result
	results = s.GetBatchInto(results, lookups)
	if n := testing.AllocsPerRun(200, func() { results = s.GetBatchInto(results, lookups) }); n != 0 {
		t.Errorf("GetBatchInto with reused buffer allocates %v allocs/batch, want 0", n)
	}
	for i, r := range results {
		if !r.Ok || r.Value != uint64(i) {
			t.Fatalf("lookup %d returned %+v", i, r)
		}
	}
}

func TestZeroAllocApplyBatchInto(t *testing.T) {
	s, _ := loadedStore(PreprocessedIntegerOptions(), 50_000)
	ops := make([]Op, 64)
	for i := range ops {
		k := make([]byte, keys.Uint64Size)
		keys.PutUint64(k, uint64(i)*2654435761)
		ops[i] = Op{Kind: OpPut, Key: k, Value: uint64(i)}
	}
	var results []Result
	results = s.ApplyBatchInto(results, ops)
	if n := testing.AllocsPerRun(200, func() { results = s.ApplyBatchInto(results, ops) }); n != 0 {
		t.Errorf("steady-state ApplyBatchInto with reused buffer allocates %v allocs/batch, want 0", n)
	}
	if len(results) != len(ops) {
		t.Fatalf("got %d results for %d ops", len(results), len(ops))
	}
}

// scanAllocStores returns warm 8-arena stores, without and with key
// pre-processing, holding string keys spread over every leading byte (about
// 156 per leading byte, so one-byte prefixes span several scan chunks).
func scanAllocStores() map[string]*Store {
	out := map[string]*Store{}
	for _, prep := range []bool{false, true} {
		s := New(Options{Arenas: 8, KeyPreprocessing: prep, EmbeddedEjectThreshold: 8 * 1024})
		for i := 0; i < 40_000; i++ {
			s.Put(fmt.Appendf(nil, "%c%c/%05d", byte(i*7), 'a'+byte(i%26), i), uint64(i))
		}
		out[fmt.Sprintf("prep=%v", prep)] = s
	}
	return out
}

// scanAllocPrefixes covers every prefixBounds class: empty, one byte (exact
// under pre-processing), two and three bytes (class envelope) and four or
// more (transformed endpoints), plus an all-0xff prefix without a successor.
var scanAllocPrefixes = [][]byte{nil, {0x70}, {0x70, 'c'}, {0x70, 'c', '/'}, []byte("\x70c/0"), {0xff, 0xff}}

// requireNoScanAllocs skips on race builds, where sync.Pool drops pooled
// items at random, and otherwise requires f to allocate nothing.
func requireNoScanAllocs(t *testing.T, what string, f func()) {
	t.Helper()
	if !lockFreeBuild {
		t.Skip("sync.Pool drops items at random under the race detector")
	}
	if n := testing.AllocsPerRun(50, f); n != 0 {
		t.Errorf("%s allocates %v allocs/op, want 0", what, n)
	}
}

// TestZeroAllocRange pins the scan-state pool: a warm Range of 100 keys —
// several chunks, crossing an arena boundary — allocates nothing.
func TestZeroAllocRange(t *testing.T) {
	for name, s := range scanAllocStores() {
		t.Run(name, func(t *testing.T) {
			start := []byte("\x1f")
			seen := 0
			fn := func([]byte, uint64) bool { seen++; return seen%100 != 0 }
			requireNoScanAllocs(t, "Range", func() { s.Range(start, fn) })
			if seen == 0 || seen%100 != 0 {
				t.Fatalf("Range stopped after %d keys, want multiples of 100", seen)
			}
		})
	}
}

// TestZeroAllocScanPrefix pins the pooled prefix bounds and scan state.
func TestZeroAllocScanPrefix(t *testing.T) {
	for name, s := range scanAllocStores() {
		t.Run(name, func(t *testing.T) {
			seen := 0
			fn := func([]byte, uint64) bool { seen++; return seen%1000 != 0 }
			for _, p := range scanAllocPrefixes {
				requireNoScanAllocs(t, fmt.Sprintf("ScanPrefix(%q)", p), func() { s.ScanPrefix(p, fn) })
			}
			if seen == 0 {
				t.Fatal("ScanPrefix visited nothing")
			}
		})
	}
}

// TestZeroAllocCountPrefix pins CountPrefix's pooled cursor, resume and
// untransform scratch.
func TestZeroAllocCountPrefix(t *testing.T) {
	for name, s := range scanAllocStores() {
		t.Run(name, func(t *testing.T) {
			total := 0
			for _, p := range scanAllocPrefixes {
				requireNoScanAllocs(t, fmt.Sprintf("CountPrefix(%q)", p), func() { total += s.CountPrefix(p) })
			}
			if total == 0 {
				t.Fatal("CountPrefix counted nothing")
			}
		})
	}
}

// TestOversizedKeysFallBack documents the scratch-overflow path: keys whose
// transformed form exceeds the stack scratch still work (they just pay a
// heap allocation).
func TestOversizedKeysFallBack(t *testing.T) {
	s := New(PreprocessedIntegerOptions())
	long := make([]byte, opScratchSize*3)
	for i := range long {
		long[i] = byte(i * 7)
	}
	s.Put(long, 99)
	if v, ok := s.Get(long); !ok || v != 99 {
		t.Fatalf("oversized key lost: %v %v", v, ok)
	}
	if !s.Delete(long) {
		t.Fatal("oversized key not deleted")
	}
}

func ExampleStore_GetBatchInto() {
	s := New(DefaultOptions())
	s.Put([]byte("a"), 1)
	s.Put([]byte("b"), 2)
	// Reusing the result buffer across batches keeps the lookup path free of
	// heap allocations.
	var results []Result
	results = s.GetBatchInto(results, [][]byte{[]byte("a"), []byte("b"), []byte("c")})
	for _, r := range results {
		fmt.Println(r.Value, r.Ok)
	}
	// Output:
	// 1 true
	// 2 true
	// 0 false
}
