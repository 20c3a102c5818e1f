package core

import (
	"bytes"
	"fmt"
	"math/rand"
	"sort"
	"testing"

	"repro/internal/keys"
)

// sortedRun generates n distinct random keys in sorted order, with lengths
// and alphabets chosen to exercise shared prefixes, path compression,
// embedded containers and (at larger n) container splits.
func sortedRun(rng *rand.Rand, n, maxLen, alphabet int) ([][]byte, []uint64) {
	seen := make(map[string]bool, n)
	out := make([][]byte, 0, n)
	for len(out) < n {
		l := 1 + rng.Intn(maxLen)
		k := make([]byte, l)
		for i := range k {
			k[i] = byte(rng.Intn(alphabet))
		}
		if seen[string(k)] {
			continue
		}
		seen[string(k)] = true
		out = append(out, k)
	}
	sort.Slice(out, func(a, b int) bool { return bytes.Compare(out[a], out[b]) < 0 })
	vals := make([]uint64, n)
	for i := range vals {
		vals[i] = rng.Uint64()
	}
	return out, vals
}

// collect gathers every (key, value) pair of the tree in Range order.
func collect(t *Tree) (ks [][]byte, vs []uint64) {
	t.Each(func(key []byte, value uint64, hasValue bool) bool {
		ks = append(ks, append([]byte(nil), key...))
		vs = append(vs, value)
		return true
	})
	return ks, vs
}

// checkEqualTrees asserts that bulk and ref hold identical content.
func checkEqualTrees(t *testing.T, bulk, ref *Tree) {
	t.Helper()
	if err := bulk.CheckInvariants(); err != nil {
		t.Fatalf("bulk tree invariants: %v", err)
	}
	if bulk.Len() != ref.Len() {
		t.Fatalf("key count: bulk %d, per-key %d", bulk.Len(), ref.Len())
	}
	bk, bv := collect(bulk)
	rk, rv := collect(ref)
	if len(bk) != len(rk) {
		t.Fatalf("range count: bulk %d, per-key %d", len(bk), len(rk))
	}
	for i := range bk {
		if !bytes.Equal(bk[i], rk[i]) {
			t.Fatalf("range key %d: bulk %q, per-key %q", i, bk[i], rk[i])
		}
		if bv[i] != rv[i] {
			t.Fatalf("range value %d (key %q): bulk %d, per-key %d", i, bk[i], bv[i], rv[i])
		}
	}
}

func TestBulkLoadMatchesPerKeyPut(t *testing.T) {
	for _, tc := range []struct {
		name     string
		cfg      Config
		n        int
		maxLen   int
		alphabet int
	}{
		{"default-shallow", DefaultConfig(), 3000, 6, 4},
		{"default-deep", DefaultConfig(), 2000, 24, 3},
		{"default-wide", DefaultConfig(), 4000, 4, 200},
		{"integer-tuned", IntegerConfig(), 3000, 9, 6},
		{"minimal", MinimalConfig(), 1500, 8, 5},
	} {
		t.Run(tc.name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(42))
			ks, vs := sortedRun(rng, tc.n, tc.maxLen, tc.alphabet)

			bulk := New(tc.cfg)
			bulk.BulkLoad(ks, vs)
			ref := New(tc.cfg)
			for i := range ks {
				ref.Put(ks[i], vs[i])
			}
			checkEqualTrees(t, bulk, ref)
			for i := range ks {
				if v, ok := bulk.Get(ks[i]); !ok || v != vs[i] {
					t.Fatalf("Get(%q) = %d,%v, want %d", ks[i], v, ok, vs[i])
				}
			}
		})
	}
}

func TestBulkLoadMergesIntoExistingTree(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for round := 0; round < 8; round++ {
		cfg := DefaultConfig()
		if round%2 == 1 {
			cfg = IntegerConfig()
		}
		base, baseVals := sortedRun(rng, 1200, 10, 3+round)
		run, runVals := sortedRun(rng, 1500, 12, 3+round)
		// Overlap a third of the run with existing keys (new values) to
		// exercise the overwrite path.
		for i := 0; i < len(run); i += 3 {
			run[i] = base[rng.Intn(len(base))]
		}
		run, runVals = dedupSorted(run, runVals)

		bulk := New(cfg)
		ref := New(cfg)
		for i := range base {
			bulk.Put(base[i], baseVals[i])
			ref.Put(base[i], baseVals[i])
		}
		bulk.BulkLoad(run, runVals)
		for i := range run {
			ref.Put(run[i], runVals[i])
		}
		checkEqualTrees(t, bulk, ref)
	}
}

// dedupSorted re-sorts the run and drops duplicate keys (keeping the last
// value, matching put-overwrite semantics).
func dedupSorted(ks [][]byte, vs []uint64) ([][]byte, []uint64) {
	idx := make([]int, len(ks))
	for i := range idx {
		idx[i] = i
	}
	sort.SliceStable(idx, func(a, b int) bool { return bytes.Compare(ks[idx[a]], ks[idx[b]]) < 0 })
	var outK [][]byte
	var outV []uint64
	for _, i := range idx {
		if len(outK) > 0 && bytes.Equal(outK[len(outK)-1], ks[i]) {
			outV[len(outV)-1] = vs[i]
			continue
		}
		outK = append(outK, ks[i])
		outV = append(outV, vs[i])
	}
	return outK, outV
}

func TestBulkLoadSequentialIntegersSplits(t *testing.T) {
	const n = 200_000
	cfg := IntegerConfig()
	bulk := New(cfg)
	ks := make([][]byte, n)
	vs := make([]uint64, n)
	blob := make([]byte, n*keys.Uint64Size)
	for i := 0; i < n; i++ {
		b := blob[i*keys.Uint64Size : (i+1)*keys.Uint64Size]
		keys.PutUint64(b, uint64(i))
		ks[i] = b
		vs[i] = uint64(i)
	}
	bulk.BulkLoad(ks, vs)
	if err := bulk.CheckInvariants(); err != nil {
		t.Fatalf("invariants after sequential bulk load: %v", err)
	}
	if got := bulk.Len(); got != n {
		t.Fatalf("Len = %d, want %d", got, n)
	}
	for i := 0; i < n; i += 97 {
		if v, ok := bulk.Get(ks[i]); !ok || v != uint64(i) {
			t.Fatalf("Get(key %d) = %d,%v", i, v, ok)
		}
	}
	// A second bulk load of the same run must be a pure overwrite.
	for i := range vs {
		vs[i] = uint64(i) * 3
	}
	bulk.BulkLoad(ks, vs)
	if got := bulk.Len(); got != n {
		t.Fatalf("Len after overwrite = %d, want %d", got, n)
	}
	if v, ok := bulk.Get(ks[12345]); !ok || v != 12345*3 {
		t.Fatalf("overwritten value = %d,%v", v, ok)
	}
	if err := bulk.CheckInvariants(); err != nil {
		t.Fatalf("invariants after overwrite bulk load: %v", err)
	}
}

func TestBulkLoadLongKeysAndSingleKeyRuns(t *testing.T) {
	cfg := DefaultConfig()
	bulk := New(cfg)
	ref := New(cfg)
	var ks [][]byte
	var vs []uint64
	// Keys far beyond the 127-byte PC limit force chained child containers.
	for i := 0; i < 40; i++ {
		k := bytes.Repeat([]byte{byte('a' + i%3)}, 200+i)
		k = append(k, byte(i))
		ks = append(ks, k)
		vs = append(vs, uint64(i))
	}
	ks, vs = dedupSorted(ks, vs)
	bulk.BulkLoad(ks, vs)
	for i := range ks {
		ref.Put(ks[i], vs[i])
	}
	checkEqualTrees(t, bulk, ref)

	// Single-key run on an empty and then a populated tree.
	one := New(cfg)
	one.BulkLoad([][]byte{[]byte("solo")}, []uint64{9})
	if v, ok := one.Get([]byte("solo")); !ok || v != 9 {
		t.Fatalf("single bulk key: %d %v", v, ok)
	}
	one.BulkLoad([][]byte{[]byte("solo2")}, []uint64{10})
	if v, ok := one.Get([]byte("solo2")); !ok || v != 10 {
		t.Fatalf("merged single bulk key: %d %v", v, ok)
	}
	if err := one.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestBulkLoadStatsKeysConsistent(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	ks, vs := sortedRun(rng, 5000, 14, 8)
	tr := New(DefaultConfig())
	half := len(ks) / 2
	tr.BulkLoad(ks[:half], vs[:half])
	tr.BulkLoad(ks[half:], vs[half:])
	if got := tr.Len(); got != int64(len(ks)) {
		t.Fatalf("Len = %d, want %d", got, len(ks))
	}
	if err := tr.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkBulkLoadSequential(b *testing.B) {
	const n = 100_000
	ks := make([][]byte, n)
	vs := make([]uint64, n)
	blob := make([]byte, n*keys.Uint64Size)
	for i := 0; i < n; i++ {
		kb := blob[i*keys.Uint64Size : (i+1)*keys.Uint64Size]
		keys.PutUint64(kb, uint64(i))
		ks[i] = kb
		vs[i] = uint64(i)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for it := 0; it < b.N; it++ {
		tr := New(IntegerConfig())
		tr.BulkLoad(ks, vs)
		if tr.Len() != n {
			b.Fatal("short load")
		}
	}
}

func ExampleTree_BulkLoad() {
	tr := New(DefaultConfig())
	tr.BulkLoad(
		[][]byte{[]byte("alpha"), []byte("beta"), []byte("gamma")},
		[]uint64{1, 2, 3},
	)
	tr.Each(func(key []byte, value uint64, hasValue bool) bool {
		fmt.Printf("%s=%d\n", key, value)
		return true
	})
	// Output:
	// alpha=1
	// beta=2
	// gamma=3
}

// checkEqualWithPresence is checkEqualTrees plus the valued/bare distinction.
func checkEqualWithPresence(t *testing.T, bulk, ref *Tree) {
	t.Helper()
	checkEqualTrees(t, bulk, ref)
	var bh, rh []bool
	bulk.Each(func(_ []byte, _ uint64, hasValue bool) bool { bh = append(bh, hasValue); return true })
	ref.Each(func(_ []byte, _ uint64, hasValue bool) bool { rh = append(rh, hasValue); return true })
	for i := range bh {
		if bh[i] != rh[i] {
			t.Fatalf("range key %d: bulk hasValue %v, per-key %v", i, bh[i], rh[i])
		}
	}
}

// putRun applies a run key by key: Put for valued keys, PutKey for bare ones.
func putRun(tr *Tree, ks [][]byte, vs []uint64, hasv []bool) {
	for i := range ks {
		if hasv[i] {
			tr.Put(ks[i], vs[i])
		} else {
			tr.PutKey(ks[i])
		}
	}
}

// everyNth marks every n-th key (from offset off) bare.
func everyNth(count, n, off int) []bool {
	hasv := make([]bool, count)
	for i := range hasv {
		hasv[i] = i%n != off
	}
	return hasv
}

// TestBulkLoadBareKeys: BulkLoadMixed with a hasv mask must leave the tree a
// per-key Put/PutKey loop leaves, into an empty tree, merged over valued and
// bare keys (a bare key over a valued one keeps its value, the leading empty
// key included), and on runs that eject embedded containers and split
// containers.
func TestBulkLoadBareKeys(t *testing.T) {
	t.Run("empty", func(t *testing.T) {
		for _, cfg := range []Config{DefaultConfig(), IntegerConfig(), MinimalConfig()} {
			rng := rand.New(rand.NewSource(3))
			ks, vs := sortedRun(rng, 3000, 12, 5)
			ks[0] = []byte{} // the empty key sorts first
			hasv := everyNth(len(ks), 3, 1)
			bulk, ref := New(cfg), New(cfg)
			bulk.BulkLoadMixed(ks, vs, hasv)
			putRun(ref, ks, vs, hasv)
			checkEqualWithPresence(t, bulk, ref)
		}
	})
	t.Run("merge", func(t *testing.T) {
		rng := rand.New(rand.NewSource(5))
		for round := 0; round < 6; round++ {
			cfg := DefaultConfig()
			if round%2 == 1 {
				cfg = IntegerConfig()
			}
			base, baseVals := sortedRun(rng, 1500, 10, 3+round)
			baseHas := everyNth(len(base), 4, 0)
			run, runVals := sortedRun(rng, 1500, 12, 3+round)
			for i := 0; i < len(run); i += 2 {
				run[i] = base[rng.Intn(len(base))]
			}
			run, runVals = dedupSorted(run, runVals)
			runHas := everyNth(len(run), 3, round%3)
			bulk, ref := New(cfg), New(cfg)
			putRun(bulk, base, baseVals, baseHas)
			putRun(ref, base, baseVals, baseHas)
			bulk.BulkLoadMixed(run, runVals, runHas)
			putRun(ref, run, runVals, runHas)
			checkEqualWithPresence(t, bulk, ref)
		}
	})
	t.Run("valued-kept", func(t *testing.T) {
		tr := New(DefaultConfig())
		ks := [][]byte{{}, []byte("a"), []byte("ab"), []byte("abc"), []byte("abcd"), []byte("abcdefghij")}
		for i, k := range ks {
			tr.Put(k, uint64(i+1))
		}
		tr.BulkLoadMixed(ks, make([]uint64, len(ks)), make([]bool, len(ks)))
		for i, k := range ks {
			if v, ok := tr.Get(k); !ok || v != uint64(i+1) {
				t.Fatalf("bare key merged over %q: Get = %d,%v, want %d,true", k, v, ok, i+1)
			}
		}
		if tr.Len() != int64(len(ks)) {
			t.Fatalf("Len = %d, want %d", tr.Len(), len(ks))
		}
	})
	t.Run("ejections", func(t *testing.T) {
		// Two keys below each S-Node make embedded children; the run then
		// grows them past the embedded limit.
		var base, run [][]byte
		for p := 0; p < 64; p++ {
			base = append(base, []byte{'e', byte(p), 'q', 'r'}, []byte{'e', byte(p), 'q', 's'})
			for j := 0; j < 40; j++ {
				run = append(run, []byte{'e', byte(p), 'q', byte('a' + j), 'z', byte(j)})
			}
		}
		vals := make([]uint64, len(run))
		for i := range vals {
			vals[i] = uint64(i)
		}
		run, vals = dedupSorted(run, vals)
		baseVals := make([]uint64, len(base))
		baseHas, runHas := everyNth(len(base), 2, 0), everyNth(len(run), 3, 0)
		bulk, ref := New(DefaultConfig()), New(DefaultConfig())
		putRun(bulk, base, baseVals, baseHas)
		putRun(ref, base, baseVals, baseHas)
		before := bulk.Stats().Ejections
		bulk.BulkLoadMixed(run, vals, runHas)
		putRun(ref, run, vals, runHas)
		checkEqualWithPresence(t, bulk, ref)
		if bulk.Stats().Ejections == before {
			t.Fatalf("run did not eject an embedded container")
		}
	})
	t.Run("splits", func(t *testing.T) {
		const n = 200_000
		ks := make([][]byte, n)
		vs := make([]uint64, n)
		blob := make([]byte, n*keys.Uint64Size)
		for i := range ks {
			ks[i] = blob[i*keys.Uint64Size : (i+1)*keys.Uint64Size]
			keys.PutUint64(ks[i], uint64(i)*7)
			vs[i] = uint64(i)
		}
		// Every other key first, key by key, so the second run merges into
		// containers that must split.
		var lo, hi [][]byte
		var loV, hiV []uint64
		for i := range ks {
			if i%2 == 0 {
				lo, loV = append(lo, ks[i]), append(loV, vs[i])
			} else {
				hi, hiV = append(hi, ks[i]), append(hiV, vs[i])
			}
		}
		loHas, hiHas := everyNth(len(lo), 5, 2), everyNth(len(hi), 7, 3)
		cfg := IntegerConfig()
		bulk, ref := New(cfg), New(cfg)
		putRun(bulk, lo, loV, loHas)
		putRun(ref, lo, loV, loHas)
		before := bulk.Stats().Splits
		bulk.BulkLoadMixed(hi, hiV, hiHas)
		putRun(ref, hi, hiV, hiHas)
		checkEqualWithPresence(t, bulk, ref)
		if bulk.Stats().Splits == before {
			t.Fatalf("run did not split a container")
		}
	})
}
