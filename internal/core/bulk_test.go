package core

import (
	"bytes"
	"fmt"
	"math"
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

// ngramRun generates n distinct n-gram-shaped keys ("w1 w2\t1987": one to
// five words of a Zipf-ranked vocabulary, a tab, a year) in sorted order, so
// neighbouring keys share long prefixes the way the n-gram corpus does.
func ngramRun(rng *rand.Rand, n int) ([][]byte, []uint64) {
	vocab := []string{"the", "of", "and", "to", "in", "a", "is", "that", "for", "it"}
	syl := []string{"ba", "ce", "di", "fo", "gu", "la", "me", "ni", "po", "ru", "st", "tr"}
	for len(vocab) < 300 {
		w := ""
		for s := 2 + rng.Intn(3); s > 0; s-- {
			w += syl[rng.Intn(len(syl))]
		}
		vocab = append(vocab, w)
	}
	seen := make(map[string]bool, n)
	out := make([][]byte, 0, n)
	for len(out) < n {
		var k []byte
		for w := 1 + rng.Intn(5); w > 0; w-- {
			if len(k) > 0 {
				k = append(k, ' ')
			}
			// P(rank) ~ 1/(rank+1): the inverse of the harmonic CDF.
			rank := int(math.Pow(float64(len(vocab)+1), rng.Float64())) - 1
			k = append(k, vocab[min(max(rank, 0), len(vocab)-1)]...)
		}
		k = append(k, '\t')
		k = fmt.Appendf(k, "%d", 1800+rng.Intn(220))
		if !seen[string(k)] {
			seen[string(k)] = true
			out = append(out, k)
		}
	}
	sort.Slice(out, func(a, b int) bool { return bytes.Compare(out[a], out[b]) < 0 })
	vals := make([]uint64, n)
	for i := range vals {
		vals[i] = rng.Uint64()
	}
	return out, vals
}

// loadChunked bulk-loads the sorted run in consecutive chunks of size, the
// way an MLOAD stream of sorted lines arrives.
func loadChunked(tr *Tree, ks [][]byte, vs []uint64, size int) {
	for lo := 0; lo < len(ks); lo += size {
		hi := min(lo+size, len(ks))
		tr.BulkLoad(ks[lo:hi], vs[lo:hi])
	}
}

// childOf returns the child kind of the S-Node (k0, k1) in tr's root
// container, the embedded child's size when it is embedded, and whether the
// root part holding k0 is a chain part.
func childOf(t *testing.T, tr *Tree, k0, k1 byte) (kind, size int, chained bool) {
	t.Helper()
	slot := tr.rootSlot(k0)
	buf := slot.resolve(tr)
	reg := topRegion(buf)
	ts := scanT(buf, reg, k0, false)
	if !ts.found {
		t.Fatalf("no T-Node %#x", k0)
	}
	ss := scanS(buf, reg, ts.pos, k1)
	if !ss.found {
		t.Fatalf("no S-Node %#x %#x", k0, k1)
	}
	hdr := buf[ss.pos]
	if kind = sChildKind(hdr); kind == childEmbedded {
		size = embSize(buf, ss.pos+sNodeChildOffset(hdr))
	}
	return kind, size, slot.isChained()
}

// TestBulkLoadChunkedMatchesPerKey loads n-gram runs in sorted chunks, so
// every chunk boundary leaves a sub-run to merge below the children the
// previous chunk built (embedded ones included), and requires the tree a
// per-key load leaves, under every configuration.
func TestBulkLoadChunkedMatchesPerKey(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	ks, vs := ngramRun(rng, 6000)
	for name, cfg := range testConfigs() {
		ref := New(cfg)
		for i := range ks {
			ref.Put(ks[i], vs[i])
		}
		for _, size := range []int{1, 2, 7, 100, 1000} {
			t.Run(fmt.Sprintf("%s/chunk%d", name, size), func(t *testing.T) {
				tr := New(cfg)
				loadChunked(tr, ks, vs, size)
				checkEqualTrees(t, tr, ref)
			})
		}
	}

	// The embedded child below "ab" holds two bare one-byte suffixes, a few
	// bytes smaller than the HP that replaces it, so the eject grows the
	// parent before the sub-run merges.
	t.Run("tiny-child", func(t *testing.T) {
		for _, cfg := range []Config{DefaultConfig(), IntegerConfig()} {
			tr, ref := New(cfg), New(cfg)
			for _, k := range []string{"aa", "ab\x01", "ab\x02", "ac"} {
				tr.PutKey([]byte(k))
				ref.PutKey([]byte(k))
			}
			if kind, size, _ := childOf(t, tr, 'a', 'b'); kind != childEmbedded || size >= hpSize {
				t.Fatalf("child below ab: kind %d size %d, want embedded below %d bytes", kind, size, hpSize)
			}
			var run [][]byte
			for i := 0; i < 40; i++ {
				run = append(run, fmt.Appendf(nil, "ab\x03suffix%02d", i))
			}
			vals := make([]uint64, len(run))
			for i := range vals {
				vals[i] = uint64(i)
				ref.Put(run[i], vals[i])
			}
			before := tr.Stats().Ejections
			tr.BulkLoad(run, vals)
			checkEqualWithPresence(t, tr, ref)
			if kind, _, _ := childOf(t, tr, 'a', 'b'); kind != childHP || tr.Stats().Ejections != before+1 {
				t.Fatalf("child below ab: kind %d after %d ejections, want one eject to an HP", kind, tr.Stats().Ejections-before)
			}
		}
	})

	// A bulk-built root beyond SplitBaseSize is a chained extended bin; the
	// children in its first 16 KiB are embedded, so the part for T keys
	// 32..63 holds embedded children and the sub-runs eject and merge
	// inside that chain part.
	t.Run("chained-parent", func(t *testing.T) {
		cfg := DefaultConfig()
		var base, run [][]byte
		for k0 := 0; k0 < 256; k0++ {
			for k1 := 0; k1 < 8; k1++ {
				base = append(base, []byte{byte(k0), byte(k1), 'x'}, []byte{byte(k0), byte(k1), 'y'})
			}
			if k0 >= 32 && k0 < 64 {
				for i := 0; i < 30; i++ {
					run = append(run, []byte{byte(k0), 5, 'z', byte(i), 'q', 'q'})
				}
			}
		}
		baseVals := make([]uint64, len(base))
		tr, ref := New(cfg), New(cfg)
		for i, k := range base {
			baseVals[i] = uint64(i)
			ref.Put(k, baseVals[i])
		}
		tr.BulkLoad(base, baseVals)
		if kind, _, chained := childOf(t, tr, 40, 5); kind != childEmbedded || !chained {
			t.Fatalf("child below 40/5: kind %d chained %v, want embedded in a chain part", kind, chained)
		}
		vals := make([]uint64, len(run))
		for i := range vals {
			vals[i] = uint64(i) << 8
			ref.Put(run[i], vals[i])
		}
		loadChunked(tr, run, vals, 100)
		checkEqualTrees(t, tr, ref)
		if kind, _, _ := childOf(t, tr, 40, 5); kind != childHP {
			t.Fatalf("child below 40/5: kind %d, want ejected to an HP", kind)
		}
	})

	// A sub-run that fits keeps the child embedded.
	t.Run("fits-stays-embedded", func(t *testing.T) {
		tr, ref := New(DefaultConfig()), New(DefaultConfig())
		for i, k := range []string{"aa", "abc", "abd", "ac"} {
			tr.Put([]byte(k), uint64(i))
			ref.Put([]byte(k), uint64(i))
		}
		run := [][]byte{[]byte("abe"), []byte("abf"), []byte("abg")}
		vals := []uint64{7, 8, 9}
		for i := range run {
			ref.Put(run[i], vals[i])
		}
		before := tr.Stats().Ejections
		tr.BulkLoad(run, vals)
		checkEqualTrees(t, tr, ref)
		if kind, _, _ := childOf(t, tr, 'a', 'b'); kind != childEmbedded || tr.Stats().Ejections != before {
			t.Fatalf("child below ab: kind %d after %d ejections, want still embedded", kind, tr.Stats().Ejections-before)
		}
	})
}

// TestBulkLoadChunkedFootprint pins the space of a chunked load: 1 000-key
// sorted chunks must end within 2 % of one BulkLoad of the same keys. The
// run is large because most of what remains is the allocator's bin
// granularity, a near-constant that a small run would magnify.
func TestBulkLoadChunkedFootprint(t *testing.T) {
	rng := rand.New(rand.NewSource(44))
	ks, vs := ngramRun(rng, 400_000)
	one := New(DefaultConfig())
	one.BulkLoad(ks, vs)
	chunked := New(DefaultConfig())
	loadChunked(chunked, ks, vs, 1000)
	checkEqualTrees(t, chunked, one)
	a, b := one.MemoryFootprint(), chunked.MemoryFootprint()
	t.Logf("footprint: one load %d B, 1 000-key chunks %d B (%+.1f%%)", a, b, 100*float64(b-a)/float64(a))
	if float64(b) > 1.02*float64(a) {
		t.Fatalf("chunked footprint %d B is more than 2%% above one load's %d B", b, a)
	}
}

// FuzzBulkLoadChunks decodes a blob into sorted unique keys (valued or bare)
// and chunk cuts, loads the keys chunk by chunk and checks the tree against
// a map model. Each record is [shared, len|cut<<7, bytes...]: the key is the
// first shared bytes of the previous record's key followed by len new bytes,
// so keys share prefixes of every length.
func FuzzBulkLoadChunks(f *testing.F) {
	f.Add(byte(0), []byte("\x00\x03abc\x02\x83dxy\x03\x02zz\x00\x81q"))
	f.Add(byte(3), []byte("\x00\x04\x00\x01\x02\x03\x03\x01\x04\x03\x01\x05\x03\x81\x06\x02\x02ab"))
	f.Add(byte(1), bytes.Repeat([]byte("\x05\x86tail!!"), 40))
	f.Fuzz(func(t *testing.T, cfgSel byte, blob []byte) {
		if len(blob) > 8192 {
			t.Skip()
		}
		cfgs := []Config{DefaultConfig(), IntegerConfig(), MinimalConfig(), testConfigs()["split-aggressive"], testConfigs()["embedded-aggressive"]}
		cfg := cfgs[int(cfgSel)%len(cfgs)]

		var prev []byte
		cutAfter := map[string]bool{}
		set := map[string]bool{}
		for p := 0; p+1 < len(blob); {
			shared, l := int(blob[p]), int(blob[p+1]&0x7f)
			cut := blob[p+1]&0x80 != 0
			p += 2
			l = min(l, len(blob)-p)
			k := append(append([]byte(nil), prev[:min(shared, len(prev))]...), blob[p:p+l]...)
			p += l
			set[string(k)] = true
			cutAfter[string(k)] = cutAfter[string(k)] || cut
			prev = k
		}
		type entry struct {
			val uint64
			has bool
		}
		model := make(map[string]entry, len(set))
		keys := make([][]byte, 0, len(set))
		for k := range set {
			h := uint64(len(k))
			for _, c := range []byte(k) {
				h = h*0x9e3779b97f4a7c15 + uint64(c)
			}
			model[k] = entry{h, len(k)%3 != 1}
			keys = append(keys, []byte(k))
		}
		sort.Slice(keys, func(a, b int) bool { return bytes.Compare(keys[a], keys[b]) < 0 })
		vals := make([]uint64, len(keys))
		hasv := make([]bool, len(keys))
		for i, k := range keys {
			vals[i], hasv[i] = model[string(k)].val, model[string(k)].has
		}

		tr := New(cfg)
		lo := 0
		for i, k := range keys {
			if cutAfter[string(k)] || i == len(keys)-1 {
				tr.BulkLoadMixed(keys[lo:i+1], vals[lo:i+1], hasv[lo:i+1])
				if err := tr.CheckInvariants(); err != nil {
					t.Fatalf("after chunk [%d,%d]: %v", lo, i, err)
				}
				lo = i + 1
			}
		}
		if tr.Len() != int64(len(keys)) {
			t.Fatalf("Len = %d, want %d", tr.Len(), len(keys))
		}
		var prevKey []byte
		n := 0
		tr.Each(func(key []byte, value uint64, hasValue bool) bool {
			want, ok := model[string(key)]
			if !ok || (n > 0 && bytes.Compare(prevKey, key) >= 0) {
				t.Fatalf("Each emitted %q after %q: not in the model or out of order", key, prevKey)
			}
			if hasValue != want.has || (hasValue && value != want.val) {
				t.Fatalf("key %q = %d,%v; model %d,%v", key, value, hasValue, want.val, want.has)
			}
			prevKey = append(prevKey[:0], key...)
			n++
			return true
		})
		if n != len(model) {
			t.Fatalf("Each visited %d keys, model has %d", n, len(model))
		}
		for k, want := range model {
			v, hv, ok := tr.Find([]byte(k))
			if !ok || hv != want.has || (hv && v != want.val) {
				t.Fatalf("Find(%q) = %d,%v,%v; model %d,%v", k, v, hv, ok, want.val, want.has)
			}
		}
	})
}
