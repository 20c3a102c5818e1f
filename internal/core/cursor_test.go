package core

import (
	"bytes"
	"fmt"
	"math/rand"
	"sort"
	"testing"
)

// pair is one collected emission.
type pair struct {
	key      string
	value    uint64
	hasValue bool
}

func collectLinear(t *Tree, start []byte) []pair {
	var out []pair
	t.RangeLinear(start, func(k []byte, v uint64, hv bool) bool {
		out = append(out, pair{string(k), v, hv})
		return true
	})
	return out
}

func collectCursor(t *Tree, start []byte) []pair {
	c := NewCursor(t)
	c.Seek(start)
	var out []pair
	for {
		k, v, hv, ok := c.Next()
		if !ok {
			return out
		}
		out = append(out, pair{string(k), v, hv})
	}
}

func comparePairs(t *testing.T, what string, got, want []pair) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d pairs, want %d", what, len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("%s: pair %d = %+v, want %+v", what, i, got[i], want[i])
		}
	}
}

// buildMixedTree loads keys with a mix of Put and PutKey (set members) so the
// hasValue column is exercised, plus the empty key.
func buildMixedTree(cfg Config, keys [][]byte, seed int64) *Tree {
	tree := New(cfg)
	rng := rand.New(rand.NewSource(seed))
	tree.Put(nil, 999)
	for i, k := range keys {
		if rng.Intn(4) == 0 {
			tree.PutKey(k)
		} else {
			tree.Put(k, uint64(i+1))
		}
	}
	return tree
}

// cursorDatasets returns the key shapes the differential tests sweep:
// variable-length strings (PC nodes, embedded containers), prefix-heavy
// strings (deep embedded nesting), random and sequential integers (chained
// split bins, jump tables) and dense short keys (container splits).
func cursorDatasets(rng *rand.Rand) map[string][][]byte {
	return map[string][][]byte{
		"strings":  randomStringKeys(rng, 3000, 40),
		"prefixes": prefixHeavyKeys(rng, 3000),
		"ints":     randomIntKeys(rng, 4000),
		"seq-ints": sequentialIntKeys(4000),
		"dense":    denseShortKeys(6000),
	}
}

// TestCursorDifferentialFull pins the tentpole contract: the cursor's
// Seek(nil)+Next stream is byte-identical (keys, values, hasValue flags) to
// the linear reference walk across every configuration (arenas of the
// hyperion layer are covered by that package's tests; here the sweep is
// feature flags: chained/extended bins, PC, embedded, jump structures).
func TestCursorDifferentialFull(t *testing.T) {
	rng := rand.New(rand.NewSource(71))
	sets := cursorDatasets(rng)
	for cfgName, cfg := range testConfigs() {
		for setName, keys := range sets {
			t.Run(cfgName+"/"+setName, func(t *testing.T) {
				tree := buildMixedTree(cfg, keys, 72)
				want := collectLinear(tree, nil)
				got := collectCursor(tree, nil)
				comparePairs(t, "full scan", got, want)
				if len(want) == 0 {
					t.Fatal("differential test loaded no keys")
				}
			})
		}
	}
}

// TestCursorDifferentialSeek compares cursor streams from randomized seek
// points — stored keys, mutated keys, truncations and extensions — against
// RangeLinear with the same bound.
func TestCursorDifferentialSeek(t *testing.T) {
	rng := rand.New(rand.NewSource(73))
	sets := cursorDatasets(rng)
	for cfgName, cfg := range testConfigs() {
		for setName, keys := range sets {
			t.Run(cfgName+"/"+setName, func(t *testing.T) {
				tree := buildMixedTree(cfg, keys, 74)
				c := NewCursor(tree)
				for trial := 0; trial < 60; trial++ {
					start := seekPoint(rng, keys)
					want := collectLinear(tree, start)
					c.Seek(start)
					var got []pair
					for {
						k, v, hv, ok := c.Next()
						if !ok {
							break
						}
						got = append(got, pair{string(k), v, hv})
					}
					comparePairs(t, fmt.Sprintf("seek %q", start), got, want)
				}
			})
		}
	}
}

// seekPoint derives a randomized lower bound from the stored key population.
func seekPoint(rng *rand.Rand, keys [][]byte) []byte {
	k := keys[rng.Intn(len(keys))]
	start := append([]byte(nil), k...)
	switch rng.Intn(6) {
	case 0: // exact stored key
	case 1: // truncation
		if len(start) > 1 {
			start = start[:1+rng.Intn(len(start)-1)]
		}
	case 2: // extension
		start = append(start, byte(rng.Intn(256)))
	case 3: // point mutation
		if len(start) > 0 {
			start[rng.Intn(len(start))] ^= byte(1 + rng.Intn(255))
		}
	case 4: // random short key
		start = start[:0]
		for n := 1 + rng.Intn(4); n > 0; n-- {
			start = append(start, byte(rng.Intn(256)))
		}
	case 5: // successor of a stored key
		start = append(start, 0)
	}
	if len(start) == 0 {
		start = []byte{byte(rng.Intn(256))}
	}
	return start
}

// TestCursorRangeWrapper pins that Tree.Range (the cursor-backed wrapper)
// matches the linear reference for bounded scans, including early stop.
func TestCursorRangeWrapper(t *testing.T) {
	rng := rand.New(rand.NewSource(75))
	tree := buildMixedTree(DefaultConfig(), prefixHeavyKeys(rng, 2500), 76)
	for trial := 0; trial < 40; trial++ {
		start := seekPoint(rng, prefixHeavyKeys(rng, 50))
		var got []pair
		tree.Range(start, func(k []byte, v uint64, hv bool) bool {
			got = append(got, pair{string(k), v, hv})
			return len(got) < 100
		})
		want := collectLinear(tree, start)
		if len(want) > 100 {
			want = want[:100]
		}
		comparePairs(t, fmt.Sprintf("Range %q", start), got, want)
	}
}

// TestCursorSeekPastEnd pins the bounded-work satellite: a seek beyond every
// stored key must report exhaustion without decoding the container streams to
// their ends — O(depth × jump-probe), not O(keys).
func TestCursorSeekPastEnd(t *testing.T) {
	for name, keys := range map[string][][]byte{
		"seq-ints": sequentialIntKeys(50000),
		"dense":    denseShortKeys(50000),
	} {
		t.Run(name, func(t *testing.T) {
			tree := New(DefaultConfig())
			for i, k := range keys {
				tree.Put(k, uint64(i))
			}
			c := NewCursor(tree)
			c.Seek(bytes.Repeat([]byte{0xff}, 16))
			if _, _, _, ok := c.Next(); ok {
				t.Fatal("seek past every key emitted a pair")
			}
			// The linear walk would decode hundreds of thousands of headers;
			// the seek is allowed a container-jump-table probe plus a short
			// tail scan per level.
			const probeBudget = 2000
			if p := c.Probes(); p > probeBudget {
				t.Fatalf("seek past end probed %d nodes, budget %d (linear work leaked into Seek)", p, probeBudget)
			}
		})
	}
}

// TestCursorSeekProbesBounded asserts the same bound for in-range seeks: a
// cursor re-seek (the chunk-resume shape) must not degrade to a linear scan.
func TestCursorSeekProbesBounded(t *testing.T) {
	tree := New(DefaultConfig())
	keys := sequentialIntKeys(100000)
	for i, k := range keys {
		tree.Put(k, uint64(i))
	}
	c := NewCursor(tree)
	rng := rand.New(rand.NewSource(77))
	var worst int64
	for trial := 0; trial < 200; trial++ {
		c.Seek(keys[rng.Intn(len(keys))])
		if _, _, _, ok := c.Next(); !ok {
			t.Fatal("seek at a stored key found nothing")
		}
		if p := c.Probes(); p > worst {
			worst = p
		}
	}
	// Worst observed in practice is well under 300 (jump-table gaps); 3000
	// leaves headroom while still catching an O(position) regression, which
	// would probe tens of thousands of nodes from mid-tree positions.
	if worst > 3000 {
		t.Fatalf("worst in-range seek probed %d nodes", worst)
	}
}

// TestCursorPrefix pins the prefix-scan shape the hyperion layer runs — Seek
// to the prefix, stop at the first key without it — against a filtered
// linear walk.
func TestCursorPrefix(t *testing.T) {
	rng := rand.New(rand.NewSource(79))
	tree := buildMixedTree(DefaultConfig(), prefixHeavyKeys(rng, 3000), 80)
	c := NewCursor(tree)
	prefixes := [][]byte{
		nil, {}, []byte("user:"), []byte("user:profile:"), []byte("metrics/"),
		[]byte("www.example.com/000"), []byte("zzz"), []byte("u"), []byte("\xff\xff"),
	}
	for _, p := range prefixes {
		var want []pair
		tree.RangeLinear(p, func(k []byte, v uint64, hv bool) bool {
			if !bytes.HasPrefix(k, p) {
				return false
			}
			want = append(want, pair{string(k), v, hv})
			return true
		})
		c.Seek(p)
		var got []pair
		for {
			k, v, hv, ok := c.Next()
			if !ok || !bytes.HasPrefix(k, p) {
				break
			}
			got = append(got, pair{string(k), v, hv})
		}
		comparePairs(t, fmt.Sprintf("prefix %q", p), got, want)
	}
}

// TestCursorCallbackAppend is the regression test for the shared-buffer
// satellite: a callback that appends to the key slice it received must not
// corrupt subsequent emissions, for the cursor-backed Range AND the retained
// linear reference walk.
func TestCursorCallbackAppend(t *testing.T) {
	rng := rand.New(rand.NewSource(81))
	keys := prefixHeavyKeys(rng, 1200)
	tree := buildMixedTree(DefaultConfig(), keys, 82)
	want := collectLinear(tree, nil)
	for name, iterate := range map[string]func(fn func([]byte, uint64, bool) bool){
		"Range":       func(fn func([]byte, uint64, bool) bool) { tree.Range(nil, fn) },
		"RangeLinear": func(fn func([]byte, uint64, bool) bool) { tree.RangeLinear(nil, fn) },
	} {
		var got []pair
		iterate(func(k []byte, v uint64, hv bool) bool {
			got = append(got, pair{string(k), v, hv})
			// Clobber: append garbage to the callback's slice. With an
			// uncapped slice this would overwrite the sibling key bytes the
			// iterator emits next.
			k = append(k, 0xde, 0xad, 0xbe, 0xef)
			_ = k
			return true
		})
		comparePairs(t, name+" with appending callback", got, want)
	}
}

// TestCursorZeroAlloc pins the steady-state allocation contract: Next on a
// warm cursor is allocation-free, and so is a re-Seek + short read (the
// hyperion chunk-resume shape) once the cursor's buffers have grown.
func TestCursorZeroAlloc(t *testing.T) {
	tree := New(IntegerConfig())
	keys := sequentialIntKeys(50000)
	for i, k := range keys {
		tree.Put(k, uint64(i))
	}
	c := NewCursor(tree)
	// Warm: one full pass grows the key buffer and the frame stack.
	c.Seek(nil)
	for {
		if _, _, _, ok := c.Next(); !ok {
			break
		}
	}
	c.Seek(nil)
	if n := testing.AllocsPerRun(5000, func() {
		if _, _, _, ok := c.Next(); !ok {
			c.Seek(nil)
		}
	}); n != 0 {
		t.Errorf("steady-state Next allocates %v allocs/op, want 0", n)
	}
	probe := keys[31337]
	if n := testing.AllocsPerRun(500, func() {
		c.Seek(probe)
		for i := 0; i < 8; i++ {
			if _, _, _, ok := c.Next(); !ok {
				break
			}
		}
	}); n != 0 {
		t.Errorf("steady-state Seek+Next chunk allocates %v allocs/op, want 0", n)
	}
}

// TestCursorInitDropsTree pins what lets an idle cursor sit in a pool:
// Init(nil) keeps the frame stack's capacity but no reference into the
// previous tree — neither the tree nor any frame's stream buffer, including
// the stale frames beyond the stack's length.
func TestCursorInitDropsTree(t *testing.T) {
	tree := New(DefaultConfig())
	rng := rand.New(rand.NewSource(83))
	for i, k := range prefixHeavyKeys(rng, 2000) {
		tree.Put(k, uint64(i))
	}
	c := NewCursor(tree)
	for i := 0; i < 1000; i++ {
		if _, _, _, ok := c.Next(); !ok {
			break
		}
	}
	grown := cap(c.frames)
	c.Init(nil)
	if c.t != nil || cap(c.frames) != grown || grown == 0 {
		t.Fatalf("Init(nil): tree %p, frame capacity %d (was %d)", c.t, cap(c.frames), grown)
	}
	for i, f := range c.frames[:cap(c.frames)] {
		if f.buf != nil {
			t.Fatalf("Init(nil) left frame %d referencing a %d-byte stream", i, len(f.buf))
		}
	}
}

// TestCursorEmptyTree covers the degenerate trees.
func TestCursorEmptyTree(t *testing.T) {
	tree := New(DefaultConfig())
	c := NewCursor(tree)
	c.Seek(nil)
	if _, _, _, ok := c.Next(); ok {
		t.Fatal("empty tree emitted a key")
	}
	tree.Put(nil, 5) // only the empty key
	c.Seek(nil)
	k, v, hv, ok := c.Next()
	if !ok || len(k) != 0 || v != 5 || !hv {
		t.Fatalf("empty-key emission = %q,%d,%v,%v", k, v, hv, ok)
	}
	if _, _, _, ok := c.Next(); ok {
		t.Fatal("second emission from empty-key-only tree")
	}
	c.Seek([]byte{0}) // bound above the empty key
	if _, _, _, ok := c.Next(); ok {
		t.Fatal("bounded seek emitted the empty key")
	}
}

// FuzzCursorSeek feeds random key populations and seek points through the
// cursor and the linear reference walk and requires identical streams.
func FuzzCursorSeek(f *testing.F) {
	f.Add([]byte("apple\x00apricot\x00banana\x00band\x00bandana"), []byte("b"))
	f.Add([]byte{0, 0, 1, 0xff, 0xfe, 0x41}, []byte{0xff})
	f.Add([]byte("the quick brown fox"), []byte(""))
	f.Fuzz(func(t *testing.T, blob, start []byte) {
		if len(blob) > 4096 || len(start) > 64 {
			t.Skip()
		}
		tree := New(DefaultConfig())
		for i, k := range bytes.Split(blob, []byte{0}) {
			if len(k) > 0 {
				tree.Put(k, uint64(i))
			}
		}
		want := collectLinear(tree, start)
		got := collectCursor(tree, start)
		if len(got) != len(want) {
			t.Fatalf("cursor emitted %d pairs, linear %d (start %q)", len(got), len(want), start)
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("pair %d: cursor %+v, linear %+v (start %q)", i, got[i], want[i], start)
			}
		}
	})
}

// TestCursorOrderAgainstSortedOracle double-checks the emission order (not
// just equality with RangeLinear, which could in principle share a bug).
func TestCursorOrderAgainstSortedOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(83))
	keys := randomStringKeys(rng, 4000, 32)
	tree := New(DefaultConfig())
	oracle := map[string]uint64{}
	for i, k := range keys {
		tree.Put(k, uint64(i))
		oracle[string(k)] = uint64(i)
	}
	want := make([]string, 0, len(oracle))
	for k := range oracle {
		want = append(want, k)
	}
	sort.Strings(want)
	c := NewCursor(tree)
	c.Seek(nil)
	for i := 0; ; i++ {
		k, v, hv, ok := c.Next()
		if !ok {
			if i != len(want) {
				t.Fatalf("cursor emitted %d keys, oracle has %d", i, len(want))
			}
			return
		}
		if i >= len(want) || string(k) != want[i] {
			t.Fatalf("emission %d = %q, oracle %q", i, k, want[i])
		}
		if !hv || v != oracle[string(k)] {
			t.Fatalf("emission %q = %d (hasValue=%v), oracle %d", k, v, hv, oracle[string(k)])
		}
	}
}
