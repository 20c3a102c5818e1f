package core

import (
	"bytes"
	"fmt"
	"math/rand"
	"slices"
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

// countTree is a tree and its stored keys, sorted.
type countTree struct {
	tree *Tree
	keys []string
}

// countTrees builds, for every key family Count must handle, the same sorted
// key set twice: once by BulkLoad and once by Put in shuffled order. Strings
// carry PC and embedded children, sequential integers chained and split
// containers, random integers jump tables, and the edge family keys made of
// 0x00, 0x01, 0xfe and 0xff (the empty key, all-0xff keys without a prefix
// successor, and deep embedded nesting).
func countTrees(cfg Config, rng *rand.Rand) map[string]countTree {
	edge := make([][]byte, 600)
	for i := range edge {
		k := make([]byte, rng.Intn(7))
		for j := range k {
			k[j] = []byte{0x00, 0x01, 0xfe, 0xff}[rng.Intn(4)]
		}
		edge[i] = k
	}
	families := map[string][][]byte{
		"strings":  randomStringKeys(rng, 2500, 30),
		"seq-ints": sequentialIntKeys(10000),
		"ints":     randomIntKeys(rng, 3000),
		"edge":     edge,
	}
	out := map[string]countTree{}
	for name, raw := range families {
		set := map[string]bool{}
		for _, k := range raw {
			set[string(k)] = true
		}
		sorted := make([]string, 0, len(set))
		for k := range set {
			sorted = append(sorted, k)
		}
		sort.Strings(sorted)
		bk := make([][]byte, len(sorted))
		vals := make([]uint64, len(sorted))
		for i, k := range sorted {
			bk[i] = []byte(k)
			vals[i] = uint64(i)
		}
		bulk := New(cfg)
		bulk.BulkLoad(bk, vals)
		put := New(cfg)
		for _, i := range rng.Perm(len(bk)) {
			put.Put(bk[i], vals[i])
		}
		out[name+"/bulk"] = countTree{bulk, sorted}
		out[name+"/put"] = countTree{put, sorted}
	}
	return out
}

// countBound derives a random Count upper bound: nil (unbounded), or a
// stored key cut at a random length — inside PC suffixes and embedded
// payloads — and possibly bumped at its last byte or extended.
func countBound(rng *rand.Rand, keys []string) []byte {
	if rng.Intn(8) == 0 {
		return nil
	}
	k := []byte(keys[rng.Intn(len(keys))])
	end := append([]byte{}, k[:rng.Intn(len(k)+1)]...)
	switch rng.Intn(4) {
	case 0:
		if len(end) > 0 && end[len(end)-1] != 0xff {
			end[len(end)-1]++
		}
	case 1:
		end = append(end, byte(rng.Intn(256)))
	}
	return end
}

// checkCountRounds counts [start, end) of tree in rounds of at least limit
// keys and checks every round against the model — the sorted stored keys —
// and against ref, the Next stream over the same bounds. Between rounds the
// cursor is, at random, either continued where Count parked it or (one round
// in 32, since a seek can cost a linear container scan in the configurations
// without jump tables) re-Sought to the returned resume key: the two routes
// of the hyperion layer's continuation.
func checkCountRounds(t *testing.T, rng *rand.Rand, tree *Tree, model []string, ref []string, start, end []byte, limit int) {
	t.Helper()
	c := NewCursor(tree)
	c.Seek(start)
	lo := sort.SearchStrings(model, string(start)) // model index of the next uncounted key
	total := 0
	var resume []byte
	for round := 0; ; round++ {
		if round > len(model)+2 {
			t.Fatalf("[%q, %q) limit %d: no end after %d rounds", start, end, limit, round)
		}
		n, res, full, reachedEnd := c.Count(end, limit, resume)
		resume = res
		total += n
		if total > len(ref) {
			t.Fatalf("[%q, %q) limit %d: counted %d keys, Next emits %d", start, end, limit, total, len(ref))
		}
		lo += n
		if !full {
			if total != len(ref) {
				t.Fatalf("[%q, %q) limit %d: counted %d keys, Next emits %d", start, end, limit, total, len(ref))
			}
			wantEnd := end != nil && lo < len(model)
			if reachedEnd != wantEnd {
				t.Fatalf("[%q, %q) limit %d: reachedEnd %v, want %v", start, end, limit, reachedEnd, wantEnd)
			}
			return
		}
		if reachedEnd {
			t.Fatalf("[%q, %q) limit %d: full round reports reachedEnd", start, end, limit)
		}
		if n < limit {
			t.Fatalf("[%q, %q) limit %d: full round counted only %d", start, end, limit, n)
		}
		// The round counted exactly the Next stream's keys up to resume.
		if got := sort.SearchStrings(ref, string(resume)); got != total {
			t.Fatalf("[%q, %q) limit %d round %d: %d keys below resume %q, counted %d", start, end, limit, round, got, resume, total)
		}
		if total > 0 && ref[total-1] >= string(resume) {
			t.Fatalf("resume %q not above counted key %q", resume, ref[total-1])
		}
		if lo < len(model) && string(resume) > model[lo] {
			t.Fatalf("resume %q above the next uncounted key %q", resume, model[lo])
		}
		if rng.Intn(32) == 0 {
			c.Seek(resume)
		}
	}
}

// TestCursorCountMatchesNext is Count's differential against Next, per round
// and in total, over every configuration, both build paths and random bounds,
// for the round sizes the hyperion layer and the edge cases use, continuing
// the parked cursor or re-seeking the resume key between rounds.
func TestCursorCountMatchesNext(t *testing.T) {
	rng := rand.New(rand.NewSource(91))
	chained := 0
	for cfgName, cfg := range testConfigs() {
		trees := countTrees(cfg, rng)
		for name, tc := range trees {
			chained += int(tc.tree.Stats().Splits)
			t.Run(cfgName+"/"+name, func(t *testing.T) {
				tc.tree.Put(nil, 1) // the empty key, counted first from a nil start
				model := append([]string{""}, tc.keys...)
				if tc.keys[0] == "" {
					model = tc.keys
				}
				for trial := 0; trial < 10; trial++ {
					var start []byte
					if trial%5 != 0 {
						start = seekPoint(rng, [][]byte{[]byte(model[1+rng.Intn(len(model)-1)])})
					}
					end := countBound(rng, model[1:])
					var ref []string
					c := NewCursor(tc.tree)
					c.Seek(start)
					for {
						k, _, _, ok := c.Next()
						if !ok || (end != nil && bytes.Compare(k, end) >= 0) {
							break
						}
						ref = append(ref, string(k))
					}
					lo := sort.SearchStrings(model, string(start))
					hi := len(model)
					if end != nil {
						hi = max(lo, sort.SearchStrings(model, string(end)))
					}
					if !slices.Equal(ref, model[lo:hi]) {
						t.Fatalf("[%q, %q): Next emits %d keys, model holds %d", start, end, len(ref), hi-lo)
					}
					for _, limit := range []int{1, 2, 3, 64} {
						checkCountRounds(t, rng, tc.tree, model, ref, start, end, limit)
					}
				}
			})
		}
	}
	if chained == 0 {
		t.Fatal("no tree holds a split (chained) container")
	}
}

// FuzzCursorCount is FuzzCursorSeek's twin for Count: random key populations
// and [start, end) bounds, counted in rounds of 1..64 keys, each round
// checked against the Next stream and the sorted model (checkCountRounds).
// An empty end means unbounded.
func FuzzCursorCount(f *testing.F) {
	f.Add([]byte("apple\x00apricot\x00banana\x00band\x00bandana"), []byte("b"), []byte("band"), uint8(1))
	f.Add([]byte{0, 0, 1, 0xff, 0xfe, 0x41, 0, 0xff, 0xff}, []byte{}, []byte{0xff}, uint8(2))
	f.Add([]byte("the quick brown fox jumps over the lazy dog"), []byte(""), []byte("the r"), uint8(63))
	f.Fuzz(func(t *testing.T, blob, start, end []byte, limit uint8) {
		if len(blob) > 4096 || len(start) > 64 || len(end) > 64 {
			t.Skip()
		}
		tree := New(DefaultConfig())
		set := map[string]bool{}
		for i, k := range bytes.Split(blob, []byte{0}) {
			if len(k) > 0 {
				tree.Put(k, uint64(i))
				set[string(k)] = true
			}
		}
		if len(end) == 0 {
			end = nil
		}
		model := make([]string, 0, len(set))
		for k := range set {
			model = append(model, k)
		}
		sort.Strings(model)
		var ref []string
		for _, k := range model {
			if k >= string(start) && (end == nil || k < string(end)) {
				ref = append(ref, k)
			}
		}
		rng := rand.New(rand.NewSource(int64(limit)))
		checkCountRounds(t, rng, tree, model, ref, start, end, 1+int(limit)%64)
	})
}

// FuzzCountStream feeds arbitrary bytes to the one-pass embedded counter as
// a node stream. It must end or panic — never hang or recurse without bound
// — and when it ends without meeting an HP child it agrees with the frame
// walk of Next over the same bytes, wherever that walk ends too.
func FuzzCountStream(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0x0b, 'a', 1, 2, 3, 4, 5, 6, 7, 8, 0x0f, 'b', 8, 7, 6, 5, 4, 3, 2, 1})
	f.Add(bytes.Repeat([]byte{0x85, 'a', 0xff}, 200)) // nesting beyond the cap
	f.Add([]byte{0x02, 'a', 0x86, 'b', 5, 0x02, 'c', 0x06, 'd', 0xc6, 'e', 0x02, 'x', 'y'})
	f.Fuzz(func(t *testing.T, data []byte) {
		var n int
		var ok bool
		if panicked(func() { n, ok = countStream(data, 0, len(data), 0) }) || !ok {
			return
		}
		c := NewCursor(New(DefaultConfig()))
		c.pushFrame(data, region{0, len(data)}, 0, false)
		want := 0
		if panicked(func() {
			for {
				if _, _, _, more := c.Next(); !more {
					return
				}
				want++
			}
		}) {
			return
		}
		if n != want {
			t.Fatalf("countStream = %d, Next walks %d keys", n, want)
		}
	})
}

// panicked runs f and reports whether it panicked.
func panicked(f func()) (p bool) {
	defer func() { p = recover() != nil }()
	f()
	return false
}

// TestCountStreamNestingBound pins the torn-read guard of the one-pass
// count: embedded containers nested beyond countMaxNesting panic with the
// bound's message instead of recursing on.
func TestCountStreamNestingBound(t *testing.T) {
	// An inner S-Node (explicit key) whose embedded child starts with the
	// next such S-Node, 200 deep.
	data := bytes.Repeat([]byte{0x85, 'a', 0xff}, 200)
	defer func() {
		if r := recover(); r != "core: embedded nesting bound exceeded (torn optimistic read)" {
			t.Fatalf("recovered %v, want the nesting bound panic", r)
		}
	}()
	countStream(data, 0, len(data), 0)
	t.Fatal("countStream returned on a 200-deep nesting")
}
