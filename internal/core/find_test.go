package core

// Pins the point-lookup decode (table-driven geometry in layout.go, lean
// finders in scan.go) against the forms it replaced: the branch-by-branch
// geometry below is the oracle for the tables and the mask-form sNodeSize,
// and scanT/scanS — the edit-context scans, which share the walk — are the
// oracle for findT/findS.

import (
	"math/rand"
	"runtime"
	"testing"

	"repro/internal/memman"
)

func oracleBodyOffset(hdr byte) int {
	off := 1
	if nodeDelta(hdr) == 0 {
		off++
	}
	if nodeType(hdr) == typeKeyVal {
		off += valueSize
	}
	return off
}

func oracleTHeadSize(hdr byte) int {
	size := oracleBodyOffset(hdr)
	if tHasJS(hdr) {
		size += jsSize
	}
	if tHasJT(hdr) {
		size += tJTSize
	}
	return size
}

func oracleSNodeSize(buf []byte, pos int) int {
	hdr := buf[pos]
	size := oracleBodyOffset(hdr)
	switch sChildKind(hdr) {
	case childHP:
		size += hpSize
	case childEmbedded:
		size += int(buf[pos+size])
	case childPC:
		size += pcSize(buf, pos+size)
	}
	return size
}

// TestGeometryTables: every header byte, tables vs the branchy spec; every
// entry is >= 1 (the termination invariant of the scans).
func TestGeometryTables(t *testing.T) {
	for h := 0; h < 256; h++ {
		hdr := byte(h)
		body, head := oracleBodyOffset(hdr), oracleTHeadSize(hdr)
		if got := tNodeJSOffset(hdr); got != body {
			t.Errorf("tNodeJSOffset(%#02x) = %d, want %d", h, got, body)
		}
		if got := sNodeChildOffset(hdr); got != body {
			t.Errorf("sNodeChildOffset(%#02x) = %d, want %d", h, got, body)
		}
		wantJT := body
		if tHasJS(hdr) {
			wantJT += jsSize
		}
		if got := tNodeJTOffset(hdr); got != wantJT {
			t.Errorf("tNodeJTOffset(%#02x) = %d, want %d", h, got, wantJT)
		}
		if got := tNodeHeadSize(hdr); got != head {
			t.Errorf("tNodeHeadSize(%#02x) = %d, want %d", h, got, head)
		}
		if nodeBodyOffTab[h] < 1 || tHeadSizeTab[h] < 1 {
			t.Errorf("table entry for %#02x is < 1: body %d, head %d", h, nodeBodyOffTab[h], tHeadSizeTab[h])
		}
	}
}

// TestSNodeSizeMaskForm: the mask-form sNodeSize against the switch form for
// every header byte (all four child kinds x value/no value x explicit/delta
// key) and every length byte (embedded sizes, PC suffix lengths with and
// without value), in a buffer that ends exactly where the node's fixed part
// ends — so a childless or HP S-Node at the buffer end must not read past it.
func TestSNodeSizeMaskForm(t *testing.T) {
	for h := 0; h < 256; h++ {
		hdr := byte(h)
		off := oracleBodyOffset(hdr)
		for b := 0; b < 256; b++ {
			fixed := off
			switch sChildKind(hdr) {
			case childHP:
				fixed += hpSize
			case childEmbedded, childPC:
				fixed++ // the length byte must exist
			}
			buf := make([]byte, 3+fixed)
			pos := 3
			buf[pos] = hdr
			for i := pos + 1; i < len(buf); i++ {
				buf[i] = byte(b) // every byte the size could be (mis)read from
			}
			want := oracleSNodeSize(buf, pos)
			got := sNodeSize(buf, pos)
			if got != want {
				t.Fatalf("sNodeSize(hdr %#02x, length byte %#02x) = %d, want %d", h, b, got, want)
			}
			if got < 1 {
				t.Fatalf("sNodeSize(hdr %#02x, length byte %#02x) = %d, want >= 1", h, b, got)
			}
		}
	}
	// A truncated embedded or PC child is still a bounds failure.
	for _, kind := range []int{childEmbedded, childPC} {
		buf := []byte{makeNodeHeader(typeInner, true, 1)}
		setSChildKind(buf, 0, kind)
		if _, idx := runFinder(func() int { return sNodeSize(buf, 0) }); !idx {
			t.Errorf("sNodeSize of a kind-%d S-Node cut before its length byte did not fail the bounds check", kind)
		}
	}
}

// runFinder runs f and reports its result, or that it panicked with a
// runtime index/slice bounds error (any other panic propagates).
func runFinder(f func() int) (pos int, indexPanic bool) {
	defer func() {
		if r := recover(); r != nil {
			if _, ok := r.(runtime.Error); !ok {
				panic(r)
			}
			indexPanic = true
		}
	}()
	return f(), false
}

// forEachStream calls fn for every node stream of the tree — the top-level
// stream of every container (each populated slot of a split one) and every
// embedded container's stream, nested ones included.
func forEachStream(t *Tree, fn func(buf []byte, reg region, top bool)) {
	var walkStream func(buf []byte, reg region, top bool)
	var walkHP func(hp memman.HP)
	walkHP = func(hp memman.HP) {
		if t.alloc.IsChained(hp) {
			for s := 0; s < memman.ChainLen; s++ {
				if buf := t.alloc.ChainedSlot(hp, s); buf != nil {
					walkStream(buf, topRegion(buf), true)
				}
			}
			return
		}
		buf := t.alloc.Resolve(hp)
		walkStream(buf, topRegion(buf), true)
	}
	walkStream = func(buf []byte, reg region, top bool) {
		fn(buf, reg, top)
		for pos := reg.start; pos < reg.end; {
			hdr := buf[pos]
			if nodeType(hdr) == typeInvalid {
				break
			}
			if !nodeIsS(hdr) {
				pos += tNodeHeadSize(hdr)
				continue
			}
			childOff := pos + sNodeChildOffset(hdr)
			switch sChildKind(hdr) {
			case childHP:
				walkHP(memman.GetHP(buf[childOff:]))
			case childEmbedded:
				walkStream(buf, embRegion(buf, childOff), false)
			}
			pos += sNodeSize(buf, pos)
		}
	}
	if !t.rootHP.IsNil() {
		walkHP(t.rootHP)
	}
}

// checkFindersAgree compares findT with scanT for every key byte in one
// stream (with and without the container jump table where there is one), and
// findS with scanS for every key byte below every T-Node found.
func checkFindersAgree(t *testing.T, buf []byte, reg region, top bool) (tNodes int) {
	t.Helper()
	jts := []bool{false}
	if top {
		jts = append(jts, true)
	}
	for _, useJT := range jts {
		for k0 := 0; k0 < 256; k0++ {
			ts := scanT(buf, reg, byte(k0), useJT)
			got := findT(buf, reg, byte(k0), useJT)
			if want := foundPos(ts.found, ts.pos); got != want {
				t.Fatalf("findT(k0=%#02x, jt=%v) in %v = %d, scanT says %d", k0, useJT, reg, got, want)
			}
			if !ts.found || useJT {
				continue
			}
			tNodes++
			for k1 := 0; k1 < 256; k1++ {
				ss := scanS(buf, reg, ts.pos, byte(k1))
				got := findS(buf, reg, ts.pos, byte(k1))
				if want := foundPos(ss.found, ss.pos); got != want {
					t.Fatalf("findS(T@%d, k1=%#02x) in %v = %d, scanS says %d", ts.pos, k1, reg, got, want)
				}
			}
		}
	}
	return tNodes
}

func foundPos(found bool, pos int) int {
	if found {
		return pos
	}
	return -1
}

// findFamilies are tree_test.go's oracle key families at a size that gives
// every stream shape (embedded, ejected, split, jump successors, both jump
// tables) without making the all-bytes sweep slow.
func findFamilies() map[string][][]byte {
	rng := rand.New(rand.NewSource(20))
	return map[string][][]byte{
		"strings":    randomStringKeys(rng, 6000, 24),
		"prefixes":   prefixHeavyKeys(rng, 6000),
		"ints":       randomIntKeys(rng, 20000),
		"sequential": sequentialIntKeys(20000),
		"dense":      denseShortKeys(20000),
	}
}

// buildChurnedTree inserts keys and then deletes every third one, so jump
// tables carry zero holes and deltas have been re-based.
func buildChurnedTree(cfg Config, keys [][]byte) *Tree {
	tree := New(cfg)
	for i, k := range keys {
		tree.Put(k, uint64(i))
	}
	for i := 0; i < len(keys); i += 3 {
		tree.Delete(keys[i])
	}
	return tree
}

// TestFindersAgreeWithScans is the differential: over every stream of trees
// built from the oracle key families (after deletes), for every key byte,
// the lean finders report exactly what the edit scans report.
func TestFindersAgreeWithScans(t *testing.T) {
	for name, keys := range findFamilies() {
		t.Run(name, func(t *testing.T) {
			tree := buildChurnedTree(DefaultConfig(), keys)
			checkTree(t, tree)
			streams, tNodes := 0, 0
			forEachStream(tree, func(buf []byte, reg region, top bool) {
				streams++
				tNodes += checkFindersAgree(t, buf, reg, top)
			})
			if streams == 0 || tNodes == 0 {
				t.Fatalf("walk visited %d streams, %d T-Nodes", streams, tNodes)
			}
			st := tree.Stats()
			t.Logf("%d streams, %d T-Nodes; %d jump successors, %d T jump tables, %d container JT updates, %d splits",
				streams, tNodes, st.JumpSuccessors, st.TNodeJumpTables, st.ContainerJTUpdates, st.Splits)
		})
	}
}

// TestFindMatchesOracleAcrossConfigs: Find (the finders end to end) against a
// map, for present keys, absent extensions and truncated keys, under every
// feature configuration.
func TestFindMatchesOracleAcrossConfigs(t *testing.T) {
	keys := findFamilies()["strings"]
	for name, cfg := range testConfigs() {
		t.Run(name, func(t *testing.T) {
			tree := buildChurnedTree(cfg, keys)
			oracle := map[string]uint64{}
			tree.Each(func(k []byte, v uint64, _ bool) bool {
				oracle[string(k)] = v
				return true
			})
			probe := func(k []byte) {
				want, wantOK := oracle[string(k)]
				if got, ok := tree.Get(k); ok != wantOK || got != want {
					t.Fatalf("Get(%q) = %d,%v want %d,%v", k, got, ok, want, wantOK)
				}
			}
			for _, k := range keys {
				probe(k)
				probe(k[:len(k)-1])
				probe(append(append([]byte{}, k...), 'z'))
			}
		})
	}
}

// advanceAt is the number of bytes a scan loop moves forward from a node
// whose header is at pos (ignoring jump successors, which are checked to be
// positive where they are read).
func advanceAt(buf []byte, pos int) int {
	if hdr := buf[pos]; !nodeIsS(hdr) {
		return tNodeHeadSize(hdr)
	}
	return sNodeSize(buf, pos)
}

// FuzzFindAgreesWithScan feeds arbitrary bytes to the finders as a node
// stream (top: a whole container, header and jump table included; otherwise
// a bare stream): finder and scan agree, or both fail a bounds check; and
// from every position the walk's step is >= 1 or a bounds failure, so a
// finder finishes within len(buf) iterations whatever it reads. The committed
// corpus (testdata/fuzz) holds streams of every shape cut from real trees —
// container and T-Node jump tables, jump successors, PC and embedded children
// — and damaged twins of some.
func FuzzFindAgreesWithScan(f *testing.F) {
	f.Add([]byte{}, byte(0), byte(0), false)
	f.Add([]byte{0x0b, 'a', 1, 2, 3, 4, 5, 6, 7, 8, 0x0f, 'b', 8, 7, 6, 5, 4, 3, 2, 1}, byte('a'), byte('b'), false)
	f.Fuzz(func(t *testing.T, data []byte, k0, k1 byte, top bool) {
		reg := region{0, len(data)}
		if top {
			if len(data) < containerHeaderSize {
				return
			}
			reg = topRegion(data)
		}
		for pos := range data {
			if n, idx := runFinder(func() int { return advanceAt(data, pos) }); !idx && n < 1 {
				t.Fatalf("walk step at %d is %d, want >= 1", pos, n)
			}
		}
		var ts tScan
		_, scanPanic := runFinder(func() int { ts = scanT(data, reg, k0, top); return 0 })
		tPos, findPanic := runFinder(func() int { return findT(data, reg, k0, top) })
		if scanPanic != findPanic || (!scanPanic && tPos != foundPos(ts.found, ts.pos)) {
			t.Fatalf("findT = %d (panic %v), scanT = %+v (panic %v)", tPos, findPanic, ts, scanPanic)
		}
		if scanPanic || !ts.found {
			return
		}
		var ss sScan
		_, scanPanic = runFinder(func() int { ss = scanS(data, reg, tPos, k1); return 0 })
		sPos, findPanic := runFinder(func() int { return findS(data, reg, tPos, k1) })
		if scanPanic != findPanic || (!scanPanic && sPos != foundPos(ss.found, ss.pos)) {
			t.Fatalf("findS = %d (panic %v), scanS = %+v (panic %v)", sPos, findPanic, ss, scanPanic)
		}
	})
}
