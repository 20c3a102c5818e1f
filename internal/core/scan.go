package core

// This file implements the linear, order-aware walks over a container's node
// stream (paper §3.1 "Operations" and Figure 2d), in two forms that share the
// jump-table probes and the key decoder and differ only in what they keep:
//
//   - findT/findS, the lookup form: a position or -1, nothing else. Point
//     lookups (findInStream) run only these.
//   - scanT/scanS, the edit form: the same walk, also recording the
//     predecessor key, the successor key and how many nodes were stepped over
//     — the context order-preserving insertion, delta re-encoding, the
//     jump-table policies and the cursor seek need, and lookups do not.
//
// Termination does not depend on what the bytes say: every iteration of
// every loop here advances pos by tNodeHeadSize or sNodeSize (both >= 1 for
// any header byte) or by a jump successor distance that is checked to be
// positive, and stops at the region end, so a reader racing a writer (see
// hyperion/lockfree.go) finishes within len(buf) steps or fails a bounds
// check.

// region delimits a node stream inside a container buffer: the top-level
// stream of a container, or the payload of an embedded container.
type region struct {
	start, end int
}

func topRegion(buf []byte) region {
	return region{ctrStreamStart(buf), ctrContentEnd(buf)}
}

func embRegion(buf []byte, sizePos int) region {
	return region{sizePos + 1, sizePos + embSize(buf, sizePos)}
}

// ctrJTSeek probes the container jump table for k0 and returns where the
// T-Node walk should start: the target of the greatest entry with key <= k0
// together with that key (the node there may be delta encoded against a
// predecessor the walk never saw), or (reg.start, -1) when no entry applies
// or the target lies outside the region.
//
//hyperion:noalloc
func ctrJTSeek(buf []byte, reg region, k0 byte) (pos, knownKey int) {
	steps := ctrJTSteps(buf)
	best := -1
	bestKey := byte(0)
	// Valid entries are stored in ascending key order (the table is only
	// ever written by rebuildContainerJT; deletions punch zero holes but
	// never reorder), so the probe stops at the first key beyond k0
	// instead of scanning all steps*7 entries.
	for i := 0; i < steps*ctrJTStep; i++ {
		key, off := ctrJTEntry(buf, i)
		if off == 0 {
			continue
		}
		if key > k0 {
			break
		}
		best, bestKey = off, key
	}
	if best > 0 && best >= reg.start && best < reg.end {
		return best, int(bestKey)
	}
	return reg.start, -1
}

// tJTSeek is ctrJTSeek for the jump table of the T-Node at tPos (which must
// have one; most T-Nodes do not, so the callers test the flag rather than
// pay for the call): where the S-Node walk for k1 should start and the key of
// the S-Node there, or the first child and -1.
//
//hyperion:noalloc
func tJTSeek(buf []byte, reg region, tPos int, k1 byte) (pos, knownKey int) {
	best := -1
	bestKey := byte(0)
	// Like the container jump table, T-Node jump table entries are
	// key-ordered (written only by rebuildTNodeJT), so the probe
	// early-exits once key > k1.
	for i := 0; i < tJTEntries; i++ {
		key, off := tNodeJTEntry(buf, tPos, i)
		if off == 0 {
			continue
		}
		if key > k1 {
			break
		}
		best, bestKey = off, key
	}
	if best > 0 && tPos+best < reg.end {
		return tPos + best, int(bestKey)
	}
	return tPos + tNodeHeadSize(buf[tPos]), -1
}

// findT returns the position of the T-Node with key k0 in the given stream
// region, or -1. When the container has a jump table (top-level streams only)
// it is used to start the walk close to the target.
//
//hyperion:noalloc
func findT(buf []byte, reg region, k0 byte, useCtrJT bool) int {
	pos, knownKey := reg.start, -1
	if useCtrJT {
		pos, knownKey = ctrJTSeek(buf, reg, k0)
	}
	prevKey := -1
	end := reg.end
	for pos < end {
		hdr := buf[pos]
		if nodeType(hdr) == typeInvalid {
			break
		}
		if nodeIsS(hdr) {
			// S-Node child of the previous T-Node: skip.
			pos += sNodeSize(buf, pos)
			continue
		}
		var key byte
		if knownKey >= 0 {
			key, knownKey = byte(knownKey), -1
		} else {
			key = decodeKey(buf, pos, hdr, prevKey)
		}
		if key >= k0 {
			if key == k0 {
				return pos
			}
			break
		}
		prevKey = int(key)
		// Skip to the next sibling T-Node, via the jump successor if valid.
		if tHasJS(hdr) {
			if js := tNodeJS(buf, pos); js > 0 && pos+js <= end {
				pos += js
				continue
			}
		}
		pos += tNodeHeadSize(hdr)
	}
	return -1
}

// findS returns the position of the S-Node with key k1 below the T-Node at
// tPos, or -1.
//
//hyperion:noalloc
func findS(buf []byte, reg region, tPos int, k1 byte) int {
	tHdr := buf[tPos]
	pos, knownKey := tPos+tNodeHeadSize(tHdr), -1
	if tHasJT(tHdr) {
		pos, knownKey = tJTSeek(buf, reg, tPos, k1)
	}
	prevKey := -1
	end := reg.end
	for pos < end {
		hdr := buf[pos]
		if nodeType(hdr) == typeInvalid || !nodeIsS(hdr) {
			break
		}
		var key byte
		if knownKey >= 0 {
			key, knownKey = byte(knownKey), -1
		} else {
			key = decodeKey(buf, pos, hdr, prevKey)
		}
		if key >= k1 {
			if key == k1 {
				return pos
			}
			break
		}
		prevKey = int(key)
		pos += sNodeSize(buf, pos)
	}
	return -1
}

// tScan is the result of locating a T-Node for an edit or a cursor seek.
type tScan struct {
	found bool
	// pos is the position of the T-Node if found; otherwise the insertion
	// position: the successor sibling when succKey >= 0, else the region end.
	pos     int
	prevKey int // key of the greatest T-Node with a smaller key, -1 if none
	succKey int // key of the T-Node at the insertion position, -1 if none
	// number of T-Nodes traversed linearly (container jump table policy)
	traversed int
}

// sScan is the result of locating an S-Node below a T-Node; the fields read
// like tScan's (a missing successor leaves pos at the next sibling T-Node or
// the region end).
type sScan struct {
	found     bool
	pos       int
	prevKey   int  // -1 if none
	succKey   int  // -1 if none
	sawS      bool // the T-Node has at least one other S-Node child
	traversed int
}

// scanT is findT with edit context: it locates the T-Node with key k0 in the
// given stream region or the position where it would be inserted.
func scanT(buf []byte, reg region, k0 byte, useCtrJT bool) tScan {
	res := tScan{prevKey: -1, succKey: -1}
	pos, knownKey := reg.start, -1
	if useCtrJT {
		pos, knownKey = ctrJTSeek(buf, reg, k0)
	}
	prevKey := -1
	end := reg.end
	for pos < end {
		hdr := buf[pos]
		if nodeType(hdr) == typeInvalid {
			break
		}
		if nodeIsS(hdr) {
			// S-Node child of the previous T-Node: skip.
			pos += sNodeSize(buf, pos)
			continue
		}
		var key byte
		if knownKey >= 0 {
			key, knownKey = byte(knownKey), -1
		} else {
			key = decodeKey(buf, pos, hdr, prevKey)
		}
		res.traversed++
		if key >= k0 {
			res.found = key == k0
			if !res.found {
				res.succKey = int(key)
			}
			res.pos = pos
			res.prevKey = prevKey
			return res
		}
		prevKey = int(key)
		// Skip to the next sibling T-Node, via the jump successor if valid.
		if tHasJS(hdr) {
			if js := tNodeJS(buf, pos); js > 0 && pos+js <= end {
				pos += js
				continue
			}
		}
		pos += tNodeHeadSize(hdr)
	}
	res.pos = end
	res.prevKey = prevKey
	return res
}

// sRegionEnd returns the offset one past the last S-Node child of the T-Node
// at tPos, i.e. the position of the next sibling T-Node or the region end.
func sRegionEnd(buf []byte, reg region, tPos int) int {
	hdr := buf[tPos]
	if js := tNodeJS(buf, tPos); js > 0 && tPos+js <= reg.end {
		return tPos + js
	}
	pos := tPos + tNodeHeadSize(hdr)
	for pos < reg.end {
		h := buf[pos]
		if nodeType(h) == typeInvalid || !nodeIsS(h) {
			return pos
		}
		pos += sNodeSize(buf, pos)
	}
	return pos
}

// scanS is findS with edit context: it locates the S-Node with key k1 below
// the T-Node at tPos or the position where it would be inserted.
func scanS(buf []byte, reg region, tPos int, k1 byte) sScan {
	res := sScan{prevKey: -1, succKey: -1}
	tHdr := buf[tPos]
	pos, knownKey := tPos+tNodeHeadSize(tHdr), -1
	if tHasJT(tHdr) {
		pos, knownKey = tJTSeek(buf, reg, tPos, k1)
		res.sawS = knownKey >= 0
	}
	prevKey := -1
	end := reg.end
	for pos < end {
		hdr := buf[pos]
		if nodeType(hdr) == typeInvalid || !nodeIsS(hdr) {
			break
		}
		res.sawS = true
		var key byte
		if knownKey >= 0 {
			key, knownKey = byte(knownKey), -1
		} else {
			key = decodeKey(buf, pos, hdr, prevKey)
		}
		res.traversed++
		if key >= k1 {
			res.found = key == k1
			if !res.found {
				res.succKey = int(key)
			}
			res.pos = pos
			res.prevKey = prevKey
			return res
		}
		prevKey = int(key)
		pos += sNodeSize(buf, pos)
	}
	res.pos = pos
	res.prevKey = prevKey
	return res
}

// countTNodes walks the whole stream and appends the positions and keys of
// every T-Node to the given slices. It is used to (re)build jump tables and
// to split containers; hot callers pass a per-Tree scratch (Tree.tNodes) so
// every jump-table rebuild does not heap-allocate two fresh slices.
func countTNodes(buf []byte, reg region, positions []int, keys []byte) ([]int, []byte) {
	pos := reg.start
	prevKey := -1
	for pos < reg.end {
		hdr := buf[pos]
		if nodeType(hdr) == typeInvalid {
			break
		}
		if nodeIsS(hdr) {
			pos += sNodeSize(buf, pos)
			continue
		}
		key := nodeKey(buf, pos, prevKey)
		positions = append(positions, pos)
		keys = append(keys, key)
		prevKey = int(key)
		pos += tNodeHeadSize(hdr)
	}
	return positions, keys
}

// countSNodes appends the positions and keys of every S-Node child of the
// T-Node at tPos (same scratch convention as countTNodes; Tree.sNodes).
func countSNodes(buf []byte, reg region, tPos int, positions []int, keys []byte) ([]int, []byte) {
	pos := tPos + tNodeHeadSize(buf[tPos])
	prevKey := -1
	for pos < reg.end {
		hdr := buf[pos]
		if nodeType(hdr) == typeInvalid || !nodeIsS(hdr) {
			break
		}
		key := nodeKey(buf, pos, prevKey)
		positions = append(positions, pos)
		keys = append(keys, key)
		prevKey = int(key)
		pos += sNodeSize(buf, pos)
	}
	return positions, keys
}

// tNodes is the scratch-reusing form of countTNodes: the returned slices are
// owned by the tree and valid until the next tNodes call. Callers must not
// hold them across another tNodes-using operation.
func (t *Tree) tNodes(buf []byte, reg region) ([]int, []byte) {
	t.tPosScratch, t.tKeyScratch = countTNodes(buf, reg, t.tPosScratch[:0], t.tKeyScratch[:0])
	return t.tPosScratch, t.tKeyScratch
}

// sNodes is the scratch-reusing form of countSNodes (separate scratch from
// tNodes, so a caller may hold a tNodes result across an sNodes call).
func (t *Tree) sNodes(buf []byte, reg region, tPos int) ([]int, []byte) {
	t.sPosScratch, t.sKeyScratch = countSNodes(buf, reg, tPos, t.sPosScratch[:0], t.sKeyScratch[:0])
	return t.sPosScratch, t.sKeyScratch
}
