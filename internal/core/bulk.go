package core

import "repro/internal/memman"

// Bulk ingestion (sorted-run fast path). The per-key put machinery treats
// every key as a random insert: a full trie descent, order-aware linear
// scans, and an insertBytes memmove that shifts the container tail on every
// node insertion, plus a grow/copy ladder as the container inflates one node
// at a time. When a whole sorted run arrives at once, all of that work is
// avoidable: keys sharing a container prefix are encoded strictly
// left-to-right, so the node stream can be emitted append-only with delta
// encoding and jump metadata laid down in the same pass, and every container
// is allocated in a single exact-size chunk request once its content is
// known.
//
// BulkLoad merges into a non-empty tree by splitting the run at the
// boundaries of the existing structure: runs of keys that fall into a gap of
// the current node stream are encoded as one block and inserted with a
// single memmove; runs that continue below an existing child container
// descend and repeat. A run of several keys below an embedded child that
// could not fit its 255 bytes ejects the child once and merges into the new
// container the same way. Only single keys, runs that fit an embedded child,
// and keys that hit path-compressed remainders go through the ordinary
// per-key put path.

// bulkKeyOverhead is the per-key encoding overhead assumed by the merge
// block-size estimate (node headers, value, child references). It
// deliberately overestimates so a block never outgrows the container
// headroom computed before it was built.
const bulkKeyOverhead = 16

// bulkBlockCap bounds the size of one merged block so the split machinery
// gets a chance to run between insertions into the same container.
const bulkBlockCap = 128 << 10

// stashBulkScratch returns a stream-assembly buffer to the tree for reuse,
// dropping buffers that outgrew bulkBlockCap — a single giant load must not
// pin a run-sized buffer for the tree's lifetime.
func (t *Tree) stashBulkScratch(enc []byte) {
	if cap(enc) > bulkBlockCap {
		t.bulkScratch = nil
		return
	}
	t.bulkScratch = enc[:0]
}

// blockBudget bounds the bytes one merge block may add to the container:
// the 19-bit size headroom less slack, capped at bulkBlockCap. Both gap-run
// extents (T and S level) must use this and blockEstimate so the two insert
// paths cannot desynchronise.
func blockBudget(buf []byte) int {
	budget := maxContainerSize - 4096 - (ctrSize(buf) - ctrFree(buf))
	if budget > bulkBlockCap {
		budget = bulkBlockCap
	}
	return budget
}

// blockEstimate is the conservative encoded-size contribution of one key at
// depth d towards blockBudget (node headers, value, child references —
// deliberately overestimated, see bulkKeyOverhead).
func blockEstimate(keyLen, d int) int { return 2*(keyLen-d) + bulkKeyOverhead }

// outgrowsEmbedded reports whether an embedded child of size bytes plus the
// block estimate of keys[lo:hi) (suffixes from depth d) exceeds embMaxSize.
func (b *bulkBuilder) outgrowsEmbedded(size, lo, hi, d int) bool {
	for i := lo; i < hi; i++ {
		if size += blockEstimate(len(b.keys[i]), d); size > embMaxSize {
			return true
		}
	}
	return false
}

// BulkLoad ingests a sorted run of key/value pairs with put-overwrite
// semantics. The caller must guarantee that keys are strictly increasing in
// lexicographic order; vals is indexed in parallel. A leading empty key,
// which the container encoding cannot hold, is stored beside it. The public
// hyperion layer enforces the order (and routes unsorted input to the
// per-key path).
func (t *Tree) BulkLoad(keys [][]byte, vals []uint64) {
	t.BulkLoadMixed(keys, vals, nil)
}

// BulkLoadMixed is BulkLoad for a run that mixes valued and bare keys:
// hasv[i] false stores keys[i] with PutKey semantics, so it keeps the value
// of an existing valued key. A nil hasv means every key has a value;
// otherwise hasv holds at least len(keys) flags.
func (t *Tree) BulkLoadMixed(keys [][]byte, vals []uint64, hasv []bool) {
	lo := 0
	if len(keys) > 0 && len(keys[0]) == 0 {
		t.put(keys[0], vals[0], hasv == nil || hasv[0])
		lo = 1
	}
	if lo == len(keys) {
		return
	}
	b := &bulkBuilder{t: t, keys: keys, vals: vals, hasv: hasv}
	if t.rootHP.IsNil() {
		enc := b.buildStream(t.bulkScratch[:0], lo, len(keys), 0, true, -1)
		t.rootHP = b.materializeStream(enc)
		t.stashBulkScratch(enc)
		t.stats.Keys += int64(len(keys) - lo)
		return
	}
	b.mergeContainer(func(k0 byte) containerSlot { return t.rootSlot(k0) }, lo, len(keys), 0)
}

// bulkBuilder carries the run and the reusable jump-table scratch of one
// BulkLoad call.
type bulkBuilder struct {
	t    *Tree
	keys [][]byte
	vals []uint64
	hasv []bool // nil: every key has a value
	// S-Node offsets (relative to the owning T-Node) and keys of the group
	// currently being encoded, recorded only while a T-Node jump table is
	// being laid down.
	jtOff []int
	jtKey []byte
}

// hasValue reports whether keys[i] carries a value (Put) or is bare (PutKey).
func (b *bulkBuilder) hasValue(i int) bool { return b.hasv == nil || b.hasv[i] }

// appendTerminal turns the node head at idx into the ending of keys[i]:
// valued with its value appended, or bare.
func (b *bulkBuilder) appendTerminal(enc []byte, idx, i int) []byte {
	if !b.hasValue(i) {
		setNodeType(enc[idx:], 0, typeKey)
		return enc
	}
	setNodeType(enc[idx:], 0, typeKeyVal)
	return appendValueBytes(enc, b.vals[i])
}

// distinctSKeys counts the distinct values of key[d] over keys[lo:hi).
func (b *bulkBuilder) distinctSKeys(lo, hi, d int) int {
	n, prev := 0, -1
	for i := lo; i < hi; i++ {
		if k := int(b.keys[i][d]); k != prev {
			n++
			prev = k
		}
	}
	return n
}

// buildStream appends the node-stream encoding of keys[lo:hi) at key-byte
// depth d to enc. Every key must be longer than d (the caller peels off keys
// ending above this level). prevT seeds the delta encoding of the first
// T-Node. topLevel enables jump successors and T-Node jump tables — only for
// streams that will become a container's top level; embedded streams must
// stay metadata-free.
func (b *bulkBuilder) buildStream(enc []byte, lo, hi, d int, topLevel bool, prevT int) []byte {
	t := b.t
	i := lo
	for i < hi {
		k0 := b.keys[i][d]
		gEnd := i + 1
		for gEnd < hi && b.keys[gEnd][d] == k0 {
			gEnd++
		}
		var tIdx int
		enc, tIdx = t.appendNodeHead(enc, typeInner, false, k0, prevT)
		prevT = int(k0)
		if len(b.keys[i]) == d+1 {
			// The key ending at this T-Node sorts first within the group.
			enc = b.appendTerminal(enc, tIdx, i)
			i++
		}
		// Jump metadata for wide T-Nodes, reserved up front and filled once
		// the group's S region is encoded (the put path adds the same
		// metadata lazily, paying an insertBytes shift each time).
		hasJS, hasJT := false, false
		if topLevel && i < gEnd {
			sCount := b.distinctSKeys(i, gEnd, d+1)
			if t.cfg.JumpSuccessor && sCount >= 2 {
				hasJS = true
				setTJSFlag(enc[tIdx:], 0, true)
				enc = append(enc, 0, 0)
				t.stats.JumpSuccessors++
			}
			if t.cfg.TNodeJumpTable && sCount >= t.cfg.TNodeJumpTableThreshold {
				hasJT = true
				setTJTFlag(enc[tIdx:], 0, true)
				var zero [tJTSize]byte
				enc = append(enc, zero[:]...)
				t.stats.TNodeJumpTables++
				b.jtOff = b.jtOff[:0]
				b.jtKey = b.jtKey[:0]
			}
		}
		enc = b.buildSRun(enc, i, gEnd, d+1, -1, hasJT, tIdx)
		i = gEnd
		if hasJS {
			setTNodeJS(enc, tIdx, len(enc)-tIdx)
		}
		if hasJT {
			n := len(b.jtKey)
			count := tJTEntries
			if n < count {
				count = n
			}
			for x := 0; x < count; x++ {
				idx := (x + 1) * n / (count + 1)
				if idx >= n {
					idx = n - 1
				}
				if b.jtOff[idx] > 0xffff {
					break // offsets ascend; the rest are unrepresentable
				}
				setTNodeJTEntry(enc, tIdx, x, b.jtKey[idx], b.jtOff[idx])
			}
		}
	}
	return enc
}

// buildSRun appends the S-Node encodings of keys[lo:hi) whose S key byte is
// at depth d (all keys share the bytes below d and are longer than d). prevS
// seeds delta encoding; when jt is set, every S-Node's offset relative to
// the owning T-Node at tIdx is recorded for the jump-table fill.
func (b *bulkBuilder) buildSRun(enc []byte, lo, hi, d, prevS int, jt bool, tIdx int) []byte {
	t := b.t
	i := lo
	for i < hi {
		k1 := b.keys[i][d]
		sEnd := i + 1
		for sEnd < hi && b.keys[sEnd][d] == k1 {
			sEnd++
		}
		var sIdx int
		enc, sIdx = t.appendNodeHead(enc, typeInner, true, k1, prevS)
		prevS = int(k1)
		if jt {
			b.jtOff = append(b.jtOff, sIdx-tIdx)
			b.jtKey = append(b.jtKey, k1)
		}
		sTerm := len(b.keys[i]) == d+1
		if sTerm {
			enc = b.appendTerminal(enc, sIdx, i)
			i++
		}
		switch {
		case i == sEnd:
			// The key ends exactly at the S-Node; no child.
		case sEnd-i == 1:
			rest := b.keys[i][d+1:]
			if sTerm {
				enc = t.appendSingleChild(enc, sIdx, rest, b.vals[i], b.hasValue(i))
			} else {
				enc = t.appendLeafTail(enc, sIdx, rest, b.vals[i], b.hasValue(i))
			}
			i++
		default:
			enc = b.appendChildRun(enc, sIdx, i, sEnd, d+1)
			i = sEnd
		}
	}
	return enc
}

// appendChildRun encodes the ≥2 keys[lo:hi) continuing below the S-Node at
// sIdx (suffixes start at depth d): inline as an embedded container when the
// result fits AND the stream assembled so far is still below the embedded
// eject threshold, moved out into a standalone container otherwise. The
// threshold check mirrors the put path's lazy ejection (and the merge path
// above): without it a fresh bulk build of a wide key distribution embeds
// millions of small children into one stream, whose 32-aligned chain parts
// then overflow the 19-bit container size field.
func (b *bulkBuilder) appendChildRun(enc []byte, sIdx, lo, hi, d int) []byte {
	t := b.t
	sizeIdx := len(enc)
	enc = append(enc, 0) // embedded-size placeholder
	enc = b.buildStream(enc, lo, hi, d, false, -1)
	total := len(enc) - sizeIdx
	if t.cfg.Embedded && total <= embMaxSize && sizeIdx <= t.cfg.EmbeddedEjectThreshold {
		enc[sizeIdx] = byte(total)
		setSChildKind(enc[sIdx:], 0, childEmbedded)
		t.stats.EmbeddedContainers++
		return enc
	}
	hp := b.materializeStream(enc[sizeIdx+1:])
	enc = enc[:sizeIdx]
	setSChildKind(enc[sIdx:], 0, childHP)
	var hpb [hpSize]byte
	memman.PutHP(hpb[:], hp)
	return append(enc, hpb[:]...)
}

// materializeStream turns a freshly built top-level node stream into a
// standalone container, allocated in one exact-size chunk request (the bulk
// replacement for the per-key 32-byte grow/copy ladder) with a container
// jump table sized to the T-Node population. Streams beyond the split
// threshold are cut at 32-aligned T-key boundaries into a chained extended
// bin instead, exactly the layout vertical splitting would converge to.
func (b *bulkBuilder) materializeStream(content []byte) memman.HP {
	t := b.t
	need := containerHeaderSize + len(content)
	if (t.cfg.Split && len(content) >= t.cfg.SplitBaseSize) || need > maxContainerSize-4096 {
		if hp, ok := b.materializeChained(content); ok {
			return hp
		}
	}
	steps := 0
	if t.cfg.ContainerJumpTable {
		positions, _ := t.tNodes(content, region{0, len(content)})
		if n := len(positions); n > t.cfg.ContainerJumpTableThreshold {
			per := t.cfg.ContainerJumpTableThreshold
			if per < 1 {
				per = 1
			}
			steps = (n + per*ctrJTStep - 1) / (per * ctrJTStep)
			if steps > ctrJTMaxSteps {
				steps = ctrJTMaxSteps
			}
		}
	}
	jt := steps * ctrJTStep * ctrJTEntrySize
	size := roundUp32(need + jt)
	if size > maxContainerSize {
		panic("core: bulk-built container exceeds the 19-bit size limit; splitting must be enabled for such workloads")
	}
	hp, buf := t.alloc.Alloc(size)
	initContainer(buf, size, jt+len(content))
	setCtrJTSteps(buf, steps)
	copy(buf[containerHeaderSize+jt:], content)
	t.stats.Containers++
	if steps > 0 {
		t.rebuildContainerJT(buf)
		t.stats.ContainerJTUpdates++
	}
	return hp
}

// materializeChained writes the stream into a chained extended bin, one part
// per populated 32-aligned T-key range (the first part claims slot 0: it is
// responsible for the whole key range below the first cut). Returns ok=false
// when every T-Node falls into a single 32-key range.
func (b *bulkBuilder) materializeChained(content []byte) (memman.HP, bool) {
	t := b.t
	positions, keys := t.tNodes(content, region{0, len(content)})
	if len(positions) < 2 || keys[0]/32 == keys[len(keys)-1]/32 {
		return memman.NilHP, false
	}
	chain := t.alloc.AllocChained()
	first := true
	start := 0
	for start < len(positions) {
		rangeID := int(keys[start]) / 32
		end := start + 1
		for end < len(positions) && int(keys[end])/32 == rangeID {
			end++
		}
		from, to := positions[start], len(content)
		if end < len(positions) {
			to = positions[end]
		}
		slotIdx, firstKey := rangeID, int(keys[start])
		if first {
			slotIdx, firstKey = 0, -1 // the stream's first node is explicit
		}
		part := extractStream(t, content, from, to, firstKey)
		t.writeChainSlot(chain, slotIdx, part)
		t.stats.Containers++
		if !first {
			t.stats.Splits++ // one split event per cut, matching splitContainer
		}
		first = false
		start = end
	}
	return chain, true
}

// chainUpperBound returns the exclusive upper bound (..256) of the T-key
// range owned by the chain slot that answers for k0: the next populated
// slot's base key, or 256.
func (t *Tree) chainUpperBound(chain memman.HP, k0 byte) int {
	for s := int(k0)/32 + 1; s < memman.ChainLen; s++ {
		if t.alloc.ChainedSlot(chain, s) != nil {
			return s * 32
		}
	}
	return 256
}

// mergeContainer merges keys[lo:hi) at key-byte depth d into the existing
// container tree behind reslot. reslot re-derives the container slot for a
// leading key byte — after splits, ejections or per-key fallbacks every
// previously resolved position is stale, so each outer iteration starts from
// a fresh scan, exactly like the put machinery's restart loop.
func (b *bulkBuilder) mergeContainer(reslot func(k0 byte) containerSlot, lo, hi, d int) {
	t := b.t
	var e editCtx
	i := lo
	for i < hi {
		key := b.keys[i]
		k0 := key[d]
		slot := reslot(k0)
		t.maybeSplit(&slot, k0)
		buf := slot.resolve(t)
		e.init(t, slot, buf)
		reg := topRegion(buf)
		ts := scanT(buf, reg, k0, t.cfg.ContainerJumpTable)
		if t.cfg.ContainerJumpTable && ts.traversed >= t.cfg.ContainerJumpTableThreshold {
			if t.growContainerJT(&e) {
				continue
			}
		}

		if !ts.found {
			// A run of keys falling into a gap of the T stream: encode them
			// as one block and insert it with a single memmove. The extent is
			// bounded by the next existing T key, the chain part boundary,
			// and the container's size headroom (conservatively estimated so
			// the block always fits).
			limit := 256
			if ts.succKey >= 0 {
				limit = ts.succKey
			}
			if slot.isChained() {
				if ub := t.chainUpperBound(slot.chain, k0); ub < limit {
					limit = ub
				}
			}
			budget := blockBudget(buf)
			estimate := blockEstimate(len(key), d)
			j := i + 1
			for j < hi && int(b.keys[j][d]) < limit && estimate < budget {
				estimate += blockEstimate(len(b.keys[j]), d)
				j++
			}
			enc := b.buildStream(t.bulkScratch[:0], i, j, d, false, ts.prevKey)
			e.insertBytes(ts.pos, enc)
			if ts.succKey >= 0 {
				e.rebaseSibling(ts.pos+len(enc), ts.succKey, int(b.keys[j-1][d]))
			}
			t.stashBulkScratch(enc)
			t.stats.Keys += int64(j - i)
			i = j
			continue
		}
		tPos := ts.pos
		e.topT = tPos

		if len(key) == d+1 {
			if t.setTerminal(&e, tPos, b.vals[i], b.hasValue(i)) {
				continue
			}
			i++
			continue
		}
		k1 := key[d+1]
		ss := scanS(buf, reg, tPos, k1)
		if t.cfg.TNodeJumpTable && ss.traversed >= t.cfg.TNodeJumpTableThreshold && !tHasJT(buf[tPos]) {
			if t.addTNodeJT(&e, tPos) {
				continue
			}
		}

		if !ss.found {
			if t.cfg.JumpSuccessor && !tHasJS(buf[tPos]) && ss.sawS {
				if t.addJS(&e, tPos) {
					continue
				}
			}
			// A run of keys below the found T-Node whose S keys fall into a
			// gap of its S region: one block, one insert.
			limit := 256
			if ss.succKey >= 0 {
				limit = ss.succKey
			}
			budget := blockBudget(buf)
			estimate := blockEstimate(len(key), d)
			j := i + 1
			for j < hi && b.keys[j][d] == k0 && int(b.keys[j][d+1]) < limit && estimate < budget {
				estimate += blockEstimate(len(b.keys[j]), d)
				j++
			}
			enc := b.buildSRun(t.bulkScratch[:0], i, j, d+1, ss.prevKey, false, 0)
			e.insertBytes(ss.pos, enc)
			if ss.succKey >= 0 {
				e.rebaseSibling(ss.pos+len(enc), ss.succKey, int(b.keys[j-1][d+1]))
			}
			t.stashBulkScratch(enc)
			t.stats.Keys += int64(j - i)
			i = j
			continue
		}
		sPos := ss.pos

		if len(key) == d+2 {
			if t.setTerminal(&e, sPos, b.vals[i], b.hasValue(i)) {
				continue
			}
			i++
			continue
		}

		// The sub-run continuing below the existing S-Node: all keys sharing
		// the (k0, k1) prefix. A key of length d+1 cannot appear past i — it
		// would sort before every longer key with the same prefix.
		j := i + 1
		for j < hi && b.keys[j][d] == k0 && len(b.keys[j]) > d+1 && b.keys[j][d+1] == k1 {
			j++
		}
		hdr := buf[sPos]
		childOff := sPos + sNodeChildOffset(hdr)
		switch sChildKind(hdr) {
		case childHP:
			// Split the run at the existing container boundary and descend.
			pbuf, poff := buf, childOff
			b.mergeContainer(func(kk byte) containerSlot {
				return t.childSlot(pbuf, poff, memman.GetHP(pbuf[poff:]), kk)
			}, i, j, d+2)
			i = j

		case childNone:
			if j-i == 1 {
				_, _, restart, _ := t.putBelowSNode(&e, sPos, key[d+2:], b.vals[i], b.hasValue(i))
				if restart {
					continue
				}
				i++
				continue
			}
			// Several new suffixes below a leaf S-Node: build the child in
			// one pass and attach it (mirrors putAtPC's attach policy).
			enc := append(t.bulkScratch[:0], 0)
			enc = b.buildStream(enc, i, j, d+2, false, -1)
			parentContent := ctrSize(buf) - ctrFree(buf)
			if t.cfg.Embedded && len(enc) <= embMaxSize && parentContent <= t.cfg.EmbeddedEjectThreshold {
				enc[0] = byte(len(enc))
				setSChildKind(buf, sPos, childEmbedded)
				e.insertBytes(childOff, enc)
				t.stats.EmbeddedContainers++
			} else {
				hp := b.materializeStream(enc[1:])
				var hpb [hpSize]byte
				memman.PutHP(hpb[:], hp)
				setSChildKind(buf, sPos, childHP)
				e.insertBytes(childOff, hpb[:])
			}
			t.stashBulkScratch(enc)
			t.stats.Keys += int64(j - i)
			i = j

		case childEmbedded:
			if j-i >= 2 && b.outgrowsEmbedded(embSize(buf, childOff), i, j, d+2) {
				// The sub-run cannot fit the embedded child's 255 bytes:
				// eject the child once (paper Figure 8) and restart, which
				// finds a standalone child and merges the whole sub-run
				// into it block by block.
				e.pushEmb(embInfo{sNodePos: sPos, sizePos: childOff})
				t.eject(&e, 0)
				continue
			}
			fallthrough

		default: // childPC, or a single key or a sub-run that fits: per key
			for k := i; k < j; k++ {
				t.putLoop(reslot(b.keys[k][d]), b.keys[k][d:], b.vals[k], b.hasValue(k))
			}
			i = j
		}
	}
}
