package core

import (
	"bytes"

	"repro/internal/memman"
)

// This file implements the seek-aware cursor engine: an explicit-stack,
// resumable ordered iterator over the trie. Unlike the linear reference walk
// (RangeLinear in range.go), which decodes every T/S-Node header from the
// start of each container stream even below the lower bound, Seek consults
// the same jump structures the point operations use — the container jump
// table, T-Node jump tables and jump successors (paper §3.3) — so landing on
// the start key costs O(depth × jump-probe) instead of O(position). Steady
// state iteration reuses one key buffer and the frame stack, so Next performs
// no heap allocation (pinned by TestCursorZeroAlloc and the CI scan gate).
//
// The cursor reports keys in STORED form (after the optional key
// pre-processing of the hyperion layer): callers that resume a scan after
// releasing a lock hand the stored key straight back to Seek without a
// round trip through the raw-key space.

// cursorFrame is one level of the cursor's explicit traversal stack: a node
// stream (the top-level stream of a standalone or chained container, or the
// payload of an embedded container) plus the delta-decoding context needed to
// continue mid-stream. The fields are deliberately narrow — string tries
// push/pop a frame every couple of emissions, so the struct copy is on the
// steady-state scan path (offsets fit int32 via the 19-bit container size
// limit; key context fits int16).
type cursorFrame struct {
	buf []byte
	pos int32 // next undecoded node position
	end int32 // stream region end
	// Delta-decoding context: the absolute key of the preceding sibling
	// T-Node/S-Node (-1 when there is none).
	prevT int16
	prevS int16
	// knownT/knownS carry the absolute key of the node at pos when the cursor
	// arrived there via a jump-table probe or a seek, where the preceding
	// sibling was never decoded. Consumed by the first decode, then -1.
	knownT int16
	knownS int16
	// baseLen is the cursor key length contributed by the enclosing frames;
	// this frame writes key bytes at baseLen (T) and baseLen+1 (S).
	baseLen int32
	// top marks top-level container streams, the only ones with a container
	// jump table (chained split slots are top-level streams too).
	top bool
	// chainSlot indexes the current slot when chain is set.
	chainSlot int8
	// chain, when set, makes the frame iterate the slots of a chained
	// (vertically split) container: when the current slot's stream is
	// exhausted, the frame advances to the next populated slot.
	chain memman.HP
}

// Cursor is a resumable ordered iterator with jump-structure-aware seeking.
// A Cursor is bound to one Tree and, like the Tree itself, is not safe for
// concurrent use; it must not be used across tree mutations (re-Seek after a
// write, exactly like the chunk-resume discipline of the hyperion layer).
//
// The zero Cursor is not ready for use; call Init (or NewCursor). Init and
// Seek may be called repeatedly — all internal buffers are reused, so a
// long-lived cursor seeks and iterates without heap allocations.
type Cursor struct {
	t      *Tree
	frames []cursorFrame
	// key is the reusable stored-key buffer, kept at len == storage size;
	// emissions are capacity-capped reslices so a callback appending to the
	// key it received reallocates instead of corrupting the next emission.
	key []byte
	// Pending path-compressed emission: a terminal S-Node with a PC child
	// yields two keys from one node; the PC one is staged here.
	pendingLen int
	pendingVal uint64
	pendingHas bool
	hasPending bool
	// emitEmpty schedules the empty key (stored outside the containers).
	emitEmpty bool
	// probes counts decoded node headers and jump-probe steps since the last
	// Seek — the bounded-work instrumentation of the seek contract.
	probes int64
	// maxFrames, when non-zero, bounds the descent depth. Optimistic
	// (seqlock) scans set it so that a torn read which manufactures a cyclic
	// HP chain panics out of the walk (recovered by the caller) instead of
	// pushing frames forever; locked scans leave it zero (unbounded).
	maxFrames int
}

// NewCursor returns a cursor bound to t, positioned before the first key.
func NewCursor(t *Tree) *Cursor {
	c := &Cursor{}
	c.Init(t)
	c.Seek(nil)
	return c
}

// Init (re)binds the cursor to a tree and clears its position. Internal
// buffers are kept for reuse, but no reference into the previous tree's
// memory survives, so Init(nil) parks an idle cursor without pinning a tree.
// Call Seek before Next.
func (c *Cursor) Init(t *Tree) {
	c.t = t
	clear(c.frames[:cap(c.frames)])
	c.reset()
}

func (c *Cursor) reset() {
	c.frames = c.frames[:0]
	c.hasPending = false
	c.emitEmpty = false
	c.probes = 0
}

// Probes returns the number of node headers decoded and jump entries stepped
// over since the last Seek. It exists so tests and benchmarks can assert the
// bounded-work contract: a seek past every stored key must cost O(depth ×
// jump-probe), not O(keys).
func (c *Cursor) Probes() int64 { return c.probes }

// Seek positions the cursor so that the following Next calls emit every
// stored key >= start (stored-key space) in lexicographic order. A nil or
// empty start positions before the first key. The bound is consumed entirely
// by Seek — it descends along start's path using the container jump table,
// T-Node jump tables and jump successors, and everything left on the frame
// stack afterwards is emitted unconditionally.
func (c *Cursor) Seek(start []byte) {
	c.reset()
	t := c.t
	if len(start) == 0 {
		if t.emptyExists {
			c.emitEmpty = true
		}
		if !t.rootHP.IsNil() {
			c.pushHP(t.rootHP, 0)
		}
		return
	}
	if t.rootHP.IsNil() {
		return
	}
	hp := t.rootHP
	low := start
	baseLen := 0
	for {
		if len(low) == 0 {
			// The whole bound was consumed by a PC/terminal match above;
			// every key in this subtree is >= start.
			c.pushHP(hp, baseLen)
			return
		}
		if !c.pushSeekContainer(hp, low[0], baseLen) {
			return
		}
		nextHP, nextLow, nextBase, descend := c.seekTop(low)
		if !descend {
			return
		}
		hp, low, baseLen = nextHP, nextLow, nextBase
	}
}

// Next returns the next stored key in order. The key slice is valid only
// until the next cursor call and is capacity-capped: appending to it cannot
// corrupt the cursor's buffer. ok is false when the iteration is exhausted.
// hasValue distinguishes Put keys from PutKey set members, like Tree.Range.
//
//hyperion:noalloc
func (c *Cursor) Next() (key []byte, value uint64, hasValue bool, ok bool) {
	if c.emitEmpty {
		c.emitEmpty = false
		return c.key[:0:0], c.t.emptyValue, c.t.emptyHas, true
	}
	if c.hasPending {
		c.hasPending = false
		n := c.pendingLen
		return c.key[:n:n], c.pendingVal, c.pendingHas, true
	}
	for len(c.frames) > 0 {
		f := &c.frames[len(c.frames)-1]
		if f.pos >= f.end || nodeType(f.buf[f.pos]) == typeInvalid {
			if !f.chain.IsNil() && c.advanceChain(f) {
				continue
			}
			c.frames = c.frames[:len(c.frames)-1]
			continue
		}
		hdr := f.buf[f.pos]
		c.probes++
		if !nodeIsS(hdr) {
			// T-Node.
			k := f.tKey(hdr)
			typ := nodeType(hdr)
			var v uint64
			if typ == typeKeyVal {
				v = getValue(f.buf, int(f.pos)+nodeValueOffset(hdr))
			}
			c.setKeyByte(int(f.baseLen), k)
			f.pos += int32(tNodeHeadSize(hdr))
			if typ != typeInner {
				n := int(f.baseLen) + 1
				return c.key[:n:n], v, typ == typeKeyVal, true
			}
			continue
		}
		// S-Node.
		k := f.sKey(hdr)
		buf := f.buf
		sPos := int(f.pos)
		f.pos = int32(sPos + sNodeSize(buf, sPos))
		n := int(f.baseLen) + 2
		c.setKeyByte(n-1, k)
		typ := nodeType(hdr)
		var v uint64
		if typ == typeKeyVal {
			v = getValue(buf, sPos+nodeValueOffset(hdr))
		}
		childOff := sPos + sNodeChildOffset(hdr)
		// Queue the child first (its keys follow the S terminal in order),
		// then emit the terminal. Pushing may grow the frame stack, so f is
		// not touched afterwards.
		switch sChildKind(hdr) {
		case childHP:
			c.pushHP(memman.GetHP(buf[childOff:]), n)
		case childEmbedded:
			c.pushFrame(buf, embRegion(buf, childOff), n, false)
		case childPC:
			c.stagePC(n, buf, childOff)
		}
		if typ != typeInner {
			return c.key[:n:n], v, typ == typeKeyVal, true
		}
		if c.hasPending {
			c.hasPending = false
			pn := c.pendingLen
			return c.key[:pn:pn], c.pendingVal, c.pendingHas, true
		}
	}
	return nil, 0, false, false
}

// tKey decodes the key byte of the T-Node at f.pos, whose header is hdr, and
// makes it the frame's T delta context (which also resets the S context).
func (f *cursorFrame) tKey(hdr byte) byte {
	var k byte
	switch {
	case f.knownT >= 0:
		k = byte(f.knownT)
		f.knownT = -1
	case nodeDelta(hdr) != 0:
		k = byte(int(f.prevT) + nodeDelta(hdr))
	default:
		k = f.buf[f.pos+1]
	}
	f.prevT = int16(k)
	f.prevS = -1
	f.knownS = -1
	return k
}

// sKey is tKey for the S-Node at f.pos.
func (f *cursorFrame) sKey(hdr byte) byte {
	var k byte
	switch {
	case f.knownS >= 0:
		k = byte(f.knownS)
		f.knownS = -1
	case nodeDelta(hdr) != 0:
		k = byte(int(f.prevS) + nodeDelta(hdr))
	default:
		k = f.buf[f.pos+1]
	}
	f.prevS = int16(k)
	return k
}

// seekTop positions the top frame (and any embedded frames it pushes) for the
// bound low. It returns a child HP plus the remaining bound when the seek
// path continues in a standalone child container; descend is false when the
// cursor is fully positioned.
func (c *Cursor) seekTop(low []byte) (nextHP memman.HP, nextLow []byte, nextBase int, descend bool) {
	for {
		f := &c.frames[len(c.frames)-1]
		buf := f.buf
		reg := region{int(f.pos), int(f.end)}
		ts := scanT(buf, reg, low[0], f.top && c.t.cfg.ContainerJumpTable)
		c.probes += int64(ts.traversed)
		if !ts.found {
			if ts.succKey >= 0 {
				// First T beyond the bound byte: everything from here on is
				// above the bound.
				f.pos = int32(ts.pos)
				f.knownT = int16(ts.succKey)
			} else {
				f.pos = f.end // exhausted at this level
			}
			return memman.NilHP, nil, 0, false
		}
		c.setKeyByte(int(f.baseLen), low[0])
		if len(low) == 1 {
			// A key ending at this T-Node already satisfies the bound.
			f.pos = int32(ts.pos)
			f.knownT = int16(low[0])
			return memman.NilHP, nil, 0, false
		}
		ss := scanS(buf, reg, ts.pos, low[1])
		c.probes += int64(ss.traversed)
		if !ss.found {
			f.prevT = int16(low[0])
			if ss.succKey >= 0 {
				f.pos = int32(ss.pos)
				f.knownS = int16(ss.succKey)
			} else {
				// No S >= low[1] under this T: continue at the next sibling
				// T-Node (scanS leaves pos there), above the bound.
				f.pos = int32(ss.pos)
			}
			return memman.NilHP, nil, 0, false
		}
		c.setKeyByte(int(f.baseLen)+1, low[1])
		if len(low) == 2 {
			f.pos = int32(ss.pos)
			f.prevT = int16(low[0])
			f.knownS = int16(low[1])
			return memman.NilHP, nil, 0, false
		}
		// The bound continues below this S-Node: its own terminal (if any)
		// is below the bound, the siblings after it are above. Park the
		// frame after the S-Node and descend into the child with the rest.
		sPos := ss.pos
		hdr := buf[sPos]
		rem := low[2:]
		childOff := sPos + sNodeChildOffset(hdr)
		f.pos = int32(sPos + sNodeSize(buf, sPos))
		f.prevT = int16(low[0])
		f.prevS = int16(low[1])
		base := int(f.baseLen) + 2
		switch sChildKind(hdr) {
		case childHP:
			return memman.GetHP(buf[childOff:]), rem, base, true
		case childEmbedded:
			c.pushFrame(buf, embRegion(buf, childOff), base, false)
			low = rem
			continue
		case childPC:
			if suffix := pcSuffix(buf, childOff); bytes.Compare(suffix, rem) >= 0 {
				c.stagePC(base, buf, childOff)
			}
			return memman.NilHP, nil, 0, false
		default: // childNone
			return memman.NilHP, nil, 0, false
		}
	}
}

// SetMaxFrames bounds the cursor's descent depth; exceeding it panics (the
// optimistic scan wrapper recovers and falls back to a locked scan). Zero
// removes the bound. The setting survives Init/Seek until changed.
func (c *Cursor) SetMaxFrames(n int) { c.maxFrames = n }

// pushFrame appends a frame for one node stream.
func (c *Cursor) pushFrame(buf []byte, reg region, baseLen int, top bool) *cursorFrame {
	if c.maxFrames > 0 && len(c.frames) >= c.maxFrames {
		panic("core: cursor depth bound exceeded (torn optimistic read)")
	}
	c.frames = append(c.frames, cursorFrame{
		buf:     buf,
		pos:     int32(reg.start),
		end:     int32(reg.end),
		prevT:   -1,
		prevS:   -1,
		knownT:  -1,
		knownS:  -1,
		baseLen: int32(baseLen),
		top:     top,
		chain:   memman.NilHP,
	})
	return &c.frames[len(c.frames)-1]
}

// pushHP pushes a frame for the container(s) referenced by hp, positioned at
// the start (no bound).
func (c *Cursor) pushHP(hp memman.HP, baseLen int) {
	if c.t.alloc.IsChained(hp) {
		f := c.pushFrame(nil, region{}, baseLen, true)
		f.chain = hp
		f.chainSlot = -1
		c.advanceChain(f)
		return
	}
	buf := c.t.alloc.Resolve(hp)
	c.pushFrame(buf, topRegion(buf), baseLen, true)
}

// pushSeekContainer pushes a frame for the container(s) referenced by hp,
// picking the chained slot responsible for the bound byte k0 (paper §3.3:
// slot k0/32, with void slots falling back downwards). It reports whether the
// pushed frame still needs an in-stream seek: false means every key it will
// emit is already above the bound (or the frame is empty).
func (c *Cursor) pushSeekContainer(hp memman.HP, k0 byte, baseLen int) bool {
	if !c.t.alloc.IsChained(hp) {
		buf := c.t.alloc.Resolve(hp)
		c.pushFrame(buf, topRegion(buf), baseLen, true)
		return true
	}
	f := c.pushFrame(nil, region{}, baseLen, true)
	f.chain = hp
	home := int(k0) / 32
	for s := home; s >= 0; s-- {
		if buf := c.t.alloc.ChainedSlot(f.chain, s); buf != nil {
			reg := topRegion(buf)
			f.chainSlot = int8(s)
			f.buf = buf
			f.pos = int32(reg.start)
			f.end = int32(reg.end)
			return true
		}
	}
	// Every slot at or below home is void, so no stored key has a first byte
	// <= k0 here: iterate the higher slots unconditionally.
	f.chainSlot = int8(home)
	c.advanceChain(f)
	return false
}

// advanceChain moves a chained frame to its next populated slot, resetting
// the per-stream decode context. It returns false when the chain is done.
func (c *Cursor) advanceChain(f *cursorFrame) bool {
	for s := int(f.chainSlot) + 1; s < memman.ChainLen; s++ {
		if buf := c.t.alloc.ChainedSlot(f.chain, s); buf != nil {
			reg := topRegion(buf)
			f.chainSlot = int8(s)
			f.buf = buf
			f.pos = int32(reg.start)
			f.end = int32(reg.end)
			f.prevT, f.prevS, f.knownT, f.knownS = -1, -1, -1, -1
			return true
		}
	}
	f.pos, f.end = 0, 0
	return false
}

// stagePC stages the path-compressed child at childOff as the pending
// emission: its suffix is copied into the key buffer past base so the caller
// can first emit the S terminal at base.
func (c *Cursor) stagePC(base int, buf []byte, childOff int) {
	suffix := pcSuffix(buf, childOff)
	c.setKeyBytes(base, suffix)
	c.pendingLen = base + len(suffix)
	if pcHasValue(buf, childOff) {
		c.pendingVal = pcValue(buf, childOff)
		c.pendingHas = true
	} else {
		c.pendingVal = 0
		c.pendingHas = false
	}
	c.hasPending = true
}

// setKeyByte writes one key byte, growing the storage buffer if needed.
func (c *Cursor) setKeyByte(i int, b byte) {
	if i >= len(c.key) {
		c.growKey(i + 1)
	}
	c.key[i] = b
}

// setKeyBytes writes a run of key bytes at the given offset.
func (c *Cursor) setKeyBytes(at int, b []byte) {
	if at+len(b) > len(c.key) {
		c.growKey(at + len(b))
	}
	copy(c.key[at:], b)
}

func (c *Cursor) growKey(n int) {
	if m := 2*len(c.key) + 16; m > n {
		n = m
	}
	nk := make([]byte, n)
	copy(nk, c.key)
	c.key = nk
}
