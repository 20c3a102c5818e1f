package core

import (
	"repro/internal/memman"
)

// containerSlot abstracts how a top-level container is resolved and how its
// memory is grown. When growth moves the container to a different chunk (and
// therefore changes its Hyperion Pointer), the new HP is written back to
// wherever the parent stored it: the tree root field, an HP inside the parent
// container's byte stream, or nowhere for chained split containers (their HP
// never changes, only the chain slot's buffer).
//
// The write-back target is encoded as plain fields rather than a closure so
// that slots can live on the stack: the descent loops of Put and Delete
// create one slot per visited container, and a closure per level would put
// two heap allocations on the per-operation hot path.
type containerSlot struct {
	hp       memman.HP
	chain    memman.HP // chain head; when set, hp is unused
	chainIdx int
	// Write-back target for a moved HP; at most one of root/parent/out is
	// set. All nil means no parent references the HP yet.
	root      *Tree  // new HP goes to root.rootHP
	parent    []byte // new HP is serialised at parent[parentOff:]
	parentOff int
	out       *memman.HP // new HP goes to *out (temporary containers)
}

func (s *containerSlot) isChained() bool { return !s.chain.IsNil() }

// valid reports whether the slot references a container at all. The zero
// containerSlot is the "no descent" sentinel of the put machinery.
func (s *containerSlot) valid() bool { return !s.hp.IsNil() || !s.chain.IsNil() }

// writeback records hp at the slot's write-back target (a no-op for slots
// nobody references).
func (s *containerSlot) writeback(hp memman.HP) {
	switch {
	case s.root != nil:
		s.root.rootHP = hp
	case s.parent != nil:
		memman.PutHP(s.parent[s.parentOff:], hp)
	case s.out != nil:
		*s.out = hp
	}
}

func (s *containerSlot) resolve(t *Tree) []byte {
	if s.isChained() {
		return t.alloc.ChainedSlot(s.chain, s.chainIdx)
	}
	return t.alloc.Resolve(s.hp)
}

func (s *containerSlot) capacity(t *Tree) int {
	if s.isChained() {
		return len(t.alloc.ChainedSlot(s.chain, s.chainIdx))
	}
	return t.alloc.Capacity(s.hp)
}

// grow ensures the backing memory can hold newSize bytes and returns the
// (possibly moved) buffer.
func (s *containerSlot) grow(t *Tree, newSize int) []byte {
	if s.isChained() {
		return t.alloc.SetChainedSlot(s.chain, s.chainIdx, newSize)
	}
	newHP, buf := t.alloc.Realloc(s.hp, newSize)
	if newHP != s.hp {
		s.hp = newHP
		s.writeback(newHP)
	}
	return buf
}

// embInfo records one embedded container on the descent path: the S-Node that
// owns it and the position of its size byte.
type embInfo struct {
	sNodePos int
	sizePos  int
}

// embStackDepth is the embedded-container nesting depth an editCtx tracks in
// its inline array. Embedded containers are at most embMaxSize (255) bytes
// and every nesting level costs a handful of bytes, so real nesting rarely
// exceeds a few levels; deeper stacks spill into a heap-grown slice.
const embStackDepth = 8

// editCtx carries the state needed to modify one top-level container,
// including the stack of embedded containers the operation descended into and
// the enclosing top-level T-Node whose jump metadata must be kept consistent.
// An editCtx is reused via init and designed to stay on the caller's stack:
// it must never be retained beyond the edit.
//
// Layout note: the slot is held BY VALUE and the embedded stack lives in an
// inline array. Go's escape analysis treats a pointer stored through another
// pointer parameter as escaping, so an editCtx holding *containerSlot or a
// slice of a caller's array would drag both onto the heap — exactly the
// per-operation allocations this design removes. Callers that need the
// slot's post-edit state (a grown container's moved HP) read e.slot back
// after the edit.
type editCtx struct {
	t    *Tree
	slot containerSlot
	buf  []byte
	// topT is the position of the enclosing T-Node in the top-level stream
	// (-1 if the edit happens at T-Node level itself). Only top-level
	// T-Nodes carry jump successors and jump tables.
	topT int
	// The embedded containers enclosing the current edit position, outermost
	// first: entries [0, embLen), in embArr below embStackDepth and in
	// embSpill beyond. Entries are immutable once pushed.
	embLen   int
	embArr   [embStackDepth]embInfo
	embSpill []embInfo
}

// init (re)binds the edit context to a container. The embedded stack is
// reset; embSpill's backing array (if any) is kept for reuse.
func (e *editCtx) init(t *Tree, slot containerSlot, buf []byte) {
	e.t, e.slot, e.buf = t, slot, buf
	e.embLen = 0
	e.topT = -1
}

func (e *editCtx) inEmbedded() bool { return e.embLen > 0 }

// embAt returns the i-th enclosing embedded container (outermost first).
func (e *editCtx) embAt(i int) embInfo {
	if i < embStackDepth {
		return e.embArr[i]
	}
	return e.embSpill[i-embStackDepth]
}

// pushEmb records descending into one more embedded container.
func (e *editCtx) pushEmb(info embInfo) {
	if e.embLen < embStackDepth {
		e.embArr[e.embLen] = info
	} else {
		e.embSpill = append(e.embSpill[:e.embLen-embStackDepth], info)
	}
	e.embLen++
}

// truncEmb drops every embedded container at depth n and beyond.
func (e *editCtx) truncEmb(n int) { e.embLen = n }

// streamRegion returns the node-stream region the edit currently operates on.
func (e *editCtx) streamRegion() region {
	if e.embLen == 0 {
		return topRegion(e.buf)
	}
	return embRegion(e.buf, e.embAt(e.embLen-1).sizePos)
}

func roundUp32(n int) int { return (n + 31) &^ 31 }

// makeRoom grows the top-level container until at least n free bytes are
// available and returns the resulting free-byte count WITHOUT writing it to
// the header: the free field is 8 bits, and for bulk-sized insertions the
// transient "grown but not yet filled" state (up to n+31 free bytes) cannot
// be represented. The caller (insertBytes) stores the post-insertion value,
// which is always back in range. Containers grow in 32-byte increments
// (paper §3.2) straight to the final size — one reallocation, not a ladder.
func (e *editCtx) makeRoom(n int) int {
	buf := e.buf
	free := ctrFree(buf)
	if free >= n {
		return free
	}
	size := ctrSize(buf)
	content := size - free
	newSize := roundUp32(content + n)
	if newSize > maxContainerSize {
		panic("core: container exceeds the 19-bit size limit; splitting must be enabled for such workloads")
	}
	if newSize > e.slot.capacity(e.t) {
		buf = e.slot.grow(e.t, newSize)
		e.buf = buf
	}
	for i := size; i < newSize && i < len(buf); i++ {
		buf[i] = 0
	}
	setCtrSize(buf, newSize)
	return newSize - content
}

// wouldOverflowEmbedded returns the depth of the outermost embedded
// container that cannot absorb n more bytes, or -1 if all fit.
func (e *editCtx) wouldOverflowEmbedded(n int) int {
	for i := 0; i < e.embLen; i++ {
		if embSize(e.buf, e.embAt(i).sizePos)+n > embMaxSize {
			return i
		}
	}
	return -1
}

// insertBytes shifts the container content starting at p to the right by
// len(data) bytes, writes data at p and repairs every offset that the shift
// invalidated: the container header, enclosing embedded container sizes, the
// container jump table and the enclosing top-level T-Node's jump successor
// and jump table. Callers must have verified (insertChecked / explicit
// ejection) that all enclosing embedded containers can absorb the growth.
func (e *editCtx) insertBytes(p int, data []byte) {
	n := len(data)
	if n == 0 {
		return
	}
	free := e.makeRoom(n)
	buf := e.buf
	end := ctrSize(buf) - free
	copy(buf[p+n:end+n], buf[p:end])
	copy(buf[p:p+n], data)
	setCtrFree(buf, free-n)
	for i := 0; i < e.embLen; i++ {
		buf[e.embAt(i).sizePos] += byte(n)
	}
	e.fixupInsert(p, n)
}

// fixupInsert repairs stored offsets after n bytes were inserted at p.
func (e *editCtx) fixupInsert(p, n int) {
	buf := e.buf
	// Container jump table: entries reference T-Node positions from the
	// container start.
	steps := ctrJTSteps(buf)
	for i := 0; i < steps*ctrJTStep; i++ {
		key, off := ctrJTEntry(buf, i)
		if off != 0 && off >= p {
			setCtrJTEntry(buf, i, key, off+n)
		}
	}
	// Enclosing top-level T-Node: jump successor and jump table.
	if e.topT >= 0 && e.topT < p {
		tPos := e.topT
		hdr := buf[tPos]
		if tHasJS(hdr) {
			if js := tNodeJS(buf, tPos); js > 0 && tPos+js >= p {
				setTNodeJS(buf, tPos, js+n)
			}
		}
		if tHasJT(hdr) {
			for i := 0; i < tJTEntries; i++ {
				key, off := tNodeJTEntry(buf, tPos, i)
				if off != 0 && tPos+off >= p {
					setTNodeJTEntry(buf, tPos, i, key, off+n)
				}
			}
		}
	}
}

// deleteBytes removes n bytes starting at p, zero-fills the vacated tail
// (paper Figure 8c) and repairs stored offsets. Offsets pointing into the
// removed range are invalidated.
func (e *editCtx) deleteBytes(p, n int) {
	if n == 0 {
		return
	}
	buf := e.buf
	end := ctrContentEnd(buf)
	copy(buf[p:end-n], buf[p+n:end])
	for i := end - n; i < end; i++ {
		buf[i] = 0
	}
	newFree := ctrFree(buf) + n
	for i := 0; i < e.embLen; i++ {
		buf[e.embAt(i).sizePos] -= byte(n)
	}
	// Container jump table.
	steps := ctrJTSteps(buf)
	for i := 0; i < steps*ctrJTStep; i++ {
		key, off := ctrJTEntry(buf, i)
		if off == 0 {
			continue
		}
		switch {
		case off >= p+n:
			setCtrJTEntry(buf, i, key, off-n)
		case off >= p:
			setCtrJTEntry(buf, i, 0, 0)
		}
	}
	// Enclosing top-level T-Node.
	if e.topT >= 0 && e.topT < p {
		tPos := e.topT
		hdr := buf[tPos]
		if tHasJS(hdr) {
			if js := tNodeJS(buf, tPos); js > 0 {
				switch {
				case tPos+js >= p+n:
					setTNodeJS(buf, tPos, js-n)
				case tPos+js >= p:
					setTNodeJS(buf, tPos, 0)
				}
			}
		}
		if tHasJT(hdr) {
			for i := 0; i < tJTEntries; i++ {
				key, off := tNodeJTEntry(buf, tPos, i)
				if off == 0 {
					continue
				}
				switch {
				case tPos+off >= p+n:
					setTNodeJTEntry(buf, tPos, i, key, off-n)
				case tPos+off >= p:
					setTNodeJTEntry(buf, tPos, i, 0, 0)
				}
			}
		}
	}
	if newFree > 255 {
		e.shrink(newFree)
		return
	}
	setCtrFree(buf, newFree)
}

// shrink reallocates the container so that the unused tail stays below the
// 8-bit free field (paper: "occasionally triggers a reallocation ... to keep
// the unused free memory small").
func (e *editCtx) shrink(newFree int) {
	buf := e.buf
	content := ctrSize(buf) - ctrFree(buf) // free field still holds the old value
	content -= newFree - ctrFree(buf)      // account for the bytes just removed
	newSize := roundUp32(content)
	if newSize < initialContainerSz {
		newSize = initialContainerSz
	}
	setCtrSize(buf, newSize)
	setCtrFree(buf, newSize-content)
	if !e.slot.isChained() {
		newHP, nb := e.t.alloc.Realloc(e.slot.hp, newSize)
		if newHP != e.slot.hp {
			e.slot.hp = newHP
			e.slot.writeback(newHP)
		}
		e.buf = nb
	}
}

// materializeKey converts a delta-encoded node into one with an explicit key
// byte. It is required before a node's preceding sibling is removed or when a
// new sibling with an incompatible delta is inserted in front of it.
func (e *editCtx) materializeKey(pos int, key byte) {
	hdr := e.buf[pos]
	if nodeDelta(hdr) == 0 {
		return
	}
	setNodeDelta(e.buf, pos, 0)
	e.t.stats.DeltaEncodedNodes--
	e.insertBytes(pos+1, []byte{key})
	// If the node is a T-Node carrying jump metadata, its own targets (which
	// all lie behind the freshly inserted key byte) shifted by one.
	hdr = e.buf[pos]
	if !nodeIsS(hdr) {
		if tHasJS(hdr) {
			if js := tNodeJS(e.buf, pos); js > 0 {
				setTNodeJS(e.buf, pos, js+1)
			}
		}
		if tHasJT(hdr) {
			for i := 0; i < tJTEntries; i++ {
				k, off := tNodeJTEntry(e.buf, pos, i)
				if off != 0 {
					setTNodeJTEntry(e.buf, pos, i, k, off+1)
				}
			}
		}
	}
}

// rebaseSibling adjusts the delta encoding of the sibling node at sibPos
// (absolute key succKey) after a new sibling with key newKey was inserted
// directly in front of it.
func (e *editCtx) rebaseSibling(sibPos int, succKey, newKey int) {
	if sibPos < 0 || succKey < 0 {
		return
	}
	hdr := e.buf[sibPos]
	if nodeDelta(hdr) == 0 {
		return // explicit keys never need rebasing
	}
	d := succKey - newKey
	if e.t.cfg.DeltaEncoding && d >= 1 && d <= 7 {
		setNodeDelta(e.buf, sibPos, d)
		return
	}
	e.materializeKey(sibPos, byte(succKey))
}
