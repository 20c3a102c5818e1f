package memman

import "fmt"

// Chained extended bins (paper §3.2): eight extended-bin chunks allocated and
// freed atomically. A single HP, pointing at the first of eight consecutive
// chunks in an extended bin, owns all eight slots. Vertically split containers
// use one slot per 32-key T-Node range; slots without a container keep a nil
// buffer ("void" heap pointers in the paper).

// AllocChained reserves eight consecutive extended-bin chunks and returns the
// HP of the first one. All slots start out void.
func (a *Allocator) AllocChained() HP {
	a.totalAllocs++
	sb := &a.superbins[extendedSB]
	// Find a bin with eight consecutive free entries.
	for mbID := 0; ; mbID++ {
		if mbID >= MaxMetabins {
			panic("memman: extended superbin exhausted")
		}
		mb := a.ensureMetabin(sb, mbID)
		for binID := 0; binID < BinsPerMetabin; binID++ {
			eb := a.ensureExtBin(mb, binID)
			if eb.usedCount+ChainLen > ChunksPerBin {
				continue
			}
			es := eb.entries.load()
			start := -1
			run := 0
			for i, e := range es {
				if e.inUse {
					run = 0
					continue
				}
				run++
				if run == ChainLen {
					start = i - ChainLen + 1
					break
				}
			}
			if start < 0 {
				// No run among the existing records: extend the table.
				if len(es)+ChainLen > ChunksPerBin {
					continue
				}
				start = len(es)
				a.growExtBin(eb, ChainLen)
				es = eb.entries.load()
			}
			for j := start; j < start+ChainLen; j++ {
				e := es[j]
				e.inUse = true
				e.chainHead = j == start
				e.chainSlot = j != start
				e.requested = 0
			}
			eb.usedCount += ChainLen
			if eb.isFull() {
				mb.markNonFull(binID, false)
			}
			a.allocatedExt += ChainLen
			return MakeHP(extendedSB, mbID, binID, start)
		}
	}
}

// IsChained reports whether hp is the head of a chained extended bin. It is
// read-only and safe for pinned lock-free readers.
func (a *Allocator) IsChained(hp HP) bool {
	if hp.IsNil() || hp.Superbin() != extendedSB {
		return false
	}
	_, mb, binID := a.locate(hp)
	eb := mb.extBin(binID)
	if eb == nil {
		return false
	}
	es := eb.entries.load()
	if hp.Chunk() >= len(es) {
		return false
	}
	e := es[hp.Chunk()]
	return e.inUse && e.chainHead
}

func (a *Allocator) chainEntry(hp HP, slot int) *extEntry {
	if slot < 0 || slot >= ChainLen {
		panic(fmt.Sprintf("memman: chained slot %d out of range", slot))
	}
	_, mb, binID := a.locate(hp)
	eb := mb.extBin(binID)
	if eb == nil {
		panic(fmt.Sprintf("memman: dangling chained %v (no extended bin)", hp))
	}
	e := eb.at(hp.Chunk() + slot)
	if !e.inUse {
		panic(fmt.Sprintf("memman: dangling chained %v slot %d", hp, slot))
	}
	return e
}

// ChainedSlot returns the buffer of the given slot, or nil if the slot is
// void. Read-only; safe for pinned lock-free readers.
func (a *Allocator) ChainedSlot(hp HP, slot int) []byte {
	return a.chainEntry(hp, slot).buffer()
}

// SetChainedSlot (re)allocates the buffer of the given slot to hold at least
// size bytes and returns it. Existing content is preserved.
func (a *Allocator) SetChainedSlot(hp HP, slot int, size int) []byte {
	e := a.chainEntry(hp, slot)
	buf := e.buffer()
	granted := roundExtended(size)
	if granted <= len(buf) {
		a.requestedExt += int64(size) - int64(e.requested)
		e.requested = int32(size)
		return buf
	}
	nb := make([]byte, granted)
	copy(nb, buf)
	a.extBytes += int64(granted - len(buf))
	a.requestedExt += int64(size) - int64(e.requested)
	e.setBuffer(nb)
	e.requested = int32(size)
	return nb
}

// ReplaceChainedSlot allocates the slot's buffer for exactly size bytes
// WITHOUT preserving its previous content. It is the size-hint path of the
// split and bulk-ingestion writers: both overwrite the slot wholesale
// immediately afterwards, so SetChainedSlot's copy of the old content (and
// any grow ladder towards the final size) would be pure waste. One chunk
// request at the known final size replaces it.
func (a *Allocator) ReplaceChainedSlot(hp HP, slot, size int) []byte {
	e := a.chainEntry(hp, slot)
	buf := e.buffer()
	granted := roundExtended(size)
	if granted != len(buf) {
		a.extBytes += int64(granted - len(buf))
		buf = make([]byte, granted)
		e.setBuffer(buf)
	}
	a.requestedExt += int64(size) - int64(e.requested)
	e.requested = int32(size)
	return buf
}

// ClearChainedSlot releases the buffer of the given slot, making it void
// again. The chain itself remains allocated. The buffer object stays alive
// for any reader that already loaded it (GC grace), so unpinned readers never
// observe recycled bytes.
func (a *Allocator) ClearChainedSlot(hp HP, slot int) {
	e := a.chainEntry(hp, slot)
	a.extBytes -= int64(len(e.buffer()))
	a.requestedExt -= int64(e.requested)
	e.setBuffer(nil)
	e.requested = 0
}

// ResolveChained resolves hp for a walk that continues with the T-Node key
// byte key, locating it once whatever it turns out to be. For the head of a
// chained extended bin it maps the key onto the split container responsible
// for it (paper §3.3): the candidate slot is key/32, and void slots are
// skipped downwards until a populated one is found; it returns that buffer
// and the slot index that answered. For any other HP it is Resolve, and the
// slot is -1. Read-only; safe for pinned lock-free readers.
func (a *Allocator) ResolveChained(hp HP, key byte) ([]byte, int) {
	sb, mb, binID := a.locate(hp)
	if sb.field != extendedSB {
		return liveChunk(sb, mb, binID, hp), -1
	}
	e := liveExtEntry(mb, binID, hp)
	if !e.chainHead {
		return e.buffer(), -1
	}
	for slot := int(key) / 32; slot >= 0; slot-- {
		if buf := a.ChainedSlot(hp, slot); buf != nil {
			return buf, slot
		}
	}
	panic(fmt.Sprintf("memman: chained %v has no container for key %d", hp, key))
}

// FreeChained releases all eight slots and the chain itself. With deferred
// reclamation enabled the release is queued like Free.
func (a *Allocator) FreeChained(hp HP) {
	a.totalFrees++
	if a.deferFrees {
		a.retire(hp, true)
		return
	}
	a.reallyFreeChained(hp)
}

func (a *Allocator) reallyFreeChained(hp HP) {
	_, mb, binID := a.locate(hp)
	eb := mb.extBin(binID)
	es := eb.entries.load()
	start := hp.Chunk()
	if start >= len(es) || !es[start].chainHead {
		panic(fmt.Sprintf("memman: FreeChained on non-chain %v", hp))
	}
	for i := 0; i < ChainLen; i++ {
		e := es[start+i]
		a.extBytes -= int64(len(e.buffer()))
		a.requestedExt -= int64(e.requested)
		e.reset()
	}
	eb.usedCount -= ChainLen
	a.allocatedExt -= ChainLen
	mb.markNonFull(binID, true)
}
