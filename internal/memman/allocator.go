package memman

import (
	"fmt"
	"math/bits"
	"sync/atomic"
)

// Size-class constants (paper §3.2).
const (
	// ChunkAlign is the allocation granularity of the small size classes.
	ChunkAlign = 32
	// MaxSmallAlloc is the largest request served from the small size
	// classes (superbins 1..63 in the paper's numbering). Anything larger
	// goes to the extended-bin superbin (paper SB0).
	MaxSmallAlloc = ChunkAlign * (NumSuperbins - 1) // 2016
	// ChainLen is the number of consecutive extended-bin chunks owned by a
	// chained extended bin (used by vertically split containers).
	ChainLen = 8
)

// Internal superbin field encoding: field values 0..62 are the small size
// classes of 32*(field+1) bytes, field value 63 is the extended-bin superbin.
// The paper numbers them the other way round (SB0 = extended, SBi = 32*i); the
// translation happens only in Stats so that the reserved all-zero HP lands in
// the heavily used 32-byte class rather than in the extended superbin.
const extendedSB = NumSuperbins - 1 // 63

// classForSize returns the internal superbin field value for a small request.
func classForSize(size int) int {
	if size <= 0 {
		size = 1
	}
	return (size + ChunkAlign - 1) / ChunkAlign // 1..63
}

// classChunkSize returns the chunk size of an internal small superbin field.
func classChunkSize(field int) int { return ChunkAlign * (field + 1) }

// roundExtended applies the paper's extended-bin growth increments: requests
// up to 8 KiB grow in 256-byte steps, up to 16 KiB in 1 KiB steps, and in
// 4 KiB steps beyond that.
func roundExtended(size int) int {
	switch {
	case size <= 8*1024:
		return (size + 255) &^ 255
	case size <= 16*1024:
		return (size + 1023) &^ 1023
	default:
		return (size + 4095) &^ 4095
	}
}

// targetBlockBytes is the granularity at which a bin's backing memory is
// allocated. The paper backs a whole 4,096-chunk bin with one memory-mapped
// segment whose untouched pages cost nothing; Go slices are committed memory,
// so bins allocate their segment lazily in roughly page-sized blocks instead.
const targetBlockBytes = 8192

// blockChunksFor returns the number of chunks per backing block for a size
// class: a power of two that divides ChunksPerBin, so blocks align with bitmap
// words where possible and a chunk index splits into block and slot with a
// shift and a mask (bin.blockShift, bin.blockMask) instead of two divisions.
func blockChunksFor(chunkSize int) int {
	bc := 4
	for bc < 256 && bc*chunkSize < targetBlockBytes {
		bc *= 2
	}
	return bc
}

// bin is a fixed-capacity group of ChunksPerBin equally sized chunks. Backing
// memory is allocated lazily in blocks of blockChunks chunks. The block table
// has a fixed length (set at bin creation) and each block pointer is
// published atomically, so lock-free readers can resolve a chunk without
// observing a torn slice header; only Alloc materialises missing blocks.
type bin struct {
	blocks []atomic.Pointer[[]byte]
	// A chunk lives in block chunk>>blockShift at slot chunk&blockMask; both
	// are fixed at bin creation from the class's blockChunksFor.
	blockShift uint8
	blockMask  int
	used       [ChunksPerBin / 64]uint64
	usedCount  int
	liveBlocks int
}

// blockChunks returns the number of chunks per backing block.
func (b *bin) blockChunks() int { return b.blockMask + 1 }

func newBin(blockChunks int) *bin {
	return &bin{
		blocks:     make([]atomic.Pointer[[]byte], ChunksPerBin/blockChunks),
		blockShift: uint8(bits.TrailingZeros(uint(blockChunks))),
		blockMask:  blockChunks - 1,
	}
}

func (b *bin) isFull() bool { return b.usedCount == ChunksPerBin }

func (b *bin) take(chunk int) {
	b.used[chunk/64] |= 1 << (uint(chunk) % 64)
	b.usedCount++
}

func (b *bin) release(chunk int) {
	b.used[chunk/64] &^= 1 << (uint(chunk) % 64)
	b.usedCount--
}

func (b *bin) inUse(chunk int) bool {
	return b.used[chunk/64]&(1<<(uint(chunk)%64)) != 0
}

// firstFree returns the index of the first free chunk, or -1 if the bin is
// full. The word-wise scan is the portable analogue of the paper's SIMD scan.
func (b *bin) firstFree() int {
	for w, word := range b.used {
		if word != ^uint64(0) {
			return w*64 + bits.TrailingZeros64(^word)
		}
	}
	return -1
}

// extEntry is one extended-bin record (paper: 16-byte eHP stored in SB0). It
// owns an individual heap allocation that can grow in place without changing
// the HP that references it. The buffer pointer is published atomically so a
// lock-free reader never tears the slice header while a writer replaces the
// buffer; a replaced buffer stays alive (and intact) for readers that loaded
// it, courtesy of the garbage collector.
type extEntry struct {
	buf       atomic.Pointer[[]byte]
	requested int32
	inUse     bool
	chainHead bool // first chunk of a chained extended bin
	chainSlot bool // non-head member of a chained extended bin
}

func (e *extEntry) buffer() []byte {
	if p := e.buf.Load(); p != nil {
		return *p
	}
	return nil
}

func (e *extEntry) setBuffer(b []byte) {
	if b == nil {
		e.buf.Store(nil)
		return
	}
	e.buf.Store(&b)
}

func (e *extEntry) reset() {
	e.buf.Store(nil)
	e.requested = 0
	e.inUse = false
	e.chainHead = false
	e.chainSlot = false
}

// extBin is the extended-bin analogue of bin: up to ChunksPerBin records,
// with the record table grown on demand. Records are pointers (the table is
// append-published; extEntry contains an atomic and must not be copied).
type extBin struct {
	entries   pubSlice[*extEntry]
	usedCount int
}

func (b *extBin) isFull() bool { return b.usedCount == ChunksPerBin }

// at returns the record for a chunk index, panicking on dangling references.
func (b *extBin) at(chunk int) *extEntry {
	es := b.entries.load()
	if chunk >= len(es) {
		panic(fmt.Sprintf("memman: dangling extended chunk %d (table holds %d)", chunk, len(es)))
	}
	return es[chunk]
}

// metabin groups up to BinsPerMetabin bins. The bin tables grow on demand.
type metabin struct {
	bins    pubSlice[*bin]
	extBins pubSlice[*extBin]
	// nonFull tracks bins that exist and still have free chunks.
	nonFull  [BinsPerMetabin / 64]uint64
	numBins  int
	fullBins int
}

func (m *metabin) markNonFull(bin int, nonFull bool) {
	if nonFull {
		m.nonFull[bin/64] |= 1 << (uint(bin) % 64)
	} else {
		m.nonFull[bin/64] &^= 1 << (uint(bin) % 64)
	}
}

// bin returns the i-th bin or nil if it does not exist yet.
func (m *metabin) bin(i int) *bin {
	bs := m.bins.load()
	if i >= len(bs) {
		return nil
	}
	return bs[i]
}

// extBin returns the i-th extended bin or nil if it does not exist yet.
func (m *metabin) extBin(i int) *extBin {
	ebs := m.extBins.load()
	if i >= len(ebs) {
		return nil
	}
	return ebs[i]
}

func (m *metabin) firstNonFull() int {
	for w, word := range m.nonFull {
		if word != 0 {
			return w*64 + bits.TrailingZeros64(word)
		}
	}
	return -1
}

// superbin is one size class.
type superbin struct {
	field     int // internal field value
	chunkSize int // 0 for the extended superbin
	metabins  pubSlice[*metabin]
	// nonFull is a small cache of metabin IDs that are known to have free
	// capacity (paper: sorted list of 16 non-full metabin IDs).
	nonFull []int
}

// Allocator is Hyperion's memory manager. The store creates one allocator per
// arena (paper §3.2, Arenas). Mutations require external synchronisation (the
// shard writer lock); resolution of live HPs (Resolve, ChainedSlot,
// ResolveChained, Capacity) is safe from lock-free readers because every
// table a reader dereferences is published atomically and freed memory is
// only recycled through the epoch-deferred queue.
type Allocator struct {
	superbins [NumSuperbins]superbin

	// accounting
	slabBytes     int64 // bytes reserved by small-class slabs
	extBytes      int64 // bytes held by extended-bin buffers
	metaBytes     int64 // bookkeeping structures (bins, metabins, entries)
	allocatedSm   int64 // small chunks currently allocated
	allocatedExt  int64 // extended entries currently allocated
	requestedSm   int64 // bytes requested from small classes (current)
	requestedExt  int64 // bytes requested from extended bins (current)
	totalAllocs   int64 // cumulative allocation operations
	totalReallocs int64
	totalFrees    int64

	// epoch-deferred reclamation (see retire.go)
	deferFrees  bool
	retireEpoch uint64
	retired     []retiredRef
	retiredHead int
	reclaimed   int64
}

// New creates an empty allocator. The chunk that would encode to the nil HP is
// reserved immediately so it can never be handed out.
func New() *Allocator {
	a := &Allocator{}
	for i := range a.superbins {
		a.superbins[i].field = i
		if i != extendedSB {
			a.superbins[i].chunkSize = classChunkSize(i)
		}
	}
	// Reserve the all-zero HP: chunk 0 of bin 0 of metabin 0 of field 0
	// (the 32-byte class).
	sb := &a.superbins[0]
	mb := a.ensureMetabin(sb, 0)
	b := a.ensureBin(sb, mb, 0)
	b.take(0)
	return a
}

func (a *Allocator) ensureMetabin(sb *superbin, id int) *metabin {
	mbs := sb.metabins.load()
	grew := false
	for len(mbs) <= id {
		mbs = append(mbs, nil)
		grew = true
	}
	if mbs[id] == nil {
		mbs[id] = &metabin{}
		a.metaBytes += 128 // metabin housekeeping; bin tables are accounted as they grow
	}
	if grew {
		sb.metabins.store(mbs)
	}
	return mbs[id]
}

func (a *Allocator) ensureBin(sb *superbin, mb *metabin, id int) *bin {
	bs := mb.bins.load()
	grew := false
	for len(bs) <= id {
		bs = append(bs, nil)
		a.metaBytes += 8
		grew = true
	}
	if bs[id] == nil {
		b := newBin(blockChunksFor(sb.chunkSize))
		bs[id] = b
		mb.numBins++
		mb.markNonFull(id, true)
		a.metaBytes += int64(len(b.used)*8 + len(b.blocks)*8)
	}
	if grew {
		mb.bins.store(bs)
	}
	return bs[id]
}

func (a *Allocator) ensureExtBin(mb *metabin, id int) *extBin {
	ebs := mb.extBins.load()
	grew := false
	for len(ebs) <= id {
		ebs = append(ebs, nil)
		a.metaBytes += 8
		grew = true
	}
	if ebs[id] == nil {
		// The record table grows on demand; a full bin would hold
		// ChunksPerBin records.
		b := &extBin{}
		b.entries.store(make([]*extEntry, 0, 64))
		ebs[id] = b
		mb.numBins++
		mb.markNonFull(id, true)
		a.metaBytes += 64
	}
	if grew {
		mb.extBins.store(ebs)
	}
	return ebs[id]
}

// growExtBin appends n zeroed records to the extended bin's table.
func (a *Allocator) growExtBin(eb *extBin, n int) {
	es := eb.entries.load()
	for i := 0; i < n; i++ {
		es = append(es, &extEntry{})
	}
	eb.entries.store(es)
	a.metaBytes += int64(n * 48)
}

// findSlot locates (or creates) a free chunk in superbin sb and returns its
// metabin, bin and chunk indices. extended selects the record type.
func (a *Allocator) findSlot(sb *superbin, extended bool) (mbID, binID, chunkID int) {
	mbs := sb.metabins.load()
	// Try cached non-full metabins first.
	for i := 0; i < len(sb.nonFull); i++ {
		mbID = sb.nonFull[i]
		if mbID < len(mbs) && mbs[mbID] != nil {
			if binID = mbs[mbID].firstNonFull(); binID >= 0 {
				goto found
			}
		}
		// Stale cache entry: drop it.
		sb.nonFull = append(sb.nonFull[:i], sb.nonFull[i+1:]...)
		i--
	}
	// Scan all metabins, then grow.
	for id := 0; id < len(mbs); id++ {
		if mbs[id] == nil {
			continue
		}
		if binID = mbs[id].firstNonFull(); binID >= 0 {
			mbID = id
			goto found
		}
		if mbs[id].numBins < BinsPerMetabin {
			mbID = id
			binID = mbs[id].numBins
			goto found
		}
	}
	// All existing metabins are exhausted; create a new one.
	mbID = len(mbs)
	if mbID >= MaxMetabins {
		panic("memman: superbin exhausted (2^34 chunks)")
	}
	a.ensureMetabin(sb, mbID)
	binID = 0

found:
	mb := a.ensureMetabin(sb, mbID)
	if len(sb.nonFull) < 16 && !containsInt(sb.nonFull, mbID) {
		sb.nonFull = append(sb.nonFull, mbID)
	}
	if extended {
		eb := a.ensureExtBin(mb, binID)
		es := eb.entries.load()
		chunkID = -1
		for i, e := range es {
			if !e.inUse {
				chunkID = i
				break
			}
		}
		if chunkID < 0 && len(es) < ChunksPerBin {
			a.growExtBin(eb, 1)
			chunkID = len(es)
		}
		if chunkID < 0 {
			mb.markNonFull(binID, false)
			return a.findSlot(sb, extended)
		}
	} else {
		b := a.ensureBin(sb, mb, binID)
		chunkID = b.firstFree()
		if chunkID < 0 {
			mb.markNonFull(binID, false)
			return a.findSlot(sb, extended)
		}
	}
	return mbID, binID, chunkID
}

func containsInt(s []int, v int) bool {
	for _, x := range s {
		if x == v {
			return true
		}
	}
	return false
}

// Alloc reserves memory for a request of size bytes and returns the HP plus
// the backing byte slice. The slice length equals the granted capacity (the
// size class for small requests, the rounded extended size otherwise); callers
// track their own logical size, exactly like Hyperion containers do with their
// size/free header fields.
func (a *Allocator) Alloc(size int) (HP, []byte) {
	a.totalAllocs++
	if size <= MaxSmallAlloc {
		field := classForSize(size) - 1
		sb := &a.superbins[field]
		mbID, binID, chunkID := a.findSlot(sb, false)
		mb := sb.metabins.load()[mbID]
		b := mb.bin(binID)
		b.take(chunkID)
		if b.isFull() {
			mb.markNonFull(binID, false)
		}
		a.allocatedSm++
		a.requestedSm += int64(sb.chunkSize)
		hp := MakeHP(field, mbID, binID, chunkID)
		return hp, a.chunkSlice(sb, b, chunkID)
	}
	// Extended bin.
	sb := &a.superbins[extendedSB]
	mbID, binID, chunkID := a.findSlot(sb, true)
	mb := sb.metabins.load()[mbID]
	eb := mb.extBin(binID)
	granted := roundExtended(size)
	buf := make([]byte, granted)
	e := eb.at(chunkID)
	e.setBuffer(buf)
	e.requested = int32(size)
	e.inUse = true
	e.chainHead = false
	e.chainSlot = false
	eb.usedCount++
	if eb.isFull() {
		mb.markNonFull(binID, false)
	}
	a.allocatedExt++
	a.requestedExt += int64(size)
	a.extBytes += int64(granted)
	return MakeHP(extendedSB, mbID, binID, chunkID), buf
}

// chunkSlice returns the backing slice of a small chunk, materialising the
// block if needed. Writer-only: lock-free readers go through chunkRO.
func (a *Allocator) chunkSlice(sb *superbin, b *bin, chunk int) []byte {
	blockID := chunk >> b.blockShift
	bp := b.blocks[blockID].Load()
	if bp == nil {
		blk := make([]byte, b.blockChunks()*sb.chunkSize)
		b.blocks[blockID].Store(&blk)
		b.liveBlocks++
		a.slabBytes += int64(len(blk))
		bp = &blk
	}
	off := (chunk & b.blockMask) * sb.chunkSize
	return (*bp)[off : off+sb.chunkSize : off+sb.chunkSize]
}

// chunkRO resolves a small chunk without mutating allocator state. A missing
// block means the HP dangles (its block was released); that is a programming
// error for writers and a recoverable torn-read signal for optimistic
// readers, so it panics either way.
func (b *bin) chunkRO(hp HP, chunkSize, chunk int) []byte {
	bp := b.blocks[chunk>>b.blockShift].Load()
	if bp == nil {
		panic(fmt.Sprintf("memman: dangling %v (released block)", hp))
	}
	off := (chunk & b.blockMask) * chunkSize
	return (*bp)[off : off+chunkSize : off+chunkSize]
}

// locate returns the containers behind an HP. It panics on nil or dangling
// HPs: those are always programming errors in the trie layer.
func (a *Allocator) locate(hp HP) (*superbin, *metabin, int) {
	if hp.IsNil() {
		panic("memman: resolve of nil HP")
	}
	sb := &a.superbins[hp.Superbin()]
	mbID := hp.Metabin()
	mbs := sb.metabins.load()
	if mbID >= len(mbs) || mbs[mbID] == nil {
		panic(fmt.Sprintf("memman: dangling %v (no metabin)", hp))
	}
	return sb, mbs[mbID], hp.Bin()
}

// liveExtEntry returns the in-use extended record behind hp, panicking on a
// dangling reference like locate does.
func liveExtEntry(mb *metabin, binID int, hp HP) *extEntry {
	eb := mb.extBin(binID)
	if eb == nil {
		panic(fmt.Sprintf("memman: dangling %v (no extended bin)", hp))
	}
	e := eb.at(hp.Chunk())
	if !e.inUse {
		panic(fmt.Sprintf("memman: dangling %v (freed extended entry)", hp))
	}
	return e
}

// liveChunk returns the bytes of the in-use small chunk behind hp.
func liveChunk(sb *superbin, mb *metabin, binID int, hp HP) []byte {
	b := mb.bin(binID)
	if b == nil || !b.inUse(hp.Chunk()) {
		panic(fmt.Sprintf("memman: dangling %v (freed chunk)", hp))
	}
	return b.chunkRO(hp, sb.chunkSize, hp.Chunk())
}

// Resolve translates a (non-chained) HP into its backing byte slice. It does
// not mutate allocator state and is safe for pinned lock-free readers.
func (a *Allocator) Resolve(hp HP) []byte {
	sb, mb, binID := a.locate(hp)
	if sb.field == extendedSB {
		return liveExtEntry(mb, binID, hp).buffer()
	}
	return liveChunk(sb, mb, binID, hp)
}

// Capacity returns the granted capacity behind hp without touching the data.
func (a *Allocator) Capacity(hp HP) int {
	sb, mb, binID := a.locate(hp)
	if sb.field == extendedSB {
		eb := mb.extBin(binID)
		if eb == nil {
			panic(fmt.Sprintf("memman: dangling %v (no extended bin)", hp))
		}
		return len(eb.at(hp.Chunk()).buffer())
	}
	return sb.chunkSize
}

// Free releases the chunk behind hp. With deferred reclamation enabled
// (DeferFrees) the release is queued until the current retire epoch is
// provably quiescent; until then the chunk stays occupied and its bytes stay
// intact for any reader that still holds a stale pointer into it.
func (a *Allocator) Free(hp HP) {
	a.totalFrees++
	if a.deferFrees {
		a.retire(hp, false)
		return
	}
	a.reallyFree(hp)
}

// reallyFree performs the actual release (immediately from Free, or from
// DrainRetired once the retire epoch is safe).
func (a *Allocator) reallyFree(hp HP) {
	sb, mb, binID := a.locate(hp)
	if sb.field == extendedSB {
		eb := mb.extBin(binID)
		e := eb.at(hp.Chunk())
		if !e.inUse {
			panic(fmt.Sprintf("memman: double free of %v", hp))
		}
		a.extBytes -= int64(len(e.buffer()))
		a.requestedExt -= int64(e.requested)
		a.allocatedExt--
		e.reset()
		eb.usedCount--
		mb.markNonFull(binID, true)
		return
	}
	b := mb.bin(binID)
	if b == nil || !b.inUse(hp.Chunk()) {
		panic(fmt.Sprintf("memman: double free of %v", hp))
	}
	b.release(hp.Chunk())
	a.allocatedSm--
	a.requestedSm -= int64(sb.chunkSize) // approximation: requested size not tracked per chunk
	mb.markNonFull(binID, true)
	a.maybeReleaseBlock(b, hp.Chunk())
}

// maybeReleaseBlock returns a block's backing memory to the runtime once none
// of its chunks are in use, so transient passage of growing containers
// through a size class does not pin memory (the paper's mmap'ed segments get
// this for free from the OS).
func (a *Allocator) maybeReleaseBlock(b *bin, chunk int) {
	blockID := chunk >> b.blockShift
	if blockID >= len(b.blocks) {
		return
	}
	bp := b.blocks[blockID].Load()
	if bp == nil {
		return
	}
	first := chunk &^ b.blockMask
	for c := first; c <= first+b.blockMask; c++ {
		if b.inUse(c) {
			return
		}
	}
	a.slabBytes -= int64(len(*bp))
	b.blocks[blockID].Store(nil)
	b.liveBlocks--
}

// Realloc grows or shrinks the allocation behind hp to newSize bytes and
// returns the (possibly changed) HP and backing slice. Extended allocations
// keep their HP (only their heap buffer is replaced); small allocations move
// to a different size class when necessary, in which case the caller must
// write the returned HP back into the parent container.
func (a *Allocator) Realloc(hp HP, newSize int) (HP, []byte) {
	a.totalReallocs++
	sb, mb, binID := a.locate(hp)
	if sb.field == extendedSB {
		eb := mb.extBin(binID)
		e := eb.at(hp.Chunk())
		if newSize <= MaxSmallAlloc {
			// Shrink back into a small class.
			newHP, dst := a.Alloc(newSize)
			copy(dst, e.buffer())
			a.Free(hp)
			return newHP, dst
		}
		granted := roundExtended(newSize)
		old := e.buffer()
		if granted != len(old) {
			nb := make([]byte, granted)
			copy(nb, old)
			a.extBytes += int64(granted - len(old))
			e.setBuffer(nb)
			old = nb
		}
		a.requestedExt += int64(newSize) - int64(e.requested)
		e.requested = int32(newSize)
		return hp, old
	}
	// Small chunk.
	if newSize <= sb.chunkSize && newSize > sb.chunkSize-ChunkAlign {
		// Same class: nothing to do.
		b := mb.bin(binID)
		return hp, a.chunkSlice(sb, b, hp.Chunk())
	}
	old := a.Resolve(hp)
	newHP, dst := a.Alloc(newSize)
	copy(dst, old)
	a.Free(hp)
	return newHP, dst
}

// AllocatedChunks returns the number of currently allocated chunks (small and
// extended combined).
func (a *Allocator) AllocatedChunks() int64 { return a.allocatedSm + a.allocatedExt }

// Footprint returns the total number of bytes the allocator holds from the Go
// runtime: slabs, extended buffers and bookkeeping overhead.
func (a *Allocator) Footprint() int64 { return a.slabBytes + a.extBytes + a.metaBytes }
