package core

import (
	"sync/atomic"

	"repro/internal/memman"
)

// Tree is one Hyperion trie: a 65,536-ary radix tree whose nodes are
// containers managed by a dedicated memory manager. A Tree is not safe for
// concurrent use; the hyperion package wraps Trees in arenas for coarse
// grained parallelism (paper §3.2).
type Tree struct {
	cfg    Config
	alloc  *memman.Allocator
	rootHP memman.HP
	stats  Stats

	// The empty key cannot be represented in the container encoding (every
	// node consumes at least one key byte); it is stored directly.
	emptyExists bool
	emptyHas    bool
	emptyValue  uint64

	// Reused node-census scratch (tNodes/sNodes in scan.go): jump-table
	// rebuilds and container splits walk whole streams and used to allocate
	// fresh positions/keys slices on every rebuild. The slices stay on the
	// tree (which is heap-resident anyway), so steady-state rebuilds are
	// allocation-free once the scratch has grown to the working-set size.
	tPosScratch []int
	tKeyScratch []byte
	sPosScratch []int
	sKeyScratch []byte

	// bulkScratch is the reusable stream-assembly buffer of the bulk
	// ingestion path (bulk.go).
	bulkScratch []byte

	// seq is the tree's publication sequence (publish.go): odd while a
	// structural mutation is in flight, even when the tree is quiescent.
	// Lock-free readers snapshot it before and after an optimistic walk.
	seq atomic.Uint64
}

// New creates an empty tree with its own memory manager.
func New(cfg Config) *Tree {
	return NewWithAllocator(cfg, memman.New())
}

// NewWithAllocator creates an empty tree on top of an existing allocator.
// Several trees may share one allocator as long as they are used from a
// single goroutine (the arena model).
func NewWithAllocator(cfg Config, alloc *memman.Allocator) *Tree {
	return &Tree{cfg: cfg, alloc: alloc}
}

// Config returns the configuration the tree was created with.
func (t *Tree) Config() Config { return t.cfg }

// Len returns the number of stored keys.
func (t *Tree) Len() int64 { return t.stats.Keys }

// Stats returns the engine's structural counters.
func (t *Tree) Stats() Stats { return t.stats }

// Allocator exposes the tree's memory manager (for footprint reporting and
// the per-superbin fragmentation figures).
func (t *Tree) Allocator() *memman.Allocator { return t.alloc }

// MemoryFootprint returns the bytes the tree's allocator holds from the Go
// runtime.
func (t *Tree) MemoryFootprint() int64 { return t.alloc.Footprint() }

// Put stores key with the given value, overwriting any previous value.
func (t *Tree) Put(key []byte, value uint64) { t.put(key, value, true) }

// PutKey stores key without an attached value (a set member; node type 10 in
// the paper's encoding).
func (t *Tree) PutKey(key []byte) { t.put(key, 0, false) }

// Get returns the value stored for key. ok is false if the key is absent or
// was stored without a value.
//
//hyperion:noalloc
func (t *Tree) Get(key []byte) (value uint64, ok bool) {
	value, ok, _ = t.Find(key)
	return value, ok
}

// Has reports whether key is stored, with or without a value.
//
//hyperion:noalloc
func (t *Tree) Has(key []byte) bool {
	_, _, exists := t.Find(key)
	return exists
}

func (t *Tree) put(key []byte, value uint64, hasValue bool) {
	if len(key) == 0 {
		if !t.emptyExists {
			t.emptyExists = true
			t.stats.Keys++
		}
		if hasValue {
			t.emptyHas = true
			t.emptyValue = value
		}
		return
	}
	if t.rootHP.IsNil() {
		hp, buf := t.alloc.Alloc(initialContainerSz)
		initContainer(buf, initialContainerSz, 0)
		t.rootHP = hp
		t.stats.Containers++
	}
	t.putLoop(t.rootSlot(key[0]), key, value, hasValue)
}

// rootSlot builds the container slot for the root container, taking a split
// root (chained HP) into account.
func (t *Tree) rootSlot(k0 byte) containerSlot {
	if t.alloc.IsChained(t.rootHP) {
		_, idx := t.alloc.ResolveChained(t.rootHP, k0)
		return containerSlot{chain: t.rootHP, chainIdx: idx}
	}
	return containerSlot{hp: t.rootHP, root: t}
}

// putLoop descends through top-level containers, two key bytes per container.
// Slots are plain values living in this frame, so the whole descent performs
// no per-level heap allocation.
func (t *Tree) putLoop(slot containerSlot, key []byte, value uint64, hasValue bool) {
	for {
		descend, rest := t.putInContainer(&slot, key, value, hasValue)
		if !descend.valid() {
			return
		}
		slot, key = descend, rest
	}
}

// putInContainer performs the insertion steps local to one top-level
// container. Structural maintenance (ejections, jump table growth, container
// splits) may require restarting the scan; the loop converges because every
// restart strictly reduces the remaining maintenance work.
func (t *Tree) putInContainer(slot *containerSlot, key []byte, value uint64, hasValue bool) (containerSlot, []byte) {
	var e editCtx
	for {
		if t.maybeSplit(slot, key[0]) {
			continue
		}
		e.init(t, *slot, slot.resolve(t))
		descend, rest, restart := t.putInStream(&e, key, value, hasValue)
		// The edit may have moved the container (growth, shrink); sync the
		// caller's slot with the authoritative post-edit state.
		*slot = e.slot
		if restart {
			continue
		}
		return descend, rest
	}
}

// Find is the one point lookup: it walks the trie for key and reports the
// stored value, whether a value is attached (Get's ok) and whether the key
// exists at all (Has). Get and Has are projections of it.
//
//hyperion:noalloc
func (t *Tree) Find(key []byte) (value uint64, hasValue bool, exists bool) {
	if len(key) == 0 {
		return t.emptyValue, t.emptyExists && t.emptyHas, t.emptyExists
	}
	if t.rootHP.IsNil() {
		return 0, false, false
	}
	hp := t.rootHP
	rest := key
	for {
		buf, _ := t.alloc.ResolveChained(hp, rest[0])
		v, hv, ex, nextHP, nextRest := t.findInStream(buf, topRegion(buf), rest, true)
		if nextHP.IsNil() {
			return v, hv, ex
		}
		hp, rest = nextHP, nextRest
	}
}
