// Package epoch implements epoch-based reclamation (EBR) for Hyperion's
// lock-free read path.
//
// The scheme is the classic three-phase RCU/EBR design: readers Pin the
// current global epoch before touching shared structure and Unpin when done;
// writers tag memory they retire with the epoch at which they unlinked it;
// retired memory may be reused only after the global epoch has advanced twice
// past the retire tag, which guarantees every reader that could have observed
// a pointer to it has since unpinned.
//
// The global epoch advances in steps of two so the low bit of a reader slot
// can mark the slot as occupied: a slot holds 0 when free and epoch|1 while
// pinned. Advancing from G to G+2 requires that every pinned slot holds
// exactly G|1 and that the overflow counter is zero, so an in-flight reader
// (or a writer pinned mid-mutation) blocks advancement rather than racing it.
//
// Go offers no cheap goroutine-local storage, so Pin hashes the address of a
// stack variable to pick a starting probe slot and claims a slot by CAS. When
// every slot is busy Pin falls back to a shared overflow counter, which keeps
// correctness (advancement stays blocked) at the cost of one contended atomic.
package epoch

import (
	"runtime"
	"sync/atomic"
	"unsafe"
)

// epochStep is the distance between consecutive global epochs. The low bit of
// a slot word is the "pinned" marker, so epochs are always even.
const epochStep = 2

// firstEpoch is the initial global epoch. It leaves room below it so that
// SafeEpoch (global - 2*epochStep) never wraps for a fresh domain.
const firstEpoch = 2 * epochStep * 2 // 8

// slotBytes pads each reader slot to a cache line so pin/unpin traffic from
// different goroutines does not false-share.
const slotBytes = 64

// Slot is one cache-line-padded reader slot; a Guard points at the one it
// claimed.
//
//hyperion:cacheline 64
type Slot struct {
	// state is 0 when the slot is free and epoch|1 while a reader holds it.
	state atomic.Uint64
	_     [slotBytes - 8]byte
}

// Compile-time layout assertions: a Slot must be exactly slotBytes so
// adjacent slots in Domain.slots never share a cache line (each direction of
// the comparison turns a size drift into a negative array length). The
// padalign analyzer checks the same invariant via the annotation above.
var (
	_ [slotBytes - unsafe.Sizeof(Slot{})]byte
	_ [unsafe.Sizeof(Slot{}) - slotBytes]byte
)

// Domain is one independent reclamation domain. A store shares a single
// domain across all shards: pinning is per-goroutine, not per-shard, so one
// guard covers a batched read that touches several shards.
type Domain struct {
	global   atomic.Uint64
	overflow atomic.Int64
	slots    []Slot
	mask     uint64
}

// NewDomain creates a domain sized for the current machine: at least 16 and
// roughly 4 slots per CPU, rounded up to a power of two, so concurrent
// readers rarely collide on a probe sequence.
func NewDomain() *Domain {
	n := 4 * runtime.NumCPU()
	if n < 16 {
		n = 16
	}
	size := 1
	for size < n {
		size *= 2
	}
	if size > 1024 {
		size = 1024
	}
	d := &Domain{slots: make([]Slot, size), mask: uint64(size - 1)}
	d.global.Store(firstEpoch)
	return d
}

// Slots returns the number of reader slots (test hook).
func (d *Domain) Slots() int { return len(d.slots) }

// Guard is an active pin. It is a value type: copying is harmless but only
// one Unpin per Pin is allowed. The zero Guard is inert.
type Guard struct {
	d     *Domain
	s     *Slot
	epoch uint64
}

// Pin enters the current epoch and returns a guard that holds it open.
// Memory retired at or after the pinned epoch will not be reclaimed until
// the guard is released. Pin never blocks and never allocates; the body is
// the single-CAS fast path, with probing and the overflow fallback in
// pinSlow. Callers pin once per write bracket, scan chunk or batched shard
// group — per-op point reads do not pin at all (hyperion/lockfree.go).
func (d *Domain) Pin() Guard {
	var probe byte
	// Hash the stack address: distinct goroutines have distinct stacks, so
	// this spreads concurrent pinners across the slot array. Shifting off the
	// low bits (frame-local alignment) and multiplying by an odd constant
	// de-clusters stacks allocated near each other.
	h := (uint64(uintptr(unsafe.Pointer(&probe))) >> 10) * 0x9E3779B97F4A7C15
	s := &d.slots[h&d.mask]
	e := d.global.Load()
	if s.state.CompareAndSwap(0, e|1) {
		return Guard{d: d, s: s, epoch: e}
	}
	return d.pinSlow(h)
}

// pinSlow probes the remaining slots and finally falls back to the shared
// overflow counter, which blocks all advancement while non-zero — safe, just
// conservative.
func (d *Domain) pinSlow(h uint64) Guard {
	for i := uint64(1); i <= d.mask; i++ {
		s := &d.slots[(h+i)&d.mask]
		if s.state.Load() != 0 {
			continue
		}
		e := d.global.Load()
		if s.state.CompareAndSwap(0, e|1) {
			return Guard{d: d, s: s, epoch: e}
		}
	}
	d.overflow.Add(1)
	return Guard{d: d, epoch: d.global.Load()}
}

// Unpin releases the guard. Calling Unpin on the zero Guard is a no-op.
func (g Guard) Unpin() {
	if g.d == nil {
		return
	}
	if g.s != nil {
		g.s.state.Store(0)
	} else {
		g.d.overflow.Add(-1)
	}
}

// Active reports whether the guard came from a Pin (test hook).
func (g Guard) Active() bool { return g.d != nil }

// Epoch returns the epoch the guard pinned.
func (g Guard) Epoch() uint64 { return g.epoch }

// Epoch returns the current global epoch.
func (d *Domain) Epoch() uint64 { return d.global.Load() }

// TryAdvance advances the global epoch by one step if no reader (or pinned
// writer) is still inside an older epoch. It returns the global epoch after
// the attempt. TryAdvance is safe to call concurrently; at most one caller
// wins the CAS per step.
func (d *Domain) TryAdvance() uint64 {
	g := d.global.Load()
	if d.overflow.Load() != 0 {
		return g
	}
	for i := range d.slots {
		st := d.slots[i].state.Load()
		if st != 0 && st != g|1 {
			// A reader is pinned at an older epoch (or re-pinned across the
			// CAS below); either way advancement must wait.
			return g
		}
	}
	d.global.CompareAndSwap(g, g+epochStep)
	return d.global.Load()
}

// SafeEpoch returns the newest retire tag that is safe to reclaim: anything
// retired at or before it has survived two full epoch advances, so no guard
// pinned before the retirement can still be active.
func (d *Domain) SafeEpoch() uint64 {
	return d.global.Load() - 2*epochStep
}
