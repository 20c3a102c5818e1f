// Package a models the epoch pin protocol for pinbalance tests: a Domain
// handing out value Guards (Pin/Unpin), exercised in correct and leaky shapes.
package a

// Guard mimics epoch.Guard.
type Guard struct{ d *Domain }

// Unpin mimics Guard.Unpin.
func (g Guard) Unpin() {}

// Domain mimics epoch.Domain.
type Domain struct{ global uint64 }

func (d *Domain) Pin() Guard { return Guard{d: d} }

func bad() bool { return false }

// pinOK releases on the only path.
func pinOK(d *Domain) {
	g := d.Pin()
	g.Unpin()
}

// pinLeakConditional forgets the guard on the early return.
func pinLeakConditional(d *Domain, cond bool) {
	g := d.Pin() // want `pin acquired by Pin is not released on every path to return`
	if cond {
		return
	}
	g.Unpin()
}

// condPinOK is the shardRead shape: a guard that is pinned only on some
// paths, released by one deferred Unpin (a no-op on the zero Guard).
func condPinOK(d *Domain, pin bool) {
	var g Guard
	if pin {
		g = d.Pin()
	}
	defer func() {
		g.Unpin()
	}()
	if bad() {
		panic("torn walk")
	}
}

// deferOK covers the panic path with a deferred Unpin.
func deferOK(d *Domain) {
	g := d.Pin()
	defer g.Unpin()
	if bad() {
		panic("corrupt state")
	}
}

// deferClosureOK releases through a deferred closure, which the checker
// scans for release calls.
func deferClosureOK(d *Domain, cond bool) {
	g := d.Pin()
	defer func() {
		g.Unpin()
	}()
	if cond {
		return
	}
}

// panicLeak unpins on the normal path only: the panic path leaks.
func panicLeak(d *Domain) {
	g := d.Pin() // want `pin acquired by Pin may still be held when this function panics`
	if bad() {
		panic("corrupt state")
	}
	g.Unpin()
}

// discard drops the guard on the floor; nothing can ever release it.
func discard(d *Domain) {
	d.Pin() // want `result of Pin discarded: the pin can never be released`
}

// overwrite clobbers a held guard with a fresh one.
func overwrite(d *Domain) {
	g := d.Pin() // want `pin acquired by Pin is overwritten before it is released`
	g = d.Pin()
	g.Unpin()
}

// transfer hands the guard to the caller: ownership moves, no leak here.
func transfer(d *Domain) Guard {
	g := d.Pin()
	return g
}

// pinForever deliberately holds a process-lifetime pin; the suppression
// carries the justification.
//
//nolint:pinbalance process-lifetime pin, released at shutdown elsewhere
func pinForever(d *Domain) {
	d.Pin()
}
