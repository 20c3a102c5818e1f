// Package pin models the epoch side of the protocol for bracket tests: only
// the shardRead and shardWrite combinators may pin a reader.
package pin

// Domain and Guard mimic epoch.Domain and epoch.Guard.
type Domain struct{}
type Guard struct{}

func (d *Domain) Pin() Guard { return Guard{} }
func (g Guard) Unpin()       {}

// Store mimics hyperion.Store.
type Store struct{ epochs Domain }

// shardWrite pins for the whole bracket, bodies included.
func (s *Store) shardWrite(body func()) {
	g := s.epochs.Pin()
	defer g.Unpin()
	body()
}

// shardRead pins only when asked, and may do so from a nested literal.
func (s *Store) shardRead(pin bool, body func()) {
	var g Guard
	func() {
		if pin {
			g = s.epochs.Pin()
		}
	}()
	defer g.Unpin()
	body()
}

// pinElsewhere pins outside the two combinators.
func (s *Store) pinElsewhere() {
	g := s.epochs.Pin() // want `Domain.Pin used outside shardRead/shardWrite`
	defer g.Unpin()
}

// pinInBody pins inside a body passed to shardWrite: the body is not the
// combinator, so it may not pin on its own.
func (s *Store) pinInBody() {
	s.shardWrite(func() {
		s.epochs.Pin().Unpin() // want `Domain.Pin used outside shardRead/shardWrite`
	})
}

// pinLater hands Pin out as a value, to be called anywhere.
func (s *Store) pinLater() func() Guard {
	return s.epochs.Pin // want `Domain.Pin used outside shardRead/shardWrite`
}

// pinFree is a plain function that pins a domain it is given.
func pinFree(d *Domain) {
	d.Pin().Unpin() // want `Domain.Pin used outside shardRead/shardWrite`
}
