// Package a models the store's protocol for bracket tests: a Tree with
// BeginWrite/EndWrite and mutators, an epoch Domain, and a Store whose
// shardWrite and shardRead combinators are the protocol's only homes.
package a

// Tree mimics core.Tree.
type Tree struct{ seq uint64 }

func (t *Tree) BeginWrite()                     { t.seq++ }
func (t *Tree) EndWrite()                       { t.seq++ }
func (t *Tree) Put(k []byte, v uint64)          {}
func (t *Tree) PutKey(k []byte)                 {}
func (t *Tree) Delete(k []byte) bool            { return false }
func (t *Tree) BulkLoad(n int)                  {}
func (t *Tree) BulkLoadMixed(n int)             {}
func (t *Tree) Clear()                          {}
func (t *Tree) Get(k []byte) (uint64, bool)     { return 0, false }
func (d *Domain) Pin() Guard                    { return Guard{} }
func (g Guard) Unpin()                          {}
func (s *Store) walEnqueueOp() (uint64, int)    { return 1, 1 }
func (s *Store) walEnqueueBatch() (uint64, int) { return 1, 1 }
func (s *Store) walEnqueuePairs() (uint64, int) { return 1, 1 }

// Domain and Guard mimic epoch.Domain and epoch.Guard.
type Domain struct{}
type Guard struct{}

// Store mimics hyperion.Store.
type Store struct {
	tree   *Tree
	epochs Domain
}

// shardWrite is the writer combinator: the one home of the bracket.
func (s *Store) shardWrite(n int, log func() (uint64, int), apply func(covered int)) {
	g := s.epochs.Pin()
	s.tree.BeginWrite()
	_, n = log()
	apply(n)
	s.tree.EndWrite()
	g.Unpin()
}

// shardRead is the reader combinator: it may pin, and only read.
func (s *Store) shardRead(pin bool, body func()) {
	var g Guard
	if pin {
		g = s.epochs.Pin()
	}
	defer g.Unpin()
	body()
}

// run is some other function taking a body: nothing says it holds a bracket.
func run(body func()) { body() }

// writeOK logs and mutates inside the bodies passed to shardWrite, through
// every guarded call and the annotated helper.
func (s *Store) writeOK(mode int) {
	s.shardWrite(1,
		func() (uint64, int) {
			if mode == 0 {
				return s.walEnqueueOp()
			}
			if mode == 1 {
				return s.walEnqueueBatch()
			}
			return s.walEnqueuePairs()
		},
		func(covered int) {
			defer s.tree.Clear() // runs when the body returns, still inside
			s.tree.Put(nil, 1)
			s.tree.PutKey(nil)
			s.tree.Delete(nil)
			s.tree.BulkLoad(covered)
			s.tree.BulkLoadMixed(covered)
			apply(s.tree, 1)
		})
}

// apply runs only under the bracket; its own mutations are inside.
//
//hyperion:inbracket
func apply(t *Tree, v uint64) {
	t.Put(nil, v)
	store(t)
}

// store is a second annotated helper, reached from the first.
//
//hyperion:inbracket
func store(t *Tree) { t.PutKey(nil) }

// readOK reads through shardRead; reads are not guarded.
func (s *Store) readOK() (v uint64) {
	s.shardRead(true, func() { v, _ = s.tree.Get(nil) })
	return v
}

// bare mutates and enqueues with no bracket around it.
func (s *Store) bare() {
	s.tree.Put(nil, 1)      // want `Tree.Put called outside a shardWrite body`
	s.tree.PutKey(nil)      // want `Tree.PutKey called outside a shardWrite body`
	s.tree.Delete(nil)      // want `Tree.Delete called outside a shardWrite body`
	s.tree.BulkLoad(1)      // want `Tree.BulkLoad called outside a shardWrite body`
	s.tree.BulkLoadMixed(1) // want `Tree.BulkLoadMixed called outside a shardWrite body`
	s.tree.Clear()          // want `Tree.Clear called outside a shardWrite body`
	s.walEnqueueOp()        // want `Store.walEnqueueOp called outside a shardWrite body`
	s.walEnqueueBatch()     // want `Store.walEnqueueBatch called outside a shardWrite body`
	s.walEnqueuePairs()     // want `Store.walEnqueuePairs called outside a shardWrite body`
}

// elsewhere passes the same bodies to something that is not shardWrite.
func (s *Store) elsewhere() {
	run(func() {
		s.tree.Put(nil, 1)      // want `Tree.Put called outside a shardWrite body`
		s.tree.PutKey(nil)      // want `Tree.PutKey called outside a shardWrite body`
		s.tree.Delete(nil)      // want `Tree.Delete called outside a shardWrite body`
		s.tree.BulkLoad(1)      // want `Tree.BulkLoad called outside a shardWrite body`
		s.tree.BulkLoadMixed(1) // want `Tree.BulkLoadMixed called outside a shardWrite body`
		s.tree.Clear()          // want `Tree.Clear called outside a shardWrite body`
		s.walEnqueueOp()        // want `Store.walEnqueueOp called outside a shardWrite body`
		s.walEnqueueBatch()     // want `Store.walEnqueueBatch called outside a shardWrite body`
		s.walEnqueuePairs()     // want `Store.walEnqueuePairs called outside a shardWrite body`
	})
	s.shardRead(false, func() {
		s.tree.Delete(nil) // want `Tree.Delete called outside a shardWrite body`
	})
}

// escapes starts work inside a body that can run after the bracket closes.
func (s *Store) escapes(later *func()) {
	s.shardWrite(1, nil, func(int) {
		go func() {
			s.tree.Put(nil, 1) // want `Tree.Put called outside a shardWrite body`
		}()
		go s.tree.Delete(nil) // want `Tree.Delete called outside a shardWrite body`
		defer func() {
			s.tree.Clear() // want `Tree.Clear called outside a shardWrite body`
		}()
		*later = func() { apply(s.tree, 2) } // want `apply called outside a shardWrite body`
	})
}

// bracketByHand opens and closes the seqlock outside its home, whether in a
// shardWrite body or in a raw function.
func (s *Store) bracketByHand() {
	s.shardWrite(1, nil, func(int) {
		s.tree.EndWrite() // want `Tree.EndWrite used outside shardWrite`
		s.tree.Put(nil, 1)
		s.tree.BeginWrite() // want `Tree.BeginWrite used outside shardWrite`
	})
}

func raw(t *Tree) {
	t.BeginWrite() // want `Tree.BeginWrite used outside shardWrite`
	t.EndWrite()   // want `Tree.EndWrite used outside shardWrite`
}

// helperMisuse calls the annotated helper outside a body and takes it as a
// value.
func (s *Store) helperMisuse() func(*Tree, uint64) {
	apply(s.tree, 1) // want `apply called outside a shardWrite body`
	s.shardWrite(1, nil, func(int) {
		f := store // want `store taken as a value`
		f(s.tree)
	})
	return apply // want `apply taken as a value`
}

// constructionTime mutates a tree no reader can see yet; the suppression
// carries the justification.
func constructionTime() *Tree {
	t := &Tree{}
	t.Put(nil, 0) //nolint:bracket fresh tree, not published to any reader
	return t
}
