// Package a models the hyperion writer protocol for seqlockpair tests: a
// Tree with BeginWrite/EndWrite, a Store whose shardWrite combinator holds
// the bracket open around the bodies passed to it, and writers in both
// correct and broken shapes.
package a

// Tree mimics core.Tree.
type Tree struct{ seq uint64 }

func (t *Tree) BeginWrite()            { t.seq++ }
func (t *Tree) EndWrite()              { t.seq++ }
func (t *Tree) Put(k []byte, v uint64) {}
func (t *Tree) PutKey(k []byte)        {}
func (t *Tree) Delete(k []byte) bool   { return false }
func (t *Tree) BulkLoad(n int)         {}
func (t *Tree) BulkLoadMixed(n int)    {}
func (t *Tree) Clear()                 {}
func (t *Tree) Get(k []byte) uint64    { return 0 }

type shard struct {
	tree *Tree
	wal  bool
}

// Store mimics hyperion.Store.
type Store struct{ sh *shard }

// shardWrite is the combinator: it pairs the bracket itself and runs both
// bodies inside it.
func (s *Store) shardWrite(sh *shard, n int, log func() (uint64, int), apply func(covered int)) {
	sh.tree.BeginWrite()
	if sh.wal {
		_, n = log()
	}
	apply(n)
	sh.tree.EndWrite()
}

func (s *Store) walEnqueueOp(sh *shard, op byte) (uint64, int) { return 1, 1 }
func (s *Store) walEnqueueBatch(sh *shard) (uint64, int)       { return 1, 1 }
func (s *Store) walEnqueuePairs(sh *shard) (uint64, int)       { return 1, 1 }

// run is some other function taking a body: nothing says it holds a bracket.
func run(body func()) { body() }

// putOK logs and mutates inside bodies passed to shardWrite.
func (s *Store) putOK(k []byte, v uint64) {
	s.shardWrite(s.sh, 1,
		func() (uint64, int) { return s.walEnqueueOp(s.sh, 1) },
		func(covered int) {
			if covered == 1 {
				s.sh.tree.Put(k, v)
			}
		})
}

// everyMutatorOK covers the rest of the guarded set, loops and switches
// included.
func (s *Store) everyMutatorOK(mode, n int) {
	s.shardWrite(s.sh, n,
		func() (uint64, int) {
			if mode == 0 {
				return s.walEnqueueBatch(s.sh)
			}
			return s.walEnqueuePairs(s.sh)
		},
		func(covered int) {
			switch mode {
			case 0:
				s.sh.tree.BulkLoad(covered)
			case 1:
				s.sh.tree.Clear()
			default:
				for i := 0; i < covered; i++ {
					s.sh.tree.PutKey(nil)
					s.sh.tree.Delete(nil)
				}
			}
		})
}

// putBare is the same mutation with no bracket around it.
func (s *Store) putBare(k []byte, v uint64) {
	s.sh.tree.Put(k, v) // want `Put called outside an open BeginWrite/EndWrite bracket`
}

// bodyElsewhere passes the body to something that is not the combinator.
func (s *Store) bodyElsewhere(k []byte) {
	run(func() {
		s.sh.tree.Delete(k) // want `Delete called outside an open BeginWrite/EndWrite bracket`
	})
}

// bulkBare and clearBare are the mutators the old list missed.
func bulkBare(t *Tree) {
	t.BulkLoad(1)      // want `BulkLoad called outside an open BeginWrite/EndWrite bracket`
	t.BulkLoadMixed(1) // want `BulkLoadMixed called outside an open BeginWrite/EndWrite bracket`
}

func clearBare(t *Tree) {
	t.Clear() // want `Clear called outside an open BeginWrite/EndWrite bracket`
}

// walBare enqueues outside the shard lock, breaking the
// enqueue-under-write-lock ordering; so do the batch and bulk enqueues.
func walBare(s *Store) {
	s.walEnqueueOp(s.sh, 1) // want `walEnqueueOp called outside an open BeginWrite/EndWrite bracket`
	s.walEnqueueBatch(s.sh) // want `walEnqueueBatch called outside an open BeginWrite/EndWrite bracket`
	s.walEnqueuePairs(s.sh) // want `walEnqueuePairs called outside an open BeginWrite/EndWrite bracket`
	s.shardWrite(s.sh, 1, nil, func(int) {})
}

// bodyClosesBracket publishes early from inside a body: the mutation after it
// is outside the bracket.
func (s *Store) bodyClosesBracket() {
	s.shardWrite(s.sh, 1, nil, func(int) {
		s.sh.tree.EndWrite()
		s.sh.tree.Put(nil, 0) // want `Put called outside an open BeginWrite/EndWrite bracket`
	})
}

// bodyNestsUnpaired opens a second bracket inside a body and leaks it.
func (s *Store) bodyNestsUnpaired() {
	s.shardWrite(s.sh, 1, nil, func(int) {
		s.sh.tree.BeginWrite() // want `BeginWrite is not matched by EndWrite on every path`
		s.sh.tree.Put(nil, 0)
	})
}

// rawUnpaired opens the seqlock and closes it only conditionally.
func rawUnpaired(t *Tree, cond bool) {
	t.BeginWrite() // want `BeginWrite is not matched by EndWrite on every path`
	t.Put(nil, 0)
	if cond {
		t.EndWrite()
	}
}

// rawPaired closes on both arms.
func rawPaired(t *Tree, cond bool) {
	t.BeginWrite()
	if cond {
		t.Put(nil, 1)
		t.EndWrite()
	} else {
		t.EndWrite()
	}
}

// deferClose covers every exit, including the early return.
func deferClose(t *Tree, cond bool) {
	t.BeginWrite()
	defer t.EndWrite()
	if cond {
		return
	}
	t.Put(nil, 0)
}

// closeOnly closes a bracket that was never opened here: the double-publish
// shape.
func closeOnly(t *Tree) {
	t.EndWrite() // want `EndWrite without a preceding BeginWrite`
}

// loopLeak returns from inside the loop with the bracket open.
func loopLeak(t *Tree, n int) uint64 {
	t.BeginWrite() // want `BeginWrite is not matched by EndWrite on every path`
	for i := 0; i < n; i++ {
		if i == 3 {
			return t.Get(nil)
		}
	}
	t.EndWrite()
	return 0
}

// constructionTime mutates a tree no reader can see yet; the suppression
// carries the justification.
//
//nolint:seqlockpair fresh tree, not published to any reader
func constructionTime(t *Tree) {
	t.Put(nil, 0)
	t.PutKey(nil)
}
