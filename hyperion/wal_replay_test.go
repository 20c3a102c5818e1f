package hyperion

import (
	"bytes"
	"fmt"
	"maps"
	"math/rand/v2"
	"slices"
	"testing"
)

// TestSortTailOrder checks sortTail against the plain order the last-op-wins
// reduction reads: bytes.Compare on keys, ties by arrival. Keys are built
// from a few byte values at lengths 0..20 behind shared 8- and 16-byte stems,
// so inline words tie, keys end inside and at word boundaries, trailing zero
// bytes meet shorter keys, and runs outgrow the comparison-sort cutoff at
// more than one word.
func TestSortTailOrder(t *testing.T) {
	r := rand.New(rand.NewPCG(1, 2))
	alphabet := []byte{0x00, 0x01, 0x80, 0xff}
	stems := []string{"", "abcdefgh", "abcdefgh\x00\x00\x00\x00\x00\x00\x00\x00"}
	for _, tc := range []struct{ n, stems, maxLen int }{
		{0, 1, 0}, {1, 3, 20}, {2, 3, 20}, {100, 3, 20}, {3000, 3, 20},
		{1000, 1, 3}, // at most three bytes vary: an odd number of radix passes
	} {
		n := tc.n
		var tail shardTail
		var keys [][]byte
		for i := 0; i < n; i++ {
			k := []byte(stems[r.IntN(tc.stems)])
			for j := r.IntN(tc.maxLen + 1); j > 0; j-- {
				b := alphabet[r.IntN(len(alphabet))]
				if r.IntN(8) == 0 {
					b = byte(r.Uint32())
				}
				k = append(k, b)
			}
			if i > 0 && r.IntN(4) == 0 {
				k = keys[r.IntN(i)]
			}
			keys = append(keys, k)
			tail.add(walOpPut, k, uint64(i)) // value = arrival index
		}
		want := make([]int, n)
		for i := range want {
			want[i] = i
		}
		slices.SortStableFunc(want, func(a, b int) int { return bytes.Compare(keys[a], keys[b]) })
		sortTail(tail.recs, tail.keybuf)
		for i := range tail.recs {
			if got := int(tail.recs[i].value); got != want[i] {
				t.Fatalf("n=%d: position %d holds record %d (key %x), want %d (key %x)", n, i, got, keys[got], want[i], keys[want[i]])
			}
		}
	}
}

// TestWALReplayDifferential drives seeded sequences of every logged write
// (Put, PutKey, Delete, ApplyBatch, BulkLoad, Clear and a one-shard clear)
// through a WAL-backed store and a map model of the store's semantics, then
// recovers the directory and compares value by value. Keys start with every
// byte value, so every arena replays, and the empty key takes part. With a
// checkpoint mid-sequence the tail also deletes, put-keys and overwrites keys
// that live only in the checkpoint.
func TestWALReplayDifferential(t *testing.T) {
	for _, arenas := range []int{1, 4, 16} {
		for _, preprocess := range []bool{false, true} {
			for _, checkpoint := range []bool{false, true} {
				name := fmt.Sprintf("arenas=%d,preprocess=%v,checkpoint=%v", arenas, preprocess, checkpoint)
				t.Run(name, func(t *testing.T) {
					replayDifferential(t, arenas, preprocess, checkpoint, uint64(arenas))
				})
			}
		}
	}
}

type modelEntry struct {
	value    uint64
	hasValue bool
}

func replayDifferential(t *testing.T, arenas int, preprocess, checkpoint bool, seed uint64) {
	opts := walOptions(t.TempDir(), arenas, SyncNever)
	opts.KeyPreprocessing = preprocess
	s, err := Open(opts)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	r := rand.New(rand.NewPCG(seed, 29))

	// A pool of keys: every leading byte, short tails from a small alphabet
	// (so tails collide), some behind a shared stem longer than a word.
	pool := [][]byte{{}}
	for i := 0; i < 600; i++ {
		k := []byte{byte(i)}
		if r.IntN(4) == 0 {
			k = append(k, "stemstem"...)
		}
		for j := r.IntN(6); j > 0; j-- {
			k = append(k, "ab\x00\xff"[r.IntN(4)])
		}
		pool = append(pool, k)
	}
	model := map[string]modelEntry{}
	put := func(k []byte, v uint64) { model[string(k)] = modelEntry{v, true} }
	putKey := func(k []byte) {
		if _, ok := model[string(k)]; !ok {
			model[string(k)] = modelEntry{}
		}
	}
	del := func(k []byte) { delete(model, string(k)) }
	clearShard := func(a int) {
		s.clearShard(s.shards[a])
		for k := range model {
			if s.arenaIndex([]byte(k)) == a {
				delete(model, k)
			}
		}
	}
	// step is one write; ops chooses among the single-key writes (50), the
	// batch and bulk writes too (97), and the clears too (100).
	step := func(k []byte, ops int) {
		switch x := r.IntN(ops); {
		case x < 25:
			v := r.Uint64()
			s.Put(k, v)
			put(k, v)
		case x < 35:
			s.PutKey(k)
			putKey(k)
		case x < 50:
			s.Delete(k)
			del(k)
		case x < 75:
			ops := []Op{{Kind: OpPut, Key: k, Value: r.Uint64()}}
			for j := r.IntN(6); j > 0; j-- {
				ops = append(ops, Op{Kind: []OpKind{OpPut, OpPutKey, OpDelete, OpGet}[r.IntN(4)], Key: pool[r.IntN(len(pool))], Value: r.Uint64()})
			}
			s.ApplyBatch(ops)
			for _, op := range ops {
				switch op.Kind {
				case OpPut:
					put(op.Key, op.Value)
				case OpPutKey:
					putKey(op.Key)
				case OpDelete:
					del(op.Key)
				}
			}
		case x < 97:
			pairs := make([]Pair, 1+r.IntN(24))
			for j := range pairs {
				pairs[j] = Pair{Key: pool[r.IntN(len(pool))], Value: r.Uint64()}
			}
			// Sorted (stably, so the last of equal keys still wins): the
			// run takes the bulk path and its per-arena log records.
			slices.SortStableFunc(pairs, func(a, b Pair) int { return bytes.Compare(a.Key, b.Key) })
			s.BulkLoad(pairs)
			for _, p := range pairs {
				put(p.Key, p.Value)
			}
		case x < 99:
			clearShard(r.IntN(arenas))
		default:
			s.Clear()
			clear(model)
		}
	}
	for i := 0; i < 1500; i++ {
		step(pool[r.IntN(len(pool))], 100)
	}
	if checkpoint {
		if _, err := s.Checkpoint(); err != nil {
			t.Fatalf("Checkpoint: %v", err)
		}
		// The tail: one to three single-key writes each on half of the
		// checkpoint's keys, so deletes, putkeys and puts meet checkpoint
		// values; then one shard's clear, which must wipe that shard's
		// checkpoint state only; then a few writes of every kind but clear.
		for _, k := range slices.Sorted(maps.Keys(model)) {
			if r.IntN(2) == 0 {
				for j := 1 + r.IntN(3); j > 0; j-- {
					step([]byte(k), 50)
				}
			}
		}
		if arenas > 1 {
			clearShard(r.IntN(arenas))
		}
		for i := 0; i < 200; i++ {
			step(pool[r.IntN(len(pool))], 97)
		}
	}
	checkModel(t, "before Close", s, model)
	if err := s.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	back, err := Open(opts)
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer back.Close()
	checkModel(t, "recovered", back, model)
}

// checkModel asserts that s holds exactly model, with values and key-only
// entries told apart, and that every arena's trie is sound.
func checkModel(t *testing.T, when string, s *Store, model map[string]modelEntry) {
	t.Helper()
	got := map[string]modelEntry{}
	s.Each(func(k []byte, v uint64) bool {
		e := modelEntry{value: v}
		_, e.hasValue = s.Get(k)
		got[string(k)] = e
		return true
	})
	for k, want := range model {
		if g, ok := got[k]; !ok || g != want {
			t.Fatalf("%s: key %x = %+v (present %v), want %+v", when, k, g, ok, want)
		}
	}
	if len(got) != len(model) || s.Len() != len(model) {
		t.Fatalf("%s: %d keys iterated, Len %d, model holds %d", when, len(got), s.Len(), len(model))
	}
	if err := s.CheckInvariants(); err != nil {
		t.Fatalf("%s: CheckInvariants: %v", when, err)
	}
}
