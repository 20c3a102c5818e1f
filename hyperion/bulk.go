package hyperion

// Bulk ingestion. The paper's headline workloads (Tables 1-2, Figure 15)
// load n-gram corpora and sequential integer sets that arrive in sorted
// order; BulkLoad exploits that structure end to end: the run is cut into
// one contiguous sub-run per arena (sorted input + leading-byte routing make
// arena sub-runs contiguous), each sub-run is ingested under a single write
// lock through the core's append-only stream builder, and arenas load in
// parallel on the store's worker pool. Input that is not strictly sorted
// falls back to the per-key path transparently.

import (
	"bytes"

	"repro/internal/keys"
)

// Pair is one key/value pair of a bulk-ingestion run. The key is not
// retained; like Put, BulkLoad copies what it stores.
type Pair struct {
	Key   []byte
	Value uint64
}

// BulkLoad stores every pair with Put (overwrite) semantics.
//
// Fast path: when keys are sorted in ascending lexicographic order the run
// is ingested append-only — sub-runs of keys that are new to a container are
// encoded in one pass and inserted with a single memmove, fresh containers
// are laid out at their exact final size (jump tables included), and arenas
// load concurrently. Adjacent duplicate keys are collapsed (the last value
// wins, as a Put loop would leave it). Unsorted input is detected in one
// pass and handed to the per-key path, so BulkLoad is always safe to call.
func (s *Store) BulkLoad(pairs []Pair) {
	if len(pairs) == 0 {
		return
	}
	sorted, dups := true, false
	for i := 1; i < len(pairs); i++ {
		switch c := bytes.Compare(pairs[i-1].Key, pairs[i].Key); {
		case c > 0:
			sorted = false
		case c == 0:
			dups = true
		}
		if !sorted {
			break
		}
	}
	if !sorted {
		for _, p := range pairs {
			s.Put(p.Key, p.Value)
		}
		return
	}
	if dups {
		// Collapse adjacent duplicates, keeping the last value.
		out := make([]Pair, 0, len(pairs))
		for _, p := range pairs {
			if n := len(out); n > 0 && bytes.Equal(out[n-1].Key, p.Key) {
				out[n-1].Value = p.Value
				continue
			}
			out = append(out, p)
		}
		pairs = out
	}
	if len(pairs[0].Key) == 0 {
		// The empty key sorts first and cannot live in the container
		// encoding; store it directly.
		s.Put(pairs[0].Key, pairs[0].Value)
		pairs = pairs[1:]
		if len(pairs) == 0 {
			return
		}
	}
	spans := s.arenaSpans(len(pairs), func(i int) []byte { return pairs[i].Key })
	s.runIndexed(len(spans), func(i int) {
		sp := spans[i]
		s.writeRun(s.shards[sp.arena], s.transformRun(pairs[sp.lo:sp.hi]))
	})
}

// arenaSpan is a maximal slice [lo, hi) of a run routed to one arena.
type arenaSpan struct{ arena, lo, hi int }

// arenaSpans cuts the n keys key(i) of a run into arena spans, one per arena
// for a sorted run (leading-byte routing keeps an arena's keys contiguous).
func (s *Store) arenaSpans(n int, key func(int) []byte) []arenaSpan {
	var spans []arenaSpan
	for lo := 0; lo < n; {
		a, hi := s.arenaIndex(key(lo)), lo+1
		for hi < n && s.arenaIndex(key(hi)) == a {
			hi++
		}
		spans = append(spans, arenaSpan{a, lo, hi})
		lo = hi
	}
	return spans
}

// storedRun is one arena's write run in the stored (pre-processed) key form
// the tree holds: deletes go first, then keys with Put semantics where hasv
// is nil or hasv[i] is set and PutKey semantics otherwise. An ordered run is
// strictly increasing and goes to the core bulk builder; any other goes key
// by key, in run order. logged is the raw run the write-ahead log records;
// deletes come only with the unlogged runs of recovery.
type storedRun struct {
	keys    [][]byte
	vals    []uint64
	hasv    []bool
	deletes [][]byte
	ordered bool
	logged  []Pair
}

// writeRun is the one run writer behind BulkLoad's per-arena loads,
// ApplyBatch's diverted groups, snapshot sections and WAL tails: it applies
// one arena's run through a single shardWrite and returns how many keys
// landed. The log takes the run in chunks (walEnqueuePairs), so a mid-run
// log failure leaves exactly the already-enqueued prefix in the log and
// exactly that prefix is applied; short of a failure covered is len(keys).
func (s *Store) writeRun(sh *shard, r *storedRun) (covered int) {
	s.shardWrite(sh, len(r.keys),
		func() (uint64, int) { return s.walEnqueuePairs(sh, r.logged) },
		func(c int) {
			covered = c
			for _, k := range r.deletes {
				sh.tree.Delete(k)
			}
			if r.ordered {
				sh.tree.BulkLoadMixed(r.keys[:c], r.vals[:c], r.hasv)
				return
			}
			for i := range c {
				if r.hasv == nil || r.hasv[i] {
					sh.tree.Put(r.keys[i], r.vals[i])
				} else {
					sh.tree.PutKey(r.keys[i])
				}
			}
		})
	return covered
}

// transformRun builds the stored-form run of a sorted run of pairs, logged
// as the pairs themselves.
func (s *Store) transformRun(pairs []Pair) *storedRun {
	r := &storedRun{keys: make([][]byte, len(pairs)), vals: make([]uint64, len(pairs)), logged: pairs}
	for i := range pairs {
		r.keys[i], r.vals[i] = pairs[i].Key, pairs[i].Value
	}
	r.ordered = s.storeKeys(r.keys)
	return r
}

// storeKeys turns strictly increasing raw keys into their stored form in
// place, packed into one exactly sized buffer, and reports whether they still
// increase strictly: pre-processing can break the order, only across the
// <4-byte / ≥4-byte key-length boundary.
func (s *Store) storeKeys(ks [][]byte) (ordered bool) {
	if !s.opts.KeyPreprocessing {
		return true
	}
	total := 0
	for _, k := range ks {
		total += keys.PreprocessedLen(len(k))
	}
	flat := make([]byte, 0, total)
	ordered = true
	for i, k := range ks {
		start := len(flat)
		flat = keys.PreprocessAppend(flat, k)
		ks[i] = flat[start:len(flat):len(flat)]
		if i > 0 && ordered && bytes.Compare(ks[i-1], ks[i]) >= 0 {
			ordered = false
		}
	}
	return ordered
}
