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
	if len(s.shards) == 1 {
		s.writeRun(s.shards[0], pairs)
		return
	}
	// Arena sub-runs are contiguous: routing is by leading byte and the run
	// is sorted, so each arena's keys form one slice of pairs.
	type span struct{ shard, lo, hi int }
	var spans []span
	lo, cur := 0, s.arenaIndex(pairs[0].Key)
	for i := 1; i < len(pairs); i++ {
		if a := s.arenaIndex(pairs[i].Key); a != cur {
			spans = append(spans, span{cur, lo, i})
			cur, lo = a, i
		}
	}
	spans = append(spans, span{cur, lo, len(pairs)})
	s.runIndexed(len(spans), func(i int) {
		sp := spans[i]
		s.writeRun(s.shards[sp.shard], pairs[sp.lo:sp.hi])
	})
}

// writeRun is the one run writer behind BulkLoad's per-arena loads and
// ApplyBatch's diverted groups: it ingests one arena's strictly increasing
// run through a single shardWrite and returns how many pairs landed. The log
// takes the run in chunks (walEnqueuePairs), so a mid-run log failure leaves
// exactly the already-enqueued prefix in the log and exactly that prefix is
// applied; short of a failure covered is len(pairs).
func (s *Store) writeRun(sh *shard, pairs []Pair) (covered int) {
	tkeys, vals, ordered := s.transformRun(pairs)
	s.shardWrite(sh, len(pairs),
		func() (uint64, int) { return s.walEnqueuePairs(sh, pairs) },
		func(c int) {
			covered = c
			if ordered {
				sh.tree.BulkLoad(tkeys[:c], vals[:c])
				return
			}
			// Pre-processing broke the order (documented only across the
			// <4-byte / ≥4-byte key-length boundary): per-key fallback.
			var scratch [opScratchSize]byte
			for _, p := range pairs[:c] {
				sh.tree.Put(s.transformAppend(scratch[:0], p.Key), p.Value)
			}
		})
	return covered
}

// transformRun builds the stored-form key and value slices of a run. With
// key pre-processing the transformed keys are packed into one flat buffer
// (pre-sized exactly, so the sub-slices stay stable); ok is false when the
// transformation did not preserve the run's strict order.
func (s *Store) transformRun(pairs []Pair) ([][]byte, []uint64, bool) {
	tkeys := make([][]byte, len(pairs))
	vals := make([]uint64, len(pairs))
	if !s.opts.KeyPreprocessing {
		for i := range pairs {
			tkeys[i] = pairs[i].Key
			vals[i] = pairs[i].Value
		}
		return tkeys, vals, true
	}
	total := 0
	for i := range pairs {
		total += keys.PreprocessedLen(len(pairs[i].Key))
	}
	flat := make([]byte, 0, total)
	for i := range pairs {
		start := len(flat)
		flat = keys.PreprocessAppend(flat, pairs[i].Key)
		tkeys[i] = flat[start:len(flat):len(flat)]
		vals[i] = pairs[i].Value
		if i > 0 && bytes.Compare(tkeys[i-1], tkeys[i]) >= 0 {
			return nil, nil, false
		}
	}
	return tkeys, vals, true
}
