package main

// The five workloads: their sizes, their seeded op streams and the shadow
// model each stream carries. A stream decides every op — kind, key, value and
// the reply the store must give — before the store sees it, from the seed and
// its own counters alone, so the op sequence never depends on timing and the
// expected reply never depends on the store.

import (
	"bytes"
	"encoding/binary"
	"math/rand/v2"
	"strconv"

	"repro/hyperion"
)

// Load model: closed loop, a fixed number of callers, from one process.
const (
	workers   = 2  // embedded callers / TCP connections
	depth     = 32 // requests per pipelined burst on a connection
	mloadLine = 1000

	warmupShare = 20 // warm-up = 1/20 of the timed op count, from its own stream
	rateWindows = 40 // a caller's rate is the median over this many windows of equal op count
)

// Sizes. A timed phase is a fixed op count, opsPerSecond x --seconds per
// caller, chosen once so that the phase lasts about --seconds on the
// reference box (2 vCPU Xeon 2.1 GHz); it is never tuned at run time, so two
// commits execute exactly the same ops and state-dependent metrics
// (bytes_per_key, recovery_s) compare like with like.
const (
	getNgrams       = 1_000_000 // generated; ~76 % distinct
	getOpsPerSecond = 680_000

	churnInts         = 1_000_000
	churnOpsPerSecond = 320_000

	scanNgrams       = 1_000_000
	scanOpsPerSecond = 2_950
	rangeLimit       = 100
	scanLimit        = 10_000

	mixedNgrams       = 1_000_000
	mixedOpsPerSecond = 185_000
	zipfTheta         = 0.99

	durableNgrams       = 300_000
	durableOpsPerSecond = 145_000
	durableSample       = 100_000
	fsyncInterval       = 50 // ms, the server's default
)

type opKind uint8

const (
	opGet       opKind = iota // key is stored; the reply must be val
	opGetAbsent               // key is not stored
	opPut                     // store key -> val
	opDelete                  // key is stored; the reply must be "deleted"
	opRange                   // Range(key), stop after n keys: keys lo..lo+n of the sorted set
	opScan                    // ScanPrefix(key), stop after n keys: keys lo..lo+n
	opCount                   // CountPrefix(key) must be n
)

// op is one request and the reply its stream expects.
type op struct {
	kind  opKind
	key   []byte
	val   uint64
	lo, n int
	buf   []byte // scratch a stream may build key in; owned by the op slot
}

// opStream yields a caller's ops. One stream lives through warm-up and the
// timed phase — its shadow model carries over — and setRNG switches it to the
// phase's own random sequence.
type opStream interface {
	next(o *op)
	setRNG(r *rand.Rand)
}

// phase separates the RNG streams of warm-up and timed ops.
const (
	phaseWarmup = 100
	phaseTimed  = 200
)

// --- embed-get-ngram ---------------------------------------------------------

// getStream: uniform Gets over the stored n-grams, one in twenty for a key
// that is not stored (a stored key with '#' appended — '#' is not in the
// alphabet, so the walk runs the key's full length before missing).
type getStream struct {
	ks   *keySet
	seed uint64
	r    *rand.Rand
}

func (s *getStream) next(o *op) {
	x := s.r.Uint64()
	i := int((x >> 8) % uint64(s.ks.len()))
	if x%20 == 0 {
		o.buf = append(append(o.buf[:0], s.ks.key(i)...), '#')
		o.kind, o.key = opGetAbsent, o.buf
		return
	}
	o.kind, o.key, o.val = opGet, s.ks.key(i), valueOf(s.seed, i, 0)
}

// --- embed-churn-int ---------------------------------------------------------

// churnStream: 50 % Put of a fresh key, 20 % Delete of the caller's oldest
// live insert, 30 % Get of a live key (preloaded or own). The caller's live
// inserts are always the counter interval [lo, hi), which is the whole shadow
// model: no other caller touches them and preloaded keys are never deleted.
type churnStream struct {
	pre    *keySet
	seed   uint64
	stream uint64 // 1 + caller: the key stream fresh keys come from
	lo, hi uint64
	r      *rand.Rand
}

func (s *churnStream) fresh(o *op, i uint64) {
	o.buf = binary.BigEndian.AppendUint64(o.buf[:0], intKeyValue(s.seed, s.stream, i))
	o.key, o.val = o.buf, valueOf(s.seed, int(i), uint32(s.stream))
}

func (s *churnStream) next(o *op) {
	x := s.r.Uint64()
	switch c := x % 100; {
	case c < 50 || (c < 70 && s.lo == s.hi):
		o.kind = opPut
		s.fresh(o, s.hi)
		s.hi++
	case c < 70:
		o.kind = opDelete
		s.fresh(o, s.lo)
		s.lo++
	default:
		o.kind = opGet
		j := (x >> 8) % (uint64(s.pre.len()) + s.hi - s.lo)
		if p := uint64(s.pre.len()); j < p {
			o.key, o.val = s.pre.key(int(j)), valueOf(s.seed, int(j), 0)
		} else {
			s.fresh(o, s.lo+j-p)
		}
	}
}

// liveKeys is what the caller's inserts add to the store's key count.
func (s *churnStream) liveKeys() int { return int(s.hi - s.lo) }

// --- embed-scan-ngram --------------------------------------------------------

// scanStream: 60 % Range from a stored key stopped after 100 keys (the seek
// dominates), 30 % ScanPrefix of a stored key's first word capped at 10 000
// keys (emission dominates), 10 % CountPrefix of such a word.
type scanStream struct {
	ks *keySet
	r  *rand.Rand
}

func (s *scanStream) next(o *op) {
	x := s.r.Uint64()
	i := int((x >> 8) % uint64(s.ks.len()))
	if c := x % 10; c < 6 {
		o.kind, o.key, o.lo, o.n = opRange, s.ks.key(i), i, min(rangeLimit, s.ks.len()-i)
		return
	} else if c < 9 {
		o.kind = opScan
	} else {
		o.kind = opCount
	}
	word := s.ks.key(i)
	if end := bytes.IndexAny(word, " \t"); end >= 0 {
		word = word[:end]
	}
	lo, hi := s.ks.prefixRange(word)
	o.key, o.lo, o.n = word, lo, hi-lo
	if o.kind == opScan {
		o.n = min(o.n, scanLimit)
	}
}

// --- server-mixed-tcp --------------------------------------------------------

// mixedStream: 90 % GET / 10 % PUT, each op drawn independently (so GET runs
// have geometric length and feed the server's run coalescing), keys Zipf(0.99)
// over the connection's own keys — the shuffled keys of its parity — so the
// connection is the only writer of every key it reads and its shadow model
// (one version counter per key) predicts every reply.
type mixedStream struct {
	ks   *keySet
	own  []uint32 // key indices this connection owns, hottest first
	ver  []uint32 // shadow model: current version of own[i]
	seed uint64
	z    *zipf
	r    *rand.Rand
}

func newMixedStream(ks *keySet, seed uint64, conn int) *mixedStream {
	s := &mixedStream{ks: ks, seed: seed}
	for _, i := range shuffledIndex(ks.len(), newRNG(seed, 7)) {
		if int(i)%workers == conn {
			s.own = append(s.own, i)
		}
	}
	s.ver = make([]uint32, len(s.own))
	s.z = newZipf(len(s.own), zipfTheta)
	return s
}

func (s *mixedStream) next(o *op) {
	slot := s.z.next(s.r)
	i := int(s.own[slot])
	o.key = s.ks.key(i)
	if s.r.Uint64()%10 == 0 {
		s.ver[slot]++
		o.kind = opPut
	} else {
		o.kind = opGet
	}
	o.val = valueOf(s.seed, i, s.ver[slot])
}

// --- server-durable-put ------------------------------------------------------

// durableStream: 80 % PUT of a fresh key, 20 % overwrite of one of the
// connection's earlier fresh keys. Fresh key c of connection n is a preloaded
// n-gram with "~<n><c in base 36>" appended, so keys keep the corpus's prefix
// structure and can be rebuilt from c alone when recovery is verified.
type durableStream struct {
	ks   *keySet
	conn int
	seed uint64
	vals []uint64 // shadow model: last acknowledged value of fresh key c
	r    *rand.Rand
}

func (s *durableStream) keyOf(dst []byte, c int) []byte {
	dst = append(dst, s.ks.key(int(mix64(uint64(c)^s.seed)%uint64(s.ks.len())))...)
	dst = append(dst, '~', byte('0'+s.conn))
	return strconv.AppendInt(dst, int64(c), 36)
}

func (s *durableStream) next(o *op) {
	x := s.r.Uint64()
	c := len(s.vals)
	if x%5 == 0 && c > 0 {
		c = int((x >> 8) % uint64(c))
		s.vals[c] = x | 1
	} else {
		s.vals = append(s.vals, x|1)
	}
	o.buf = s.keyOf(o.buf[:0], c)
	o.kind, o.key, o.val = opPut, o.buf, s.vals[c]
}

func (s *getStream) setRNG(r *rand.Rand)     { s.r = r }
func (s *churnStream) setRNG(r *rand.Rand)   { s.r = r }
func (s *scanStream) setRNG(r *rand.Rand)    { s.r = r }
func (s *mixedStream) setRNG(r *rand.Rand)   { s.r = r }
func (s *durableStream) setRNG(r *rand.Rand) { s.r = r }

// --- the list ------------------------------------------------------------------

type workload struct {
	name string
	run  func(cfg *config) (*result, error)
	// ladder builds the inputs of the per-layer ladder for this workload.
	ladder func(cfg *config) *ladderInput
}

func ngramOptions() hyperion.Options {
	o := hyperion.DefaultOptions()
	o.Arenas = 16
	return o
}

func intOptions() hyperion.Options {
	o := hyperion.PreprocessedIntegerOptions()
	o.Arenas = 16
	return o
}

var workloads = []*workload{
	{
		name: "embed-get-ngram",
		run:  embedGet.run, ladder: embedGet.ladderInput,
	},
	{
		name: "embed-churn-int",
		run:  embedChurn.run, ladder: embedChurn.ladderInput,
	},
	{
		name: "embed-scan-ngram",
		run:  embedScan.run, ladder: embedScan.ladderInput,
	},
	{
		name: "server-mixed-tcp",
		run:  mixedSpec.runFull, ladder: mixedLadderInput,
	},
	{
		name: "server-durable-put",
		run:  durableSpec.runFull, ladder: durableLadderInput,
	},
}

func findWorkload(name string) *workload {
	for _, w := range workloads {
		if w.name == name {
			return w
		}
	}
	return nil
}
