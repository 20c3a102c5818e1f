package main

// Deterministic input generation. Everything the program under test sees —
// keys, values, op order — is a pure function of (workload, seed, scale); the
// generators own their PRNG (PCG from math/rand/v2, a specified algorithm)
// and their vocabulary, so neither a Go upgrade nor a change to
// internal/workload can silently move the inputs.

import (
	"bytes"
	"encoding/binary"
	"math"
	"math/rand/v2"
	"slices"
	"strconv"
)

func newRNG(seed, stream uint64) *rand.Rand {
	return rand.New(rand.NewPCG(seed, stream))
}

// mix64 is the splitmix64 finaliser: a bijection on uint64, used both to
// derive values from (seed, index) and to spread integer keys.
func mix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// valueOf is the value every workload stores for key index i at version ver;
// the shadow models recompute it instead of remembering it.
func valueOf(seed uint64, i int, ver uint32) uint64 {
	return mix64(seed ^ uint64(i)<<24 ^ uint64(ver))
}

// keySet is an immutable list of keys packed into one blob, so a million keys
// cost the garbage collector two objects instead of a million slice headers.
type keySet struct {
	blob []byte
	offs []uint32
}

func (k *keySet) len() int         { return len(k.offs) - 1 }
func (k *keySet) key(i int) []byte { return k.blob[k.offs[i]:k.offs[i+1]:k.offs[i+1]] }

func (k *keySet) add(key []byte) {
	if len(k.offs) == 0 {
		k.offs = append(k.offs, 0)
	}
	k.blob = append(k.blob, key...)
	k.offs = append(k.offs, uint32(len(k.blob)))
}

// sortedUnique returns the keys in ascending order without duplicates.
func (k *keySet) sortedUnique() *keySet {
	idx := make([]int32, k.len())
	for i := range idx {
		idx[i] = int32(i)
	}
	slices.SortFunc(idx, func(a, b int32) int { return bytes.Compare(k.key(int(a)), k.key(int(b))) })
	out := &keySet{blob: make([]byte, 0, len(k.blob)), offs: make([]uint32, 1, len(k.offs))}
	for n, i := range idx {
		if n > 0 && bytes.Equal(k.key(int(i)), k.key(int(idx[n-1]))) {
			continue
		}
		out.add(k.key(int(i)))
	}
	return out
}

// mapped returns a copy with every key passed through fn (same order).
func (k *keySet) mapped(fn func(dst, key []byte) []byte) *keySet {
	out := &keySet{blob: make([]byte, 0, len(k.blob)), offs: make([]uint32, 1, len(k.offs))}
	var buf []byte
	for i := 0; i < k.len(); i++ {
		buf = fn(buf[:0], k.key(i))
		out.add(buf)
	}
	return out
}

// lowerBound returns the first index whose key is >= target.
func (k *keySet) lowerBound(target []byte) int {
	lo, hi := 0, k.len()
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if bytes.Compare(k.key(mid), target) < 0 {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// prefixRange returns the half-open index range of keys starting with prefix.
func (k *keySet) prefixRange(prefix []byte) (lo, hi int) {
	lo = k.lowerBound(prefix)
	hi = k.len()
	for a := lo; a < hi; { // keys carrying the prefix are contiguous from lo
		mid := int(uint(a+hi) >> 1)
		if bytes.HasPrefix(k.key(mid), prefix) {
			a = mid + 1
		} else {
			hi = mid
		}
	}
	return lo, hi
}

// vocabulary is a fixed, seed-independent word list: a head of short function
// words followed by longer content words built from syllables. Ranks are
// drawn Zipf-like, so the head dominates and n-grams share long prefixes —
// the property of the Google Books corpus that the paper's string experiments
// rest on (§4.3).
var vocabulary = buildVocabulary()

func buildVocabulary() [][]byte {
	head := []string{"the", "of", "and", "to", "in", "a", "is", "that", "for", "it", "as", "was",
		"with", "be", "by", "on", "not", "he", "i", "this", "are", "or", "his", "from", "at",
		"which", "but", "have", "an", "had", "they", "you", "were", "their", "one", "all", "we",
		"can", "her", "has", "there", "been", "if", "more", "when", "will", "would", "who", "so", "no"}
	onset := []string{"b", "c", "d", "f", "g", "h", "l", "m", "n", "p", "r", "s", "t", "v", "st", "tr", "pr", "ch"}
	nucleus := []string{"a", "e", "i", "o", "u", "ea", "io", "ou"}
	coda := []string{"", "n", "r", "s", "t", "l", "m", "ng", "ty", "ry"}
	seen := map[string]bool{}
	var out [][]byte
	for _, w := range head {
		seen[w] = true
		out = append(out, []byte(w))
	}
	r := newRNG(0x48797065, 0x72696f6e) // fixed: the word list is not an input dimension
	for len(out) < 300 {
		var w []byte
		for s, syl := 0, 2+r.IntN(3); s < syl; s++ {
			w = append(w, onset[r.IntN(len(onset))]...)
			w = append(w, nucleus[r.IntN(len(nucleus))]...)
		}
		w = append(w, coda[r.IntN(len(coda))]...)
		if !seen[string(w)] {
			seen[string(w)] = true
			out = append(out, w)
		}
	}
	return out
}

// zipfWord draws a vocabulary rank with P(rank) ~ 1/(rank+1) by inverting the
// continuous approximation of the harmonic CDF.
func zipfWord(r *rand.Rand) int {
	n := float64(len(vocabulary))
	idx := int(math.Pow(n+1, r.Float64()) - 1)
	return min(max(idx, 0), len(vocabulary)-1)
}

// ngramKeys generates n Google-Books-style keys ("w1 w2 w3\t1987": one to five
// words, a tab, a year) and returns the distinct ones in ascending order.
// About three quarters survive deduplication at the benchmark's sizes.
func ngramKeys(n int, seed uint64) *keySet {
	r := newRNG(seed, 1)
	raw := &keySet{blob: make([]byte, 0, n*20), offs: make([]uint32, 1, n+1)}
	var buf []byte
	for i := 0; i < n; i++ {
		buf = buf[:0]
		for w, words := 0, 1+r.IntN(5); w < words; w++ {
			if w > 0 {
				buf = append(buf, ' ')
			}
			buf = append(buf, vocabulary[zipfWord(r)]...)
		}
		buf = append(buf, '\t')
		buf = strconv.AppendInt(buf, int64(1800+r.IntN(220)), 10)
		raw.add(buf)
	}
	return raw.sortedUnique()
}

// wireSafe maps the two n-gram separators the line protocol cannot carry:
// ' ' -> '_' and '\t' -> '|'. Neither replacement occurs in the vocabulary, so
// the mapping is injective and keeps the shared-prefix structure; it does not
// keep the sort order, so callers re-sort the mapped set.
func wireSafe(dst, key []byte) []byte {
	for _, c := range key {
		switch c {
		case ' ':
			c = '_'
		case '\t':
			c = '|'
		}
		dst = append(dst, c)
	}
	return dst
}

// hexKey renders a binary key as lowercase hex — the wire form of integer keys
// in the server rungs of the ladder.
func hexKey(dst, key []byte) []byte {
	const digits = "0123456789abcdef"
	for _, c := range key {
		dst = append(dst, digits[c>>4], digits[c&15])
	}
	return dst
}

// intKeys returns n distinct uniformly spread 64-bit keys in their
// binary-comparable (big-endian) encoding, ascending. stream separates the
// preload from each worker's fresh keys: the low two bits of every key carry
// it, so streams are disjoint by construction.
func intKeys(n int, seed uint64, stream uint64) *keySet {
	vals := make([]uint64, n)
	for i := range vals {
		vals[i] = intKeyValue(seed, stream, uint64(i))
	}
	slices.Sort(vals)
	out := &keySet{blob: make([]byte, 0, n*8), offs: make([]uint32, 1, n+1)}
	var b [8]byte
	for _, v := range vals {
		binary.BigEndian.PutUint64(b[:], v)
		out.add(b[:])
	}
	return out
}

// intKeyValue is the i-th integer key of a stream (0..3). mix64 is a
// bijection, so keys within a stream never collide.
func intKeyValue(seed, stream, i uint64) uint64 {
	return mix64(seed^i*0x9e3779b97f4a7c15)&^3 | stream&3
}

// zipf samples ranks in [0, n) with P(rank) ~ 1/(rank+1)^theta (Gray et al.,
// "Quickly generating billion-record synthetic databases", the YCSB sampler).
type zipf struct {
	n            float64
	theta, alpha float64
	zetan, eta   float64
	half         float64
}

func newZipf(n int, theta float64) *zipf {
	z := &zipf{n: float64(n), theta: theta, alpha: 1 / (1 - theta), half: 1 + math.Pow(0.5, theta)}
	for i := 1; i <= n; i++ {
		z.zetan += 1 / math.Pow(float64(i), theta)
	}
	zeta2 := 1 + math.Pow(0.5, theta)
	z.eta = (1 - math.Pow(2/z.n, 1-theta)) / (1 - zeta2/z.zetan)
	return z
}

func (z *zipf) next(r *rand.Rand) int {
	u := r.Float64()
	uz := u * z.zetan
	if uz < 1 {
		return 0
	}
	if uz < z.half {
		return 1
	}
	return min(int(z.n*math.Pow(z.eta*u-z.eta+1, z.alpha)), int(z.n)-1)
}

// shuffledIndex returns a seeded permutation of [0, n).
func shuffledIndex(n int, r *rand.Rand) []uint32 {
	p := make([]uint32, n)
	for i := range p {
		p[i] = uint32(i)
	}
	r.Shuffle(n, func(i, j int) { p[i], p[j] = p[j], p[i] })
	return p
}
