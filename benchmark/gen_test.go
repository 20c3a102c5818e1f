package main

import (
	"bytes"
	"encoding/binary"
	"hash/fnv"
	"testing"
)

// firstStream builds caller 0's op stream of a workload the way its run does.
func firstStream(t *testing.T, name string, cfg *config) opStream {
	t.Helper()
	var s opStream
	switch name {
	case "embed-get-ngram", "embed-churn-int", "embed-scan-ngram":
		e := map[string]*embedded{"embed-get-ngram": embedGet, "embed-churn-int": embedChurn, "embed-scan-ngram": embedScan}[name]
		s = e.stream(e.keys(cfg.scaled(e.gen), cfg.seed), cfg.seed, 0)
	case mixedSpec.name:
		s = mixedSpec.stream(wireNgrams(cfg.scaled(mixedSpec.gen), cfg.seed), cfg.seed, 0)
	case durableSpec.name:
		s = durableSpec.stream(wireNgrams(cfg.scaled(durableSpec.gen), cfg.seed), cfg.seed, 0)
	default:
		t.Fatalf("no stream for workload %q", name)
	}
	s.setRNG(newRNG(cfg.seed, phaseTimed))
	return s
}

func TestStreamsAreAFunctionOfTheSeed(t *testing.T) {
	for _, w := range workloads {
		hash := func(seed uint64) uint64 { return streamHash(firstStream(t, w.name, smokeConfig(seed)), 5000) }
		if a, b := hash(1), hash(1); a != b {
			t.Errorf("%s: seed 1 gave op-stream hashes %x and %x", w.name, a, b)
		}
		if a, b := hash(1), hash(2); a == b {
			t.Errorf("%s: seeds 1 and 2 gave the same op-stream hash %x", w.name, a)
		}
	}
}

func TestWireKeysCarryNoSeparators(t *testing.T) {
	check := func(what string, key []byte) {
		if len(key) == 0 || bytes.ContainsAny(key, " \t\r\n") {
			t.Fatalf("%s key %q is empty or holds a protocol separator", what, key)
		}
	}
	cfg := smokeConfig(1)
	ks := wireNgrams(cfg.scaled(mixedNgrams), cfg.seed)
	for i := 0; i < ks.len(); i++ {
		check("preload", ks.key(i))
		if i > 0 && bytes.Compare(ks.key(i-1), ks.key(i)) >= 0 {
			t.Fatalf("wire keys %q, %q are not ascending and distinct", ks.key(i-1), ks.key(i))
		}
	}
	for _, name := range []string{mixedSpec.name, durableSpec.name} {
		s := firstStream(t, name, cfg)
		var o op
		for i := 0; i < 5000; i++ {
			s.next(&o)
			check(name, o.key)
		}
	}
	ints := intKeys(1000, 1, 0).mapped(hexKey)
	for i := 0; i < ints.len(); i++ {
		check("hex", ints.key(i))
	}
}

func TestNgramsMapOneToOneOntoWireKeys(t *testing.T) {
	raw := ngramKeys(20000, 1)
	if wire := raw.mapped(wireSafe).sortedUnique(); wire.len() != raw.len() {
		t.Fatalf("%d n-grams became %d wire keys", raw.len(), wire.len())
	}
}

func TestIntKeyStreamsAreDisjoint(t *testing.T) {
	seen := map[string]uint64{}
	for stream := uint64(0); stream < 3; stream++ {
		ks := intKeys(5000, 7, stream)
		for i := 0; i < ks.len(); i++ {
			if prev, dup := seen[string(ks.key(i))]; dup {
				t.Fatalf("key %x is in streams %d and %d", ks.key(i), prev, stream)
			}
			seen[string(ks.key(i))] = stream
		}
	}
}

func TestPrefixRangeMatchesALinearScan(t *testing.T) {
	ks := ngramKeys(5000, 3)
	for _, p := range []string{"the", "a", "of ", "zz", "", string(ks.key(ks.len() - 1))} {
		lo, hi := ks.prefixRange([]byte(p))
		for i := 0; i < ks.len(); i++ {
			if in := i >= lo && i < hi; in != bytes.HasPrefix(ks.key(i), []byte(p)) {
				t.Fatalf("prefix %q: range [%d,%d) is wrong about key %d %q", p, lo, hi, i, ks.key(i))
			}
		}
	}
}

func TestZipfIsSkewedAndInRange(t *testing.T) {
	const n = 1000
	z, r := newZipf(n, zipfTheta), newRNG(1, 1)
	hits := make([]int, n)
	for i := 0; i < 200000; i++ {
		hits[z.next(r)]++ // panics when out of range
	}
	if hits[0] < hits[1] || hits[1] < hits[10] || hits[10] < hits[500] {
		t.Fatalf("zipf is not rank-skewed: hits[0,1,10,500] = %d %d %d %d", hits[0], hits[1], hits[10], hits[500])
	}
	// Zipf(0.99) over 1000 ranks puts ~13 % of the mass on rank 0.
	if share := float64(hits[0]) / 200000; share < 0.10 || share > 0.17 {
		t.Fatalf("rank 0 drew %.3f of the samples, want about 0.13", share)
	}
}

// streamHash folds the first n ops of a stream (kind, key, value) into one
// number; the determinism test compares it across runs and seeds.
func streamHash(s opStream, n int) uint64 {
	h := fnv.New64a()
	var o op
	var b [9]byte
	for i := 0; i < n; i++ {
		s.next(&o)
		b[0] = byte(o.kind)
		binary.LittleEndian.PutUint64(b[1:], o.val)
		h.Write(b[:])
		h.Write(o.key)
	}
	return h.Sum64()
}
