package hyperion

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"math/rand"
	"runtime"
	"sort"
	"strings"
	"testing"

	"repro/internal/keys"
)

// snapEntry is one key of a hand-made snapshot section, in file order.
type snapEntry struct {
	key []byte
	val uint64
	has bool
}

// encodeSnapSection is the section framing of snapshot.go written
// independently of Save: arena index, key count, delta-encoded payload and
// checksum, for whatever entries (in whatever order) the caller hands it.
// Without share every key is stored whole (prefix length 0), which a reader
// must accept although Save never writes it.
func encodeSnapSection(arena int, es []snapEntry, share bool) []byte {
	var payload, prev []byte
	for _, e := range es {
		lcp := 0
		if share {
			lcp = commonPrefixLen(prev, e.key)
		}
		head := uint64(len(e.key)-lcp) << 1
		if e.has {
			head |= 1
		}
		payload = binary.AppendUvarint(payload, uint64(lcp))
		payload = binary.AppendUvarint(payload, head)
		payload = append(payload, e.key[lcp:]...)
		if e.has {
			payload = binary.AppendUvarint(payload, e.val)
		}
		prev = e.key
	}
	sec := binary.LittleEndian.AppendUint16(nil, uint16(arena))
	sec = append(sec, 0, 0)
	sec = binary.LittleEndian.AppendUint64(sec, uint64(len(es)))
	sec = binary.LittleEndian.AppendUint64(sec, uint64(len(payload)))
	sec = append(sec, payload...)
	return binary.LittleEndian.AppendUint32(sec, crc32.ChecksumIEEE(sec))
}

// snapHeader is a checksummed snapshot header.
func snapHeader(prep bool, arenas int, total uint64) []byte {
	hdr := append([]byte(nil), snapshotMagic...)
	hdr = binary.LittleEndian.AppendUint16(hdr, snapshotVersion)
	var flags byte
	if prep {
		flags = snapFlagKeyPreprocessing
	}
	hdr = append(hdr, flags, 0)
	hdr = binary.LittleEndian.AppendUint16(hdr, uint16(arenas))
	hdr = append(hdr, 0, 0)
	hdr = binary.LittleEndian.AppendUint64(hdr, total)
	return binary.LittleEndian.AppendUint32(hdr, crc32.ChecksumIEEE(hdr))
}

// encodeSnap frames one section per element of sections.
func encodeSnap(prep bool, sections [][]snapEntry) []byte {
	return encodeSnapShare(prep, sections, true)
}

func encodeSnapShare(prep bool, sections [][]snapEntry, share bool) []byte {
	var total uint64
	for _, es := range sections {
		total += uint64(len(es))
	}
	file := snapHeader(prep, len(sections), total)
	for a, es := range sections {
		file = append(file, encodeSnapSection(a, es, share)...)
	}
	return file
}

// snapModel is what a Put/PutKey loop over the entries in file order
// leaves: the last value a key was put with, or bare if it never had one.
type snapModel map[string]snapEntry

func (m snapModel) apply(es []snapEntry) {
	for _, e := range es {
		if old, ok := m[string(e.key)]; ok && !e.has {
			e = old
		}
		m[string(e.key)] = e
	}
}

// storedLess orders raw keys the way a store iterates them: by their stored
// form, which pre-processing reorders across the four-byte length boundary.
func storedLess(prep bool, a, b []byte) bool {
	if prep {
		a, b = keys.Preprocess(a), keys.Preprocess(b)
	}
	return bytes.Compare(a, b) < 0
}

// requireModel checks s against m: Range yields exactly m's keys in order,
// valued keys answer Get with their value, bare keys only Has, and Len and
// CheckInvariants agree.
func requireModel(t *testing.T, s *Store, m snapModel, prep bool) {
	t.Helper()
	if err := s.CheckInvariants(); err != nil {
		t.Fatalf("invariants: %v", err)
	}
	if s.Len() != len(m) {
		t.Fatalf("Len = %d, model holds %d", s.Len(), len(m))
	}
	want := make([]string, 0, len(m))
	for k := range m {
		want = append(want, k)
	}
	sort.Slice(want, func(a, b int) bool { return storedLess(prep, []byte(want[a]), []byte(want[b])) })
	i := 0
	s.Range(nil, func(key []byte, _ uint64) bool {
		if i >= len(want) || string(key) != want[i] {
			t.Fatalf("range key %d = %q, model has %q", i, key, want[min(i, len(want)-1)])
		}
		i++
		return true
	})
	if i != len(want) {
		t.Fatalf("range yielded %d keys, model holds %d", i, len(want))
	}
	for _, e := range m {
		v, ok := s.Get(e.key)
		if ok != e.has || v != e.val {
			t.Fatalf("Get(%q) = %d,%v, model %d,%v", e.key, v, ok, e.val, e.has)
		}
		if !s.Has(e.key) {
			t.Fatalf("Has(%q) = false", e.key)
		}
	}
}

// directWorkload is a key set in iteration order with every leading byte,
// short keys on both sides of the four-byte pre-processing boundary, every
// 11th key bare, and the empty key first, valued or bare.
func directWorkload(rng *rand.Rand, prep, emptyBare bool) []snapEntry {
	seen := map[string]bool{"": true}
	es := []snapEntry{{key: []byte{}, val: 7, has: !emptyBare}}
	if emptyBare {
		es[0].val = 0
	}
	for b := 0; b < 256; b++ {
		for j := 0; j < 12; j++ {
			k := []byte{byte(b)}
			for n := rng.Intn(10); n > 0; n-- {
				k = append(k, byte(rng.Intn(6)))
			}
			if !seen[string(k)] {
				seen[string(k)] = true
				es = append(es, snapEntry{key: k})
			}
		}
	}
	sort.Slice(es, func(a, b int) bool { return storedLess(prep, es[a].key, es[b].key) })
	for i := 1; i < len(es); i++ {
		if i%11 != 0 {
			es[i].val, es[i].has = rng.Uint64(), true
		}
	}
	return es
}

// bySection cuts a workload in iteration order into the sections a store with the
// given arena count saves.
func bySection(es []snapEntry, arenas int) [][]snapEntry {
	secs := make([][]snapEntry, arenas)
	for _, e := range es {
		a := 0
		if len(e.key) > 0 {
			a = int(e.key[0]) * arenas / 256
		}
		secs[a] = append(secs[a], e)
	}
	return secs
}

// TestSnapshotLoadDirectDifferential drives the one-pass section decoder
// against a map model: snapshots saved by a store and hand-made ones, loaded
// into the arena count they were written under and into others, with and
// without key pre-processing. The hand-made sections hold what only a
// crafted file can: a key out of order, a duplicated key, a key routed to
// another arena. Those load to what a Put/PutKey loop over the file leaves.
func TestSnapshotLoadDirectDifferential(t *testing.T) {
	for _, arenas := range []int{1, 4, 16} {
		for _, prep := range []bool{false, true} {
			for _, emptyBare := range []bool{false, true} {
				t.Run(fmt.Sprintf("arenas-%d/prep-%v/emptyBare-%v", arenas, prep, emptyBare), func(t *testing.T) {
					rng := rand.New(rand.NewSource(int64(arenas)*10 + 3))
					es := directWorkload(rng, prep, emptyBare)
					opts := DefaultOptions()
					opts.Arenas = arenas
					opts.KeyPreprocessing = prep
					ref := New(opts)
					for _, e := range es {
						if e.has {
							ref.Put(e.key, e.val)
						} else {
							ref.PutKey(e.key)
						}
					}
					var saved bytes.Buffer
					if _, err := ref.Save(&saved); err != nil {
						t.Fatal(err)
					}
					model := snapModel{}
					model.apply(es)

					secs := bySection(es, arenas)
					files := map[string][]byte{
						"saved":     saved.Bytes(),
						"hand-made": encodeSnap(prep, secs),
						"unshared":  encodeSnapShare(prep, secs, false),
					}
					// One key out of order: swap two neighbours in the
					// middle of the largest section.
					big := 0
					for a := range secs {
						if len(secs[a]) > len(secs[big]) {
							big = a
						}
					}
					swapped := cloneSections(secs)
					mid := len(swapped[big]) / 2
					swapped[big][mid], swapped[big][mid+1] = swapped[big][mid+1], swapped[big][mid]
					files["out-of-order"] = encodeSnap(prep, swapped)
					// A key repeated further on, bare then valued.
					dup := cloneSections(secs)
					k := dup[big][mid].key
					dup[big] = append(dup[big], snapEntry{key: k}, snapEntry{key: k, val: 99, has: true})
					files["duplicate"] = encodeSnap(prep, dup)
					dupModel := snapModel{}
					dupModel.apply(es)
					dupModel.apply([]snapEntry{{key: k, val: 99, has: true}})
					if arenas > 1 {
						// The first key of the next section moved to the end
						// of this one: still increasing, routed elsewhere.
						if big+1 == arenas {
							t.Fatal("largest section is the last one; pick another workload seed")
						}
						moved := cloneSections(secs)
						moved[big] = append(moved[big], moved[big+1][0])
						moved[big+1] = moved[big+1][1:]
						files["misrouted"] = encodeSnap(prep, moved)
					}
					for name, file := range files {
						want := model
						if name == "duplicate" {
							want = dupModel
						}
						for _, into := range []int{arenas, 1, 16} {
							lopts := opts
							lopts.Arenas = into
							loaded, err := Load(bytes.NewReader(file), lopts)
							if err != nil {
								t.Fatalf("%s into %d arenas: %v", name, into, err)
							}
							requireModel(t, loaded, want, prep)
						}
					}
				})
			}
		}
	}
}

func cloneSections(secs [][]snapEntry) [][]snapEntry {
	out := make([][]snapEntry, len(secs))
	for i := range secs {
		out[i] = append([]snapEntry(nil), secs[i]...)
	}
	return out
}

// allocDuring reports the bytes fn allocated on the heap.
func allocDuring(fn func()) uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	before := ms.TotalAlloc
	fn()
	runtime.ReadMemStats(&ms)
	return ms.TotalAlloc - before
}

// loadAllocPerByte and loadAllocFixed state Load's allocation bound: at
// most loadAllocPerByte bytes per byte of file, plus loadFlushBytes of key
// slabs, plus loadAllocFixed for the empty store and the allocator's first
// blocks, whatever the file's length fields claim.
const (
	loadAllocPerByte = 64
	loadAllocFixed   = 4 << 20
)

// optionsMismatch reports the two typed refusals of a well-formed header
// that are not corruption: an unknown format version and a pre-processing
// mismatch.
func optionsMismatch(err error) bool {
	msg := err.Error()
	return strings.Contains(msg, "unsupported snapshot format version") || strings.Contains(msg, "KeyPreprocessing=")
}

// FuzzSnapshotLoad feeds arbitrary bytes to Load as the header (checksum
// recomputed, followed by a valid section), as the one section of a
// single-arena file (count from the first eight bytes, the rest as payload,
// length and checksum recomputed so the decoder is reached), and as the
// whole file. Every input must give an error wrapping ErrCorruptSnapshot,
// one of the typed options refusals, or a store that passes
// CheckInvariants and holds the keys its header promises — never a panic —
// and Load must stay within its allocation bound. The seed corpus, committed
// under testdata/fuzz/FuzzSnapshotLoad, holds a checksum flip, a huge
// payload length, a huge key count, a torn section and a nested-prefix
// amplification file.
func FuzzSnapshotLoad(f *testing.F) {
	base := encodeSnap(false, [][]snapEntry{{
		{key: []byte("a"), val: 1, has: true},
		{key: []byte("ab")},
		{key: []byte("b"), val: 3, has: true},
	}})
	f.Add(base)
	validSection := base[snapHeaderSize+4:]
	f.Fuzz(func(t *testing.T, data []byte) {
		hdr := make([]byte, snapHeaderSize)
		copy(hdr, data)
		asHeader := binary.LittleEndian.AppendUint32(hdr, crc32.ChecksumIEEE(hdr))
		asHeader = append(asHeader, validSection...)

		var count [8]byte
		payload := data[copy(count[:], data):]
		sec := binary.LittleEndian.AppendUint16(nil, 0)
		sec = append(sec, 0, 0)
		sec = append(sec, count[:]...)
		sec = binary.LittleEndian.AppendUint64(sec, uint64(len(payload)))
		sec = append(sec, payload...)
		sec = binary.LittleEndian.AppendUint32(sec, crc32.ChecksumIEEE(sec))
		asSection := append(snapHeader(false, 1, binary.LittleEndian.Uint64(count[:])), sec...)

		for _, file := range [][]byte{asHeader, asSection, data} {
			var st *Store
			var err error
			grew := allocDuring(func() {
				st, err = Load(bytes.NewReader(file), DefaultOptions())
			})
			if limit := uint64(loadAllocPerByte*len(file) + loadFlushBytes + loadAllocFixed); grew > limit {
				t.Fatalf("Load of a %d-byte file allocated %d bytes, bound %d", len(file), grew, limit)
			}
			if err != nil {
				if st != nil {
					t.Fatalf("Load returned a store alongside %v", err)
				}
				if !errors.Is(err, ErrCorruptSnapshot) && !optionsMismatch(err) {
					t.Fatalf("untyped Load error: %v", err)
				}
				continue
			}
			if err := st.CheckInvariants(); err != nil {
				t.Fatalf("loaded store: %v", err)
			}
			// Duplicates in a crafted section collapse, so the store can
			// hold fewer keys than the header counted, never more.
			if total := binary.LittleEndian.Uint64(file[16:24]); uint64(st.Len()) > total {
				t.Fatalf("store holds %d keys, header promised %d", st.Len(), total)
			}
		}
	})
}
