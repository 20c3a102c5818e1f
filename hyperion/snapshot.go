package hyperion

// Durable snapshots. A snapshot is the store's full content serialized in
// global lexicographic order, shaped so that recovery runs at bulk-ingest
// speed instead of per-key Put speed: the file is one sorted run cut into
// per-arena sections, and Load feeds each section straight into the
// append-only bulk-ingestion path (bulk.go), sections decoding in parallel
// on the worker pool.
//
// On-disk layout (all integers little-endian, varints are encoding/binary
// uvarints):
//
//	header (28 bytes)
//	  [0:8]   magic "HYPSNAP1"
//	  [8:10]  format version (currently 1)
//	  [10]    flags (bit 0: the store was built with KeyPreprocessing)
//	  [11]    reserved (0)
//	  [12:14] arena count = number of sections that follow
//	  [14:16] reserved (0)
//	  [16:24] total key count across all sections
//	  [24:28] CRC32 (IEEE) of header bytes [0:24]
//
//	section, one per arena, in arena order (= global key order)
//	  [0:2]   arena index
//	  [2:4]   reserved (0)
//	  [4:12]  key count
//	  [12:20] payload length in bytes
//	  [20:..] payload
//	  [..+4]  CRC32 (IEEE) of the section header and payload
//
//	payload: per key, in scan order
//	  uvarint  shared prefix length with the previous key of the section
//	  uvarint  suffixLen<<1 | hasValue
//	  bytes    the suffix (raw, un-preprocessed key bytes)
//	  uvarint  value (present only when hasValue is set)
//
// Keys are stored in their raw form; the KeyPreprocessing flag records the
// configuration of the saving store so a snapshot is only restored into a
// store with the same key transformation (Load rejects a mismatch — the two
// configurations produce incomparable footprints and, for mixed key lengths,
// different iteration orders). Every byte of the file is covered by one of
// the two checksum kinds, so any single corrupted byte fails Load with a
// descriptive error instead of a panic or a silently half-loaded store.

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"slices"
)

const (
	snapshotMagic   = "HYPSNAP1"
	snapshotVersion = 1

	snapHeaderSize        = 24 // + 4 CRC bytes
	snapSectionHeaderSize = 20

	snapFlagKeyPreprocessing = 1 << 0
)

// ErrCorruptSnapshot is wrapped by every Load error caused by a damaged or
// truncated snapshot (as opposed to an I/O failure or an options mismatch).
var ErrCorruptSnapshot = errors.New("corrupt snapshot")

func corruptf(format string, args ...any) error {
	return fmt.Errorf("hyperion: %w: %s", ErrCorruptSnapshot, fmt.Sprintf(format, args...))
}

// Save streams a snapshot of the store to w and returns the exact number of
// keys written. Arena sections are encoded concurrently on the worker pool
// through the chunked shard scan, so Save is safe to run while other
// goroutines read and write the store: no shard lock is held across a full
// arena, and every key untouched during the save is written exactly once.
// The flip side is the Range anomaly window — keys inserted or deleted while
// the save is in progress may or may not be included; a save concurrent with
// writes is a consistent *per-key* snapshot, not a point-in-time one.
// Quiesce writers when an atomic image is required.
//
// The fixed header precedes all sections and carries the exact total key
// count, which is only known once every section is encoded, so Save buffers
// the encoded sections before the first byte reaches w: a save transiently
// allocates roughly the snapshot's size (typically well below the live
// MemoryFootprint thanks to the delta encoding).
func (s *Store) Save(w io.Writer) (int, error) {
	sections := make([][]byte, len(s.shards))
	counts := make([]uint64, len(s.shards))
	s.runIndexed(len(s.shards), func(i int) {
		sections[i], counts[i] = s.encodeSection(i)
	})
	var total uint64
	for _, c := range counts {
		total += c
	}
	hdr := make([]byte, 0, snapHeaderSize+4)
	hdr = append(hdr, snapshotMagic...)
	hdr = binary.LittleEndian.AppendUint16(hdr, snapshotVersion)
	var flags byte
	if s.opts.KeyPreprocessing {
		flags |= snapFlagKeyPreprocessing
	}
	hdr = append(hdr, flags, 0)
	hdr = binary.LittleEndian.AppendUint16(hdr, uint16(len(s.shards)))
	hdr = append(hdr, 0, 0)
	hdr = binary.LittleEndian.AppendUint64(hdr, total)
	hdr = binary.LittleEndian.AppendUint32(hdr, crc32.ChecksumIEEE(hdr))
	if _, err := w.Write(hdr); err != nil {
		return 0, fmt.Errorf("hyperion: write snapshot header: %w", err)
	}
	for i, sec := range sections {
		if _, err := w.Write(sec); err != nil {
			return 0, fmt.Errorf("hyperion: write snapshot section %d: %w", i, err)
		}
	}
	return int(total), nil
}

// snapTemp is the write surface SaveFile streams a snapshot through. The
// production implementation is the *os.File from os.CreateTemp;
// createSnapTemp is a package variable so fault-injection tests can splice
// an injector (internal/fault) into the snapshot path, mirroring the WAL's
// Options.WALOpenFile seam.
type snapTemp interface {
	io.Writer
	Sync() error
	Close() error
}

var createSnapTemp = func(dir, pattern string) (snapTemp, string, error) {
	f, err := os.CreateTemp(dir, pattern)
	if err != nil {
		return nil, "", err
	}
	return f, f.Name(), nil
}

// SaveFile writes a snapshot to path atomically and returns the exact number
// of keys written: the bytes go to a temporary file in the same directory,
// are synced, and the file is renamed over path only after everything
// succeeded, so a crash mid-save never leaves a truncated snapshot under the
// target name.
func (s *Store) SaveFile(path string) (n int, err error) {
	f, tmp, err := createSnapTemp(filepath.Dir(path), filepath.Base(path)+".tmp-*")
	if err != nil {
		return 0, fmt.Errorf("hyperion: snapshot temp file: %w", err)
	}
	defer func() {
		if err != nil {
			f.Close() //nolint:errsink save already failed; the temp file is being discarded
			os.Remove(tmp)
		}
	}()
	bw := bufio.NewWriterSize(f, 1<<20)
	if n, err = s.Save(bw); err != nil {
		return 0, err
	}
	if err = bw.Flush(); err != nil {
		return 0, fmt.Errorf("hyperion: flush snapshot: %w", err)
	}
	if err = f.Sync(); err != nil {
		return 0, fmt.Errorf("hyperion: sync snapshot: %w", err)
	}
	if err = f.Close(); err != nil {
		return 0, fmt.Errorf("hyperion: close snapshot: %w", err)
	}
	if err = os.Rename(tmp, path); err != nil {
		return 0, fmt.Errorf("hyperion: rename snapshot into place: %w", err)
	}
	// The rename itself lives in the directory: without syncing it, a crash
	// can roll the directory entry back even though the data blocks were
	// synced, and "SaveFile returned" would not mean "durable".
	//
	// (Directory-sync failures after a successful rename are surfaced but
	// cannot un-rename: the new snapshot is in place either way.)
	if d, derr := os.Open(filepath.Dir(path)); derr == nil {
		err = d.Sync()
		if cerr := d.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			return 0, fmt.Errorf("hyperion: sync snapshot directory: %w", err)
		}
	}
	return n, nil
}

// encodeSection serializes one arena into a complete section (header,
// delta-encoded payload, checksum) and returns it with its key count. The
// scan reads seqlock-validated chunks and encodes them with nothing held,
// per the scanShardChunks contract.
func (s *Store) encodeSection(arena int) ([]byte, uint64) {
	var payload []byte
	var prev []byte
	var count uint64
	st := getScanState()
	s.scanShardChunks(s.shards[arena], st, nil, nil, scanChunkSize, nil,
		func() *kvChunk { return &st.chunk },
		func(c *kvChunk) bool {
			for j := 0; j < c.len(); j++ {
				k := c.key(j)
				lcp := commonPrefixLen(prev, k)
				payload = binary.AppendUvarint(payload, uint64(lcp))
				head := uint64(len(k)-lcp) << 1
				if c.hasValue(j) {
					head |= 1
				}
				payload = binary.AppendUvarint(payload, head)
				payload = append(payload, k[lcp:]...)
				if c.hasValue(j) {
					payload = binary.AppendUvarint(payload, c.value(j))
				}
				prev = append(prev[:0], k...)
				count++
			}
			return true
		})
	putScanState(st)
	sec := make([]byte, 0, snapSectionHeaderSize+len(payload)+4)
	sec = binary.LittleEndian.AppendUint16(sec, uint16(arena))
	sec = append(sec, 0, 0)
	sec = binary.LittleEndian.AppendUint64(sec, count)
	sec = binary.LittleEndian.AppendUint64(sec, uint64(len(payload)))
	sec = append(sec, payload...)
	sec = binary.LittleEndian.AppendUint32(sec, crc32.ChecksumIEEE(sec))
	return sec, count
}

func commonPrefixLen(a, b []byte) int {
	n := min(len(a), len(b))
	i := 0
	for i < n && a[i] == b[i] {
		i++
	}
	return i
}

// LoadFile rebuilds a store from a snapshot file written by SaveFile (or
// Save). See Load for the validation and options contract.
func LoadFile(path string, opts Options) (*Store, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("hyperion: open snapshot: %w", err)
	}
	defer f.Close() //nolint:errsink read-only handle; every read was already validated
	return Load(bufio.NewReaderSize(f, 1<<20), opts)
}

// snapSection is one arena section pulled off the stream, checksum-verified
// but not yet decoded.
type snapSection struct {
	count   uint64
	payload []byte
}

// Load rebuilds a store from a snapshot stream. The header and every section
// checksum are validated before any key is ingested, so a damaged snapshot
// fails with an error wrapping ErrCorruptSnapshot and never yields a
// half-loaded store. opts configures the new store and must agree with the
// snapshot on KeyPreprocessing (recorded in the header); the arena count may
// differ — sections re-route through the leading-byte arena mapping on load.
//
// Recovery runs at bulk-ingest speed: sections decode in parallel on the
// worker pool, and each section's sorted run goes through the append-only
// BulkLoad fast path instead of per-key puts.
func Load(r io.Reader, opts Options) (*Store, error) {
	var hdr [snapHeaderSize + 4]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return nil, corruptf("header truncated: %v", err)
	}
	if string(hdr[0:8]) != snapshotMagic {
		return nil, corruptf("bad magic %q", hdr[0:8])
	}
	if got, want := binary.LittleEndian.Uint32(hdr[snapHeaderSize:]), crc32.ChecksumIEEE(hdr[:snapHeaderSize]); got != want {
		return nil, corruptf("header checksum mismatch (got %08x, want %08x)", got, want)
	}
	if v := binary.LittleEndian.Uint16(hdr[8:10]); v != snapshotVersion {
		return nil, fmt.Errorf("hyperion: unsupported snapshot format version %d (this build reads version %d)", v, snapshotVersion)
	}
	flags := hdr[10]
	if flags&^byte(snapFlagKeyPreprocessing) != 0 {
		return nil, corruptf("unknown flag bits %#02x", flags)
	}
	if prep := flags&snapFlagKeyPreprocessing != 0; prep != opts.KeyPreprocessing {
		return nil, fmt.Errorf("hyperion: snapshot was saved with KeyPreprocessing=%v, options request KeyPreprocessing=%v", prep, opts.KeyPreprocessing)
	}
	arenas := int(binary.LittleEndian.Uint16(hdr[12:14]))
	if arenas < 1 || arenas > 256 {
		return nil, corruptf("arena count %d out of range", arenas)
	}
	wantKeys := binary.LittleEndian.Uint64(hdr[16:24])

	// Sequential read phase: every section is pulled in and checksum-verified
	// before anything is ingested.
	sections := make([]snapSection, arenas)
	for i := range sections {
		if err := readSection(r, i, &sections[i]); err != nil {
			return nil, err
		}
	}
	var tail [1]byte
	if n, _ := io.ReadFull(r, tail[:]); n != 0 {
		return nil, corruptf("trailing data after final section")
	}

	// Parallel ingest phase.
	st := New(opts)
	counts := make([]uint64, arenas)
	errs := make([]error, arenas)
	st.runIndexed(arenas, func(i int) {
		counts[i], errs[i] = st.loadSection(i, &sections[i])
	})
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	var total uint64
	for _, c := range counts {
		total += c
	}
	if total != wantKeys {
		return nil, corruptf("header promises %d keys, sections carried %d", wantKeys, total)
	}
	return st, nil
}

// readSection reads the section expected to carry arena index want and
// verifies its checksum.
func readSection(r io.Reader, want int, sec *snapSection) error {
	var hdr [snapSectionHeaderSize]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return corruptf("section %d header truncated: %v", want, err)
	}
	if a := int(binary.LittleEndian.Uint16(hdr[0:2])); a != want {
		return corruptf("section %d carries arena index %d", want, a)
	}
	sec.count = binary.LittleEndian.Uint64(hdr[4:12])
	plen := binary.LittleEndian.Uint64(hdr[12:20])
	payload, err := readExactly(r, plen)
	if err != nil {
		return corruptf("section %d payload truncated: %v", want, err)
	}
	var crcBuf [4]byte
	if _, err := io.ReadFull(r, crcBuf[:]); err != nil {
		return corruptf("section %d checksum truncated: %v", want, err)
	}
	crc := crc32.ChecksumIEEE(hdr[:])
	crc = crc32.Update(crc, crc32.IEEETable, payload)
	if got := binary.LittleEndian.Uint32(crcBuf[:]); got != crc {
		return corruptf("section %d checksum mismatch (got %08x, want %08x)", want, got, crc)
	}
	sec.payload = payload
	return nil
}

// readExactly reads n bytes in bounded steps. The length comes from an
// untrusted header field, so a corrupted value must surface as a truncation
// error — never as an attempt to allocate the corrupted length up front.
func readExactly(r io.Reader, n uint64) ([]byte, error) {
	const step = 1 << 20
	buf := make([]byte, 0, int(min(n, step)))
	for uint64(len(buf)) < n {
		take := int(min(n-uint64(len(buf)), step))
		old := len(buf)
		buf = slices.Grow(buf, take)[:old+take]
		if _, err := io.ReadFull(r, buf[old:]); err != nil {
			return nil, err
		}
	}
	return buf, nil
}

// loadFlushBytes bounds how many reconstructed key bytes loadSection
// buffers before handing the decoded run to the store. The delta encoding
// lets a small payload legitimately expand (shared prefixes are stored
// once), so the total decoded size is NOT bounded by the payload size; a
// crafted payload could exploit that quadratically. Flushing in bounded
// batches caps the decoder's transient memory at O(payload + loadFlushBytes)
// no matter what the input claims — the store then holds whatever the data
// really is, exactly as if it had been ingested directly. The bound is
// generous because each flush after the first merges into a non-empty tree,
// which is slower than the empty-store bulk path; ordinary sections stay
// below it and ingest in one shot.
const loadFlushBytes = 32 << 20

// loadSection decodes one checksum-verified section and ingests it in
// bounded batches: valued keys form sorted runs for the bulk-ingestion fast
// path, bare (PutKey) keys — which the container encoding's bulk builder
// does not carry — are stored individually per batch. Returns the number of
// keys ingested.
func (s *Store) loadSection(arena int, sec *snapSection) (uint64, error) {
	p := sec.payload
	if maxPairs := uint64(len(p))/2 + 1; sec.count > maxPairs {
		return 0, corruptf("section %d claims %d keys in %d payload bytes", arena, sec.count, len(p))
	}
	var flat []byte
	offs := make([]int, 1, min(sec.count+1, 64*1024))
	vals := make([]uint64, 0, cap(offs)-1)
	hasv := make([]bool, 0, cap(offs)-1)
	prevStart, prevLen := 0, 0
	var total uint64

	// ingest stores the pending decoded pairs and resets the batch buffers,
	// keeping only the previous key's bytes (the next pair's delta base).
	// BulkLoad and PutKey copy what they store, so the buffers are free to
	// be reused afterwards.
	ingest := func() {
		n := len(offs) - 1
		if n == 0 {
			return
		}
		pairs := make([]Pair, 0, n)
		var bare [][]byte
		for i := 0; i < n; i++ {
			k := flat[offs[i]:offs[i+1]:offs[i+1]]
			if hasv[i] {
				pairs = append(pairs, Pair{Key: k, Value: vals[i]})
			} else {
				bare = append(bare, k)
			}
		}
		s.BulkLoad(pairs)
		for _, k := range bare {
			s.PutKey(k)
		}
		total += uint64(n)
		keep := append([]byte(nil), flat[prevStart:prevStart+prevLen]...)
		flat = append(flat[:0], keep...)
		prevStart = 0
		offs = append(offs[:0], prevLen)
		vals, hasv = vals[:0], hasv[:0]
	}

	pos := 0
	for pos < len(p) {
		lcp, n := binary.Uvarint(p[pos:])
		if n <= 0 {
			return 0, corruptf("section %d: bad prefix-length varint at offset %d", arena, pos)
		}
		pos += n
		head, n := binary.Uvarint(p[pos:])
		if n <= 0 {
			return 0, corruptf("section %d: bad suffix-length varint at offset %d", arena, pos)
		}
		pos += n
		suffixLen := head >> 1
		if lcp > uint64(prevLen) {
			return 0, corruptf("section %d: prefix length %d exceeds previous key length %d", arena, lcp, prevLen)
		}
		if suffixLen > uint64(len(p)-pos) {
			return 0, corruptf("section %d: suffix length %d exceeds remaining payload", arena, suffixLen)
		}
		start := len(flat)
		flat = append(flat, flat[prevStart:prevStart+int(lcp)]...)
		flat = append(flat, p[pos:pos+int(suffixLen)]...)
		pos += int(suffixLen)
		prevStart, prevLen = start, len(flat)-start
		offs = append(offs, len(flat))
		if head&1 != 0 {
			v, n := binary.Uvarint(p[pos:])
			if n <= 0 {
				return 0, corruptf("section %d: bad value varint at offset %d", arena, pos)
			}
			pos += n
			vals = append(vals, v)
			hasv = append(hasv, true)
		} else {
			vals = append(vals, 0)
			hasv = append(hasv, false)
		}
		if len(flat) >= loadFlushBytes {
			ingest()
		}
	}
	ingest()
	if total != sec.count {
		return 0, corruptf("section %d decoded %d keys, header promises %d", arena, total, sec.count)
	}
	return total, nil
}
