package hyperion

// Durable snapshots. A snapshot is the store's full content serialized in
// global lexicographic order, shaped so that recovery runs at bulk-ingest
// speed instead of per-key Put speed: the file is one sorted run cut into
// per-arena sections. Load reads the file in one piece, verifies every
// checksum, and decodes each section in one pass into the run its arena's
// bulk builder takes, applied with one writeRun (bulk.go), in parallel.
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
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"

	"repro/internal/keys"
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
// Save), read in one piece. See Load for the validation and options contract.
func LoadFile(path string, opts Options) (*Store, error) {
	buf, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("hyperion: read snapshot: %w", err)
	}
	return loadBytes(buf, opts)
}

// Load rebuilds a store from a snapshot stream, read to its end first. The
// header and every section checksum are validated before any key is
// ingested, so a damaged snapshot fails with an error wrapping
// ErrCorruptSnapshot and never yields a half-loaded store. opts configures
// the new store and must agree with the snapshot on KeyPreprocessing
// (recorded in the header); the arena count may differ — keys re-route
// through the leading-byte arena mapping on load.
func Load(r io.Reader, opts Options) (*Store, error) {
	var buf bytes.Buffer
	if sized, ok := r.(interface{ Len() int }); ok {
		buf.Grow(sized.Len() + bytes.MinRead) // in memory: one exact read
	}
	if _, err := buf.ReadFrom(r); err != nil {
		return nil, fmt.Errorf("hyperion: read snapshot: %w", err)
	}
	return loadBytes(buf.Bytes(), opts)
}

// loadBytes rebuilds a store from a whole snapshot image. Every length field
// is checked against what is left of buf before it is used, so no header
// value sizes an allocation.
func loadBytes(buf []byte, opts Options) (*Store, error) {
	if len(buf) < snapHeaderSize+4 {
		return nil, corruptf("header truncated: %d bytes", len(buf))
	}
	hdr := buf[:snapHeaderSize+4]
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

	// Every section is located and checksum-verified before anything is
	// ingested.
	payloads, counts := make([][]byte, arenas), make([]uint64, arenas)
	rest := buf[len(hdr):]
	for i := range payloads {
		var err error
		if payloads[i], counts[i], rest, err = cutSection(rest, i); err != nil {
			return nil, err
		}
	}
	if len(rest) != 0 {
		return nil, corruptf("trailing data after final section")
	}

	// Parallel ingest phase.
	st := New(opts)
	errs := make([]error, arenas)
	st.runIndexed(arenas, func(i int) {
		errs[i] = st.loadSection(i, counts[i], payloads[i])
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

// cutSection takes the checksum-verified section of arena want off the front
// of b: its payload (aliasing b), its key count and what follows it.
func cutSection(b []byte, want int) (payload []byte, count uint64, rest []byte, err error) {
	if len(b) < snapSectionHeaderSize {
		return nil, 0, nil, corruptf("section %d header truncated", want)
	}
	if a := int(binary.LittleEndian.Uint16(b[0:2])); a != want {
		return nil, 0, nil, corruptf("section %d carries arena index %d", want, a)
	}
	plen := binary.LittleEndian.Uint64(b[12:20])
	if plen > uint64(len(b)-snapSectionHeaderSize) {
		return nil, 0, nil, corruptf("section %d payload truncated: %d bytes promised, %d left", want, plen, len(b)-snapSectionHeaderSize)
	}
	end := snapSectionHeaderSize + int(plen)
	if len(b)-end < 4 {
		return nil, 0, nil, corruptf("section %d checksum truncated", want)
	}
	if got, crc := binary.LittleEndian.Uint32(b[end:]), crc32.ChecksumIEEE(b[:end]); got != crc {
		return nil, 0, nil, corruptf("section %d checksum mismatch (got %08x, want %08x)", want, got, crc)
	}
	return b[snapSectionHeaderSize:end], binary.LittleEndian.Uint64(b[4:12]), b[end+4:], nil
}

// loadFlushBytes bounds the key storage loadSection holds before it hands
// the decoded run to the store. The delta encoding lets a small payload
// legitimately expand (shared prefixes are stored once), so the decoded size
// is NOT bounded by the payload size; a crafted payload could exploit that
// quadratically. Flushing in bounded runs and recycling the key slabs caps
// the decoder's memory at O(payload + loadFlushBytes) whatever the input
// claims. The bound is generous because each flush after the first merges
// into a non-empty tree, slower than the empty-store bulk path; ordinary
// sections stay below it and ingest in one writeRun.
const loadFlushBytes = 32 << 20

// keySlabs hands out key storage from slabs that never regrow, so what it
// hands out stays valid until zeroing cur, off and held recycles the slabs.
// held counts the bytes handed out or skipped at slab ends since then.
type keySlabs struct {
	slabs          [][]byte
	cur, off, held int
	size           int // of a regular slab; a longer key gets its own
}

func (k *keySlabs) take(n int) []byte {
	for ; k.cur < len(k.slabs); k.cur, k.off = k.cur+1, 0 {
		if s := k.slabs[k.cur]; k.off+n <= len(s) {
			k.off, k.held = k.off+n, k.held+n
			return s[k.off-n : k.off : k.off]
		}
		k.held += len(k.slabs[k.cur]) - k.off
	}
	k.slabs = append(k.slabs, make([]byte, max(n, k.size)))
	return k.take(n)
}

// loadSection decodes one checksum-verified section in one pass into a
// stored-form run (keys pre-processed into slabs as they are decoded, values
// and the valued/bare flag alongside) and ingests it through writeRun, in
// runs of at most loadFlushBytes of keys. A run that is not strictly
// increasing (only a crafted file holds one) goes key by key in file order,
// to what a Put/PutKey loop over the file leaves.
func (s *Store) loadSection(arena int, count uint64, p []byte) error {
	if maxPairs := uint64(len(p))/2 + 1; count > maxPairs {
		return corruptf("section %d claims %d keys in %d payload bytes", arena, count, len(p))
	}
	run := storedRun{keys: make([][]byte, 0, count), vals: make([]uint64, 0, count), hasv: make([]bool, 0, count), ordered: true}
	slabs := keySlabs{size: min(1<<20, 2*len(p)+64)}
	var raw []byte // the previous key, raw: the delta base of the next
	var total uint64
	for pos := 0; pos < len(p); {
		lcp, n := binary.Uvarint(p[pos:])
		if n <= 0 {
			return corruptf("section %d: bad prefix-length varint at offset %d", arena, pos)
		}
		pos += n
		head, n := binary.Uvarint(p[pos:])
		if n <= 0 {
			return corruptf("section %d: bad suffix-length varint at offset %d", arena, pos)
		}
		pos += n
		suffixLen := head >> 1
		if lcp > uint64(len(raw)) {
			return corruptf("section %d: prefix length %d exceeds previous key length %d", arena, lcp, len(raw))
		}
		if suffixLen > uint64(len(p)-pos) {
			return corruptf("section %d: suffix length %d exceeds remaining payload", arena, suffixLen)
		}
		// The new key shares raw[:lcp]: it sorts above raw when suffix sorts
		// above raw[lcp:], and stored keys keep that order unless
		// pre-processing puts the two across the 4-byte length boundary.
		suffix := p[pos : pos+int(suffixLen)]
		up := suffixLen > 0 && (lcp == uint64(len(raw)) || suffix[0] > raw[lcp] || suffix[0] == raw[lcp] && bytes.Compare(raw[lcp:], suffix) < 0)
		crossed := s.opts.KeyPreprocessing && (len(raw) < 4) != (lcp+suffixLen < 4)
		raw = append(raw[:lcp], suffix...)
		pos += int(suffixLen)
		var v uint64
		if head&1 != 0 {
			if v, n = binary.Uvarint(p[pos:]); n <= 0 {
				return corruptf("section %d: bad value varint at offset %d", arena, pos)
			}
			pos += n
		}
		var k []byte
		if s.opts.KeyPreprocessing {
			k = keys.PreprocessAppend(slabs.take(keys.PreprocessedLen(len(raw)))[:0], raw)
		} else {
			k = slabs.take(len(raw))
			copy(k, raw)
		}
		if m := len(run.keys); m > 0 && (!up || crossed && bytes.Compare(run.keys[m-1], k) >= 0) {
			run.ordered = false
		}
		run.keys = append(run.keys, k)
		run.vals = append(run.vals, v)
		run.hasv = append(run.hasv, head&1 != 0)
		if slabs.held >= loadFlushBytes {
			total += s.ingestRun(&run)
			slabs.cur, slabs.off, slabs.held = 0, 0, 0 // recycle the slabs
		}
	}
	total += s.ingestRun(&run)
	if total != count {
		return corruptf("section %d decoded %d keys, header promises %d", arena, total, count)
	}
	return nil
}

// ingestRun stores a decoded section run with one writeRun per arena span
// (one, unless the file was saved under another arena count) and empties it.
func (s *Store) ingestRun(run *storedRun) uint64 {
	n := len(run.keys)
	for _, sp := range s.arenaSpans(n, func(i int) []byte { return run.keys[i] }) {
		s.writeRun(s.shards[sp.arena], &storedRun{keys: run.keys[sp.lo:sp.hi], vals: run.vals[sp.lo:sp.hi], hasv: run.hasv[sp.lo:sp.hi], ordered: run.ordered})
	}
	run.keys, run.vals, run.hasv, run.ordered = run.keys[:0], run.vals[:0], run.hasv[:0], true
	return uint64(n)
}
