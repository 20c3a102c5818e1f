package wal

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"sort"
)

// segInfo identifies one on-disk segment of a shard.
type segInfo struct {
	name string
	seq  uint64
}

// listSegments returns shard's segments sorted by sequence. Duplicate
// sequences are impossible (the sequence is part of the name).
func listSegments(dir string, shard int) ([]segInfo, error) {
	ents, err := os.ReadDir(dir)
	if err != nil {
		if os.IsNotExist(err) {
			return nil, nil
		}
		return nil, fmt.Errorf("wal: read dir: %w", err)
	}
	var segs []segInfo
	for _, e := range ents {
		if e.IsDir() {
			continue
		}
		sh, seq, ok := parseSegmentName(e.Name())
		if !ok || sh != shard {
			continue
		}
		segs = append(segs, segInfo{name: e.Name(), seq: seq})
	}
	sort.Slice(segs, func(i, j int) bool { return segs[i].seq < segs[j].seq })
	return segs, nil
}

// ListShards returns the shard indices that have at least one segment in
// dir, ascending. Recovery uses it to notice segments written by a store
// with a different arena count than the one being opened — such segments
// would otherwise be silently skipped.
func ListShards(dir string) ([]int, error) {
	ents, err := os.ReadDir(dir)
	if err != nil {
		if os.IsNotExist(err) {
			return nil, nil
		}
		return nil, fmt.Errorf("wal: read dir: %w", err)
	}
	seen := map[int]bool{}
	for _, e := range ents {
		if e.IsDir() {
			continue
		}
		if sh, _, ok := parseSegmentName(e.Name()); ok {
			seen[sh] = true
		}
	}
	shards := make([]int, 0, len(seen))
	for sh := range seen {
		shards = append(shards, sh)
	}
	sort.Ints(shards)
	return shards, nil
}

// RemoveShard deletes every segment of one shard. Recovery uses it to clean
// up the record-less segments a previous store generation left behind (an
// arena-count migration leaves one empty post-checkpoint segment per old
// shard); callers must have verified the shard replays to zero records.
func RemoveShard(dir string, shard int) error {
	segs, err := listSegments(dir, shard)
	if err != nil {
		return err
	}
	for _, s := range segs {
		if err := os.Remove(filepath.Join(dir, s.name)); err != nil {
			return fmt.Errorf("wal: remove segment: %w", err)
		}
	}
	if len(segs) > 0 {
		return syncDir(dir)
	}
	return nil
}

// ReplayInfo summarises one shard's replay.
type ReplayInfo struct {
	// Segments and Records count what was successfully decoded.
	Segments int
	Records  int
	// Arenas is the arena count recorded in the segment headers (0 if there
	// were no segments). All segments of a shard must agree.
	Arenas int
	// TruncatedTail is true if a torn or corrupt tail was detected in the
	// newest segment and physically truncated away.
	TruncatedTail bool
}

// Replay feeds every intact record payload of one shard's log to fn, oldest
// segment first, in append order — exactly the order Enqueue assigned.
//
// Damage handling draws one line: the newest segment's tail is where a crash
// legitimately tears a write, so an incomplete frame, an impossible length, a
// length running past the end of the file or a CRC mismatch there is
// truncated off (the file is physically shortened to the last intact record)
// and replay succeeds with TruncatedTail set. The same damage anywhere else —
// an older segment, or a gap in the segment sequence — cannot be a torn tail:
// records after it were acknowledged, so dropping them would silently lose
// durable writes. That is reported as an error wrapping ErrCorruptWAL and
// nothing is modified. A panic is never the answer: every length is
// bounds-checked before use.
//
// fn receives a payload slice that is only valid for the duration of the
// call. An error from fn aborts the replay and is returned verbatim.
func Replay(dir string, shard int, fn func(payload []byte) error) (ReplayInfo, error) {
	var info ReplayInfo
	segs, err := listSegments(dir, shard)
	if err != nil {
		return info, err
	}
	for i, seg := range segs {
		last := i == len(segs)-1
		if i > 0 && seg.seq != segs[i-1].seq+1 {
			return info, corruptf("shard %d: segment %d follows %d (missing segment)", shard, seg.seq, segs[i-1].seq)
		}
		path := filepath.Join(dir, seg.name)
		arenas, err := replaySegment(path, shard, seg.seq, last, &info, fn)
		if err != nil {
			return info, err
		}
		if arenas < 0 {
			// Torn header on the newest segment: the whole file was removed.
			continue
		}
		if info.Arenas != 0 && arenas != info.Arenas {
			return info, corruptf("shard %d: segment %d recorded %d arenas, earlier segments %d", shard, seg.seq, arenas, info.Arenas)
		}
		info.Arenas = arenas
		info.Segments++
	}
	return info, nil
}

// replaySegment scans one segment file. For the newest segment (last=true)
// damage truncates; otherwise it is corruption. Returns the arena count from
// the header, or -1 if the segment was removed as a torn header.
func replaySegment(path string, shard int, seq uint64, last bool, info *ReplayInfo, fn func([]byte) error) (int, error) {
	f, err := os.Open(path)
	if err != nil {
		return 0, fmt.Errorf("wal: open segment: %w", err)
	}
	defer f.Close() //nolint:errsink read-only handle

	var hdr [segHeaderSize]byte
	if _, err := io.ReadFull(f, hdr[:]); err != nil {
		if err == io.EOF || err == io.ErrUnexpectedEOF {
			if last {
				// Crash while creating the segment: the header never made it
				// to disk, so no record in it can have been acknowledged.
				f.Close() //nolint:errsink read-only handle closed before removing the torn file
				if err := os.Remove(path); err != nil {
					return 0, fmt.Errorf("wal: remove torn segment: %w", err)
				}
				info.TruncatedTail = true
				return -1, syncDir(filepath.Dir(path))
			}
			return 0, corruptf("%s: short segment header", filepath.Base(path))
		}
		return 0, fmt.Errorf("wal: read segment header: %w", err)
	}
	arenas, err := checkHeader(hdr, shard, seq, filepath.Base(path))
	if err != nil {
		if last {
			f.Close() //nolint:errsink read-only handle closed before removing the torn file
			if rerr := os.Remove(path); rerr != nil {
				return 0, fmt.Errorf("wal: remove torn segment: %w", rerr)
			}
			info.TruncatedTail = true
			return -1, syncDir(filepath.Dir(path))
		}
		return 0, err
	}

	st, err := f.Stat()
	if err != nil {
		return 0, fmt.Errorf("wal: stat segment: %w", err)
	}

	// Read the record stream through a buffered reader, tracking the offset
	// of the last intact record end so a torn tail can be cut exactly there.
	br := newByteScanner(f)
	off := int64(segHeaderSize)
	for {
		var fh [frameHeaderSize]byte
		n, err := br.readFull(fh[:])
		if err != nil && err != io.EOF && err != io.ErrUnexpectedEOF {
			return 0, fmt.Errorf("wal: read record header: %w", err)
		}
		if n == 0 && err == io.EOF {
			return arenas, nil // clean end of segment
		}
		bad := ""
		var payloadLen int
		if n < frameHeaderSize {
			bad = "torn record header"
		} else {
			payloadLen = int(binary.LittleEndian.Uint32(fh[0:4]))
			switch left := st.Size() - off - frameHeaderSize; {
			case payloadLen == 0 || payloadLen > MaxRecord:
				bad = fmt.Sprintf("impossible record length %d", payloadLen)
			case int64(payloadLen) > left:
				// Judged before the payload is read: a length past the end
				// of the file must not size a buffer.
				bad = fmt.Sprintf("torn record payload (%d of %d bytes)", left, payloadLen)
			}
		}
		if bad == "" {
			payload, n, perr := br.payload(payloadLen)
			if perr != nil && perr != io.EOF && perr != io.ErrUnexpectedEOF {
				return 0, fmt.Errorf("wal: read record payload: %w", perr)
			}
			switch {
			case n < payloadLen:
				bad = fmt.Sprintf("torn record payload (%d of %d bytes)", n, payloadLen)
			case crc32.ChecksumIEEE(payload) != binary.LittleEndian.Uint32(fh[4:8]):
				bad = "record CRC mismatch"
			default:
				if err := fn(payload); err != nil {
					return 0, err
				}
				info.Records++
				off += int64(frameHeaderSize + payloadLen)
				continue
			}
		}
		if !last {
			return 0, corruptf("%s: %s at offset %d", filepath.Base(path), bad, off)
		}
		// Torn/corrupt tail of the newest segment: cut the file back to the
		// last intact record and make the truncation itself durable.
		if err := f.Close(); err != nil {
			return 0, fmt.Errorf("wal: close segment: %w", err)
		}
		if err := os.Truncate(path, off); err != nil {
			return 0, fmt.Errorf("wal: truncate torn tail: %w", err)
		}
		if err := fsyncFile(path); err != nil {
			return 0, err
		}
		info.TruncatedTail = true
		return arenas, nil
	}
}

// checkHeader validates a segment header against its file name.
func checkHeader(hdr [segHeaderSize]byte, shard int, seq uint64, name string) (arenas int, err error) {
	if string(hdr[0:8]) != segMagic {
		return 0, corruptf("%s: bad magic", name)
	}
	if got := crc32.ChecksumIEEE(hdr[:segHeaderSize-4]); got != binary.LittleEndian.Uint32(hdr[segHeaderSize-4:]) {
		return 0, corruptf("%s: header CRC mismatch", name)
	}
	if v := binary.LittleEndian.Uint16(hdr[8:10]); v != segVersion {
		return 0, corruptf("%s: unsupported version %d", name, v)
	}
	if sh := int(binary.LittleEndian.Uint16(hdr[10:12])); sh != shard {
		return 0, corruptf("%s: header shard %d does not match name", name, sh)
	}
	if s := binary.LittleEndian.Uint64(hdr[16:24]); s != seq {
		return 0, corruptf("%s: header sequence %d does not match name", name, s)
	}
	return int(binary.LittleEndian.Uint16(hdr[12:14])), nil
}

func fsyncFile(path string) error {
	f, err := os.OpenFile(path, os.O_WRONLY, 0)
	if err != nil {
		return fmt.Errorf("wal: reopen for sync: %w", err)
	}
	err = f.Sync()
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return fmt.Errorf("wal: sync truncated segment: %w", err)
	}
	return nil
}

// byteScanner is a small buffered reader that can lend out payload slices
// from its buffer without per-record allocations.
type byteScanner struct {
	r   io.Reader
	buf []byte
	pos int
	end int
	big []byte // spill buffer for payloads larger than buf
}

// scanBufSize is the byteScanner's buffer: payloads up to this size are lent
// from it, larger ones get a spill buffer of their own size.
const scanBufSize = 256 << 10

func newByteScanner(r io.Reader) *byteScanner {
	return &byteScanner{r: r, buf: make([]byte, scanBufSize)}
}

// readFull copies exactly len(p) bytes into p, returning how many it got.
func (s *byteScanner) readFull(p []byte) (int, error) {
	n := 0
	for n < len(p) {
		if s.pos == s.end {
			if err := s.fill(); err != nil {
				return n, err
			}
		}
		c := copy(p[n:], s.buf[s.pos:s.end])
		s.pos += c
		n += c
	}
	return n, nil
}

// payload returns the next size bytes, borrowing from the internal buffer
// when they fit contiguously. The slice is valid until the next call.
func (s *byteScanner) payload(size int) ([]byte, int, error) {
	if s.end-s.pos >= size {
		p := s.buf[s.pos : s.pos+size]
		s.pos += size
		return p, size, nil
	}
	if size <= len(s.buf) {
		// Slide the partial payload to the front and refill behind it.
		copy(s.buf, s.buf[s.pos:s.end])
		s.end -= s.pos
		s.pos = 0
		for s.end < size {
			if err := s.fill(); err != nil {
				return s.buf[:s.end], s.end, err
			}
		}
		p := s.buf[:size]
		s.pos = size
		return p, size, nil
	}
	if cap(s.big) < size {
		s.big = make([]byte, size)
	}
	p := s.big[:size]
	n, err := s.readFull(p)
	return p[:n], n, err
}

// fill appends more bytes after end, compacting first if the buffer is full.
func (s *byteScanner) fill() error {
	if s.pos == s.end {
		s.pos, s.end = 0, 0
	}
	if s.end == len(s.buf) {
		copy(s.buf, s.buf[s.pos:s.end])
		s.end -= s.pos
		s.pos = 0
	}
	n, err := s.r.Read(s.buf[s.end:])
	s.end += n
	if n > 0 {
		return nil
	}
	if err == nil {
		err = io.ErrUnexpectedEOF
	}
	return err
}
