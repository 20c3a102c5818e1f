package wal

import (
	"encoding/binary"
	"errors"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"testing"
)

// allocDuring returns the bytes the process allocated while fn ran.
func allocDuring(fn func()) uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	before := ms.TotalAlloc
	fn()
	runtime.ReadMemStats(&ms)
	return ms.TotalAlloc - before
}

// TestReplayTornLengthAllocatesNothing: a frame header whose length runs past
// the end of its segment is a torn payload, judged before anything is sized
// by it. Replay used to allocate the claimed length (up to MaxRecord, 1 GiB)
// first and only then find the bytes missing.
func TestReplayTornLengthAllocatesNothing(t *testing.T) {
	torn := binary.LittleEndian.AppendUint32(nil, MaxRecord)
	torn = append(torn, 0xde, 0xad, 0xbe, 0xef)
	for _, tc := range []struct {
		name    string
		records int
		segSize int64
		newest  bool
	}{
		{"newest-segment", 1, 1 << 20, true},
		{"older-segment", 30, 256, false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			segs := buildLog(t, dir, tc.records, tc.segSize)
			seg := segs[0]
			if tc.newest {
				seg = segs[len(segs)-1]
			} else if len(segs) < 2 {
				t.Fatalf("need >=2 segments, got %d", len(segs))
			}
			path := filepath.Join(dir, seg.name)
			intact, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(path, append(intact, torn...), 0o644); err != nil {
				t.Fatal(err)
			}
			var info ReplayInfo
			grew := allocDuring(func() {
				info, err = Replay(dir, 0, func([]byte) error { return nil })
			})
			if grew > 4<<20 {
				t.Fatalf("Replay allocated %d MiB for a torn length", grew>>20)
			}
			if !tc.newest {
				if !errors.Is(err, ErrCorruptWAL) {
					t.Fatalf("torn length in an older segment: Replay = %v, want ErrCorruptWAL", err)
				}
				return
			}
			if err != nil || !info.TruncatedTail || info.Records != tc.records {
				t.Fatalf("Replay = %+v, %v; want %d records and TruncatedTail", info, err, tc.records)
			}
			if st, err := os.Stat(path); err != nil || st.Size() != int64(len(intact)) {
				t.Fatalf("segment not cut back to its %d intact bytes: %v, %v", len(intact), st, err)
			}
		})
	}
}

// FuzzWALReplay feeds arbitrary bytes to Replay as one shard's segment
// content, both after a valid segment header and as the whole file, both as
// the newest segment and as an older one followed by a valid newest segment.
// Replay must never panic and never allocate more than the file plus its
// scanner buffers, whatever a length field claims. Damage to the newest
// segment is truncated (nil, and replaying the result is clean); damage to an
// older one is an error wrapping ErrCorruptWAL. The seed corpus, committed
// under testdata/fuzz/FuzzWALReplay, includes a 1 GiB length, a zero length,
// a CRC flip and a torn frame header.
func FuzzWALReplay(f *testing.F) {
	// A real two-segment log: segment 1 holds one record, segment 2 is the
	// header-only newest segment Rotate leaves behind.
	base := f.TempDir()
	l, err := Open(Options{Dir: base, Shard: 0, Arenas: 2, Policy: SyncAlways})
	if err != nil {
		f.Fatal(err)
	}
	seq, err := l.Enqueue(record(0))
	if err == nil {
		err = l.Commit(seq)
	}
	if err == nil {
		_, err = l.Rotate()
	}
	if cerr := l.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		f.Fatal(err)
	}
	seg1, err := os.ReadFile(filepath.Join(base, SegmentName(0, 1)))
	if err != nil {
		f.Fatal(err)
	}
	seg2, err := os.ReadFile(filepath.Join(base, SegmentName(0, 2)))
	if err != nil {
		f.Fatal(err)
	}
	hdr := seg1[:segHeaderSize:segHeaderSize]
	f.Add(seg1[segHeaderSize:])

	f.Fuzz(func(t *testing.T, data []byte) {
		for _, file := range [][]byte{append(hdr, data...), data} {
			for _, newest := range []bool{true, false} {
				dir := t.TempDir()
				if err := os.WriteFile(filepath.Join(dir, SegmentName(0, 1)), file, 0o644); err != nil {
					t.Fatal(err)
				}
				if !newest {
					if err := os.WriteFile(filepath.Join(dir, SegmentName(0, 2)), seg2, 0o644); err != nil {
						t.Fatal(err)
					}
				}
				var info ReplayInfo
				var err error
				grew := allocDuring(func() {
					info, err = Replay(dir, 0, func([]byte) error { return nil })
				})
				if limit := uint64(len(file)+2*scanBufSize) + 1<<20; grew > limit {
					t.Fatalf("Replay of a %d-byte segment allocated %d bytes", len(file), grew)
				}
				if !newest {
					if err != nil && !errors.Is(err, ErrCorruptWAL) && !errors.Is(err, io.ErrUnexpectedEOF) {
						t.Fatalf("older segment: Replay = %v, want nil or ErrCorruptWAL", err)
					}
					continue
				}
				if err != nil {
					t.Fatalf("newest segment: Replay = %v, want truncation", err)
				}
				again, err := Replay(dir, 0, func([]byte) error { return nil })
				if err != nil || again.TruncatedTail || again.Records != info.Records {
					t.Fatalf("replay after truncation = %+v, %v; first pass %+v", again, err, info)
				}
			}
		}
	})
}
