package memman

import (
	"math/rand"
	"testing"
)

func TestClassForSize(t *testing.T) {
	cases := []struct{ size, class int }{
		{1, 1}, {31, 1}, {32, 1}, {33, 2}, {64, 2}, {65, 3}, {2016, 63},
	}
	for _, c := range cases {
		if got := classForSize(c.size); got != c.class {
			t.Errorf("classForSize(%d) = %d, want %d", c.size, got, c.class)
		}
	}
}

func TestRoundExtended(t *testing.T) {
	cases := []struct{ in, out int }{
		{2017, 2048},
		{2048, 2048},
		{2049, 2304},
		{8192, 8192},
		{8193, 9216},
		{16384, 16384},
		{16385, 20480},
		{100000, 102400},
	}
	for _, c := range cases {
		if got := roundExtended(c.in); got != c.out {
			t.Errorf("roundExtended(%d) = %d, want %d", c.in, got, c.out)
		}
	}
}

// TestBlockAddressingIsDivisionFree pins what the shift/mask block addressing
// relies on: for every small size class blockChunksFor is a power of two that
// divides ChunksPerBin, and chunkSlice/chunkRO address exactly the bytes the
// quotient/remainder form (block chunk/bc, offset chunk%bc*size) addresses,
// checked at the edges of the first two blocks and of the last one.
func TestBlockAddressingIsDivisionFree(t *testing.T) {
	for field := 0; field < extendedSB; field++ {
		size := classChunkSize(field)
		bc := blockChunksFor(size)
		if bc <= 0 || bc&(bc-1) != 0 || ChunksPerBin%bc != 0 {
			t.Fatalf("class %d B: blockChunksFor = %d, want a power of two dividing %d", size, bc, ChunksPerBin)
		}
		a := &Allocator{}
		sb := &superbin{field: field, chunkSize: size}
		b := newBin(bc)
		if len(b.blocks) != ChunksPerBin/bc || b.blockChunks() != bc {
			t.Fatalf("class %d B: bin has %d blocks of %d chunks, want %d of %d", size, len(b.blocks), b.blockChunks(), ChunksPerBin/bc, bc)
		}
		for _, chunk := range []int{0, 1, bc - 1, bc, bc + 1, 2*bc - 1, 2 * bc, ChunksPerBin - bc - 1, ChunksPerBin - bc, ChunksPerBin - 1} {
			rw := a.chunkSlice(sb, b, chunk)
			ro := b.chunkRO(MakeHP(field, 0, 0, chunk), size, chunk)
			blk := *b.blocks[chunk/bc].Load()
			want := blk[chunk%bc*size : chunk%bc*size+size]
			if len(blk) != bc*size {
				t.Fatalf("class %d B: block of %d bytes, want %d", size, len(blk), bc*size)
			}
			for _, got := range [][]byte{rw, ro} { // chunkSlice, chunkRO
				if &got[0] != &want[0] || len(got) != size || cap(got) != size {
					t.Fatalf("class %d B chunk %d: got len %d cap %d at %p, want len=cap=%d at %p",
						size, chunk, len(got), cap(got), &got[0], size, &want[0])
				}
			}
		}
	}
}

func TestAllocNeverReturnsNilHP(t *testing.T) {
	a := New()
	for i := 0; i < 100; i++ {
		hp, _ := a.Alloc(32)
		if hp.IsNil() {
			t.Fatal("Alloc returned the reserved nil HP")
		}
	}
}

func TestAllocResolveSmall(t *testing.T) {
	a := New()
	hp, buf := a.Alloc(100)
	if len(buf) != 128 {
		t.Fatalf("granted capacity = %d, want 128 (size class)", len(buf))
	}
	for i := range buf {
		buf[i] = byte(i)
	}
	got := a.Resolve(hp)
	for i := range got {
		if got[i] != byte(i) {
			t.Fatalf("Resolve returned different memory at %d", i)
		}
	}
	if a.Capacity(hp) != 128 {
		t.Fatalf("Capacity = %d, want 128", a.Capacity(hp))
	}
}

func TestAllocResolveExtended(t *testing.T) {
	a := New()
	hp, buf := a.Alloc(5000)
	if hp.Superbin() != extendedSB {
		t.Fatalf("large alloc landed in superbin %d, want %d", hp.Superbin(), extendedSB)
	}
	if len(buf) != 5120 {
		t.Fatalf("granted = %d, want 5120 (256-byte increments)", len(buf))
	}
	buf[0], buf[len(buf)-1] = 0xab, 0xcd
	got := a.Resolve(hp)
	if got[0] != 0xab || got[len(got)-1] != 0xcd {
		t.Fatal("Resolve of extended entry lost data")
	}
}

func TestFreeAndReuse(t *testing.T) {
	a := New()
	hp1, _ := a.Alloc(32)
	a.Free(hp1)
	hp2, _ := a.Alloc(32)
	if hp1 != hp2 {
		t.Fatalf("freed chunk not reused: %v then %v", hp1, hp2)
	}
}

func TestDoubleFreePanics(t *testing.T) {
	a := New()
	hp, _ := a.Alloc(32)
	a.Free(hp)
	defer func() {
		if recover() == nil {
			t.Fatal("double free did not panic")
		}
	}()
	a.Free(hp)
}

func TestResolveNilPanics(t *testing.T) {
	a := New()
	defer func() {
		if recover() == nil {
			t.Fatal("Resolve(nil) did not panic")
		}
	}()
	a.Resolve(NilHP)
}

func TestReallocSameClassKeepsHP(t *testing.T) {
	a := New()
	hp, buf := a.Alloc(33) // 64-byte class
	buf[0] = 0x7f
	hp2, buf2 := a.Realloc(hp, 60)
	if hp2 != hp {
		t.Fatalf("realloc within class moved HP %v -> %v", hp, hp2)
	}
	if buf2[0] != 0x7f {
		t.Fatal("realloc within class lost data")
	}
}

func TestReallocGrowAcrossClasses(t *testing.T) {
	a := New()
	hp, buf := a.Alloc(32)
	copy(buf, []byte("hyperion"))
	hp2, buf2 := a.Realloc(hp, 200)
	if hp2 == hp {
		t.Fatal("realloc across classes must move the chunk")
	}
	if string(buf2[:8]) != "hyperion" {
		t.Fatal("realloc lost data")
	}
	if len(buf2) != 224 {
		t.Fatalf("granted = %d, want 224", len(buf2))
	}
	// The old chunk must be reusable.
	hp3, _ := a.Alloc(32)
	if hp3 != hp {
		t.Fatalf("old chunk not recycled: got %v, want %v", hp3, hp)
	}
}

func TestReallocExtendedKeepsHP(t *testing.T) {
	a := New()
	hp, buf := a.Alloc(3000)
	copy(buf, []byte("payload"))
	hp2, buf2 := a.Realloc(hp, 50000)
	if hp2 != hp {
		t.Fatalf("extended realloc changed HP %v -> %v", hp, hp2)
	}
	if string(buf2[:7]) != "payload" {
		t.Fatal("extended realloc lost data")
	}
	if len(buf2) != roundExtended(50000) {
		t.Fatalf("granted = %d, want %d", len(buf2), roundExtended(50000))
	}
}

func TestReallocShrinkExtendedToSmall(t *testing.T) {
	a := New()
	hp, buf := a.Alloc(4000)
	copy(buf, []byte("shrink"))
	hp2, buf2 := a.Realloc(hp, 64)
	if hp2.Superbin() == extendedSB {
		t.Fatal("shrunk allocation should leave the extended superbin")
	}
	if string(buf2[:6]) != "shrink" {
		t.Fatal("shrink lost data")
	}
}

func TestBinOverflowCreatesNewBin(t *testing.T) {
	a := New()
	hps := make([]HP, 0, ChunksPerBin+10)
	for i := 0; i < ChunksPerBin+10; i++ {
		hp, _ := a.Alloc(32)
		hps = append(hps, hp)
	}
	seen := map[HP]bool{}
	binSeen := map[int]bool{}
	for _, hp := range hps {
		if seen[hp] {
			t.Fatalf("duplicate HP handed out: %v", hp)
		}
		seen[hp] = true
		binSeen[hp.Bin()] = true
	}
	if len(binSeen) < 2 {
		t.Fatalf("expected allocations to spill into a second bin, bins used: %d", len(binSeen))
	}
}

func TestAccountingBalances(t *testing.T) {
	a := New()
	var hps []HP
	for i := 0; i < 500; i++ {
		size := 16 + i%2500
		hp, _ := a.Alloc(size)
		hps = append(hps, hp)
	}
	st := a.Stats()
	if st.AllocatedChunks != 500 {
		t.Fatalf("allocated chunks = %d, want 500", st.AllocatedChunks)
	}
	for _, hp := range hps {
		a.Free(hp)
	}
	st = a.Stats()
	if st.AllocatedChunks != 0 {
		t.Fatalf("after freeing everything, allocated chunks = %d, want 0", st.AllocatedChunks)
	}
	if a.requestedSm != 0 || a.requestedExt != 0 {
		t.Fatalf("requested accounting drifted: small=%d ext=%d", a.requestedSm, a.requestedExt)
	}
}

func TestStatsSuperbinBreakdown(t *testing.T) {
	a := New()
	// 10 chunks in the 96-byte class (paper SB3) and 3 extended entries.
	for i := 0; i < 10; i++ {
		a.Alloc(96)
	}
	for i := 0; i < 3; i++ {
		a.Alloc(4096)
	}
	st := a.Stats()
	if st.Superbins[3].AllocatedChunks != 10 {
		t.Fatalf("SB3 allocated = %d, want 10", st.Superbins[3].AllocatedChunks)
	}
	if st.Superbins[3].ChunkSize != 96 {
		t.Fatalf("SB3 chunk size = %d, want 96", st.Superbins[3].ChunkSize)
	}
	if st.Superbins[0].AllocatedChunks != 3 {
		t.Fatalf("SB0 allocated = %d, want 3", st.Superbins[0].AllocatedChunks)
	}
	// Only chunks in blocks whose backing memory exists count as empty
	// (external fragmentation).
	wantEmpty := int64(blockChunksFor(96) - 10)
	if st.Superbins[3].EmptyChunks != wantEmpty {
		t.Fatalf("SB3 empty = %d, want %d", st.Superbins[3].EmptyChunks, wantEmpty)
	}
	if st.Footprint <= 0 {
		t.Fatal("footprint must be positive")
	}
}

func TestStatsMerge(t *testing.T) {
	a, b := New(), New()
	a.Alloc(64)
	b.Alloc(64)
	b.Alloc(64)
	sa, sb := a.Stats(), b.Stats()
	sa.Merge(sb)
	if sa.Superbins[2].AllocatedChunks != 3 {
		t.Fatalf("merged SB2 allocated = %d, want 3", sa.Superbins[2].AllocatedChunks)
	}
	if sa.AllocatedChunks != 3 {
		t.Fatalf("merged total = %d, want 3", sa.AllocatedChunks)
	}
}

// TestRandomisedAllocatorOracle drives the allocator with a random workload
// and cross-checks every live allocation's contents against a shadow copy.
func TestRandomisedAllocatorOracle(t *testing.T) {
	a := New()
	rng := rand.New(rand.NewSource(42))
	type live struct {
		hp   HP
		data []byte
	}
	var liveset []live
	fill := func(buf []byte, data []byte) {
		copy(buf, data)
	}
	for op := 0; op < 5000; op++ {
		switch {
		case len(liveset) == 0 || rng.Intn(100) < 45:
			size := 1 + rng.Intn(6000)
			hp, buf := a.Alloc(size)
			data := make([]byte, size)
			rng.Read(data)
			fill(buf, data)
			liveset = append(liveset, live{hp, data})
		case rng.Intn(100) < 50:
			i := rng.Intn(len(liveset))
			buf := a.Resolve(liveset[i].hp)
			for j, b := range liveset[i].data {
				if buf[j] != b {
					t.Fatalf("op %d: content mismatch at byte %d of %v", op, j, liveset[i].hp)
				}
			}
		case rng.Intn(100) < 60:
			i := rng.Intn(len(liveset))
			newSize := 1 + rng.Intn(9000)
			hp, buf := a.Realloc(liveset[i].hp, newSize)
			old := liveset[i].data
			keep := len(old)
			if newSize < keep {
				keep = newSize
			}
			for j := 0; j < keep; j++ {
				if buf[j] != old[j] {
					t.Fatalf("op %d: realloc lost byte %d", op, j)
				}
			}
			data := make([]byte, newSize)
			rng.Read(data)
			fill(buf, data)
			liveset[i] = live{hp, data}
		default:
			i := rng.Intn(len(liveset))
			a.Free(liveset[i].hp)
			liveset[i] = liveset[len(liveset)-1]
			liveset = liveset[:len(liveset)-1]
		}
	}
	st := a.Stats()
	if st.AllocatedChunks != int64(len(liveset)) {
		t.Fatalf("stats report %d allocated chunks, oracle has %d live", st.AllocatedChunks, len(liveset))
	}
}

func BenchmarkAllocFree32(b *testing.B) {
	a := New()
	hps := make([]HP, 0, 1024)
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		hp, _ := a.Alloc(32)
		hps = append(hps, hp)
		if len(hps) == 1024 {
			for _, hp := range hps {
				a.Free(hp)
			}
			hps = hps[:0]
		}
	}
}

func BenchmarkResolve(b *testing.B) {
	a := New()
	hps := make([]HP, 4096)
	for i := range hps {
		hps[i], _ = a.Alloc(64)
	}
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = a.Resolve(hps[i%len(hps)])
	}
}
