package memman

import "testing"

func TestAllocChainedBasics(t *testing.T) {
	a := New()
	hp := a.AllocChained()
	if hp.IsNil() {
		t.Fatal("chained HP must not be nil")
	}
	if hp.Superbin() != extendedSB {
		t.Fatalf("chained HP in superbin %d, want extended", hp.Superbin())
	}
	if !a.IsChained(hp) {
		t.Fatal("IsChained must report true for a chain head")
	}
	for slot := 0; slot < ChainLen; slot++ {
		if a.ChainedSlot(hp, slot) != nil {
			t.Fatalf("fresh chained slot %d is not void", slot)
		}
	}
}

func TestIsChainedFalseForRegularAllocations(t *testing.T) {
	a := New()
	hpSmall, _ := a.Alloc(64)
	hpExt, _ := a.Alloc(4096)
	if a.IsChained(hpSmall) || a.IsChained(hpExt) || a.IsChained(NilHP) {
		t.Fatal("IsChained must only be true for chain heads")
	}
}

func TestSetAndResolveChainedSlots(t *testing.T) {
	a := New()
	hp := a.AllocChained()
	// Populate slots 0 and 5, mirroring the paper's example where container
	// X1 covers keys [0,159] and X2 covers [160,255].
	b0 := a.SetChainedSlot(hp, 0, 100)
	b5 := a.SetChainedSlot(hp, 5, 3000)
	b0[0], b5[0] = 1, 2

	cases := []struct {
		key      byte
		wantSlot int
		wantTag  byte
	}{
		{0, 0, 1},
		{57, 0, 1},  // 57/32 = 1 -> void -> falls back to slot 0
		{110, 0, 1}, // paper's example: 110/32 = 3, slots 3..1 void, answer 0
		{159, 0, 1},
		{160, 5, 2},
		{244, 5, 2}, // 244/32 = 7 -> void -> 6 void -> 5
		{255, 5, 2},
	}
	for _, c := range cases {
		buf, slot := a.ResolveChained(hp, c.key)
		if slot != c.wantSlot || buf[0] != c.wantTag {
			t.Errorf("ResolveChained(key=%d) = slot %d tag %d, want slot %d tag %d",
				c.key, slot, buf[0], c.wantSlot, c.wantTag)
		}
	}
}

// TestResolveChainedOnPlainHP: for an HP that is not a chain head (small or
// extended) ResolveChained is Resolve and reports slot -1, and it panics on
// the same dangling references.
func TestResolveChainedOnPlainHP(t *testing.T) {
	a := New()
	for _, size := range []int{32, 2016, 5000} {
		hp, want := a.Alloc(size)
		got, slot := a.ResolveChained(hp, 200)
		if slot != -1 || &got[0] != &want[0] || len(got) != len(want) {
			t.Fatalf("ResolveChained(plain %d B) = %d bytes, slot %d; want Resolve's %d bytes, slot -1", size, len(got), slot, len(want))
		}
		a.Free(hp)
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("ResolveChained of a freed %d B allocation must panic", size)
				}
			}()
			a.ResolveChained(hp, 200)
		}()
	}
}

func TestSetChainedSlotGrowsInPlace(t *testing.T) {
	a := New()
	hp := a.AllocChained()
	buf := a.SetChainedSlot(hp, 2, 100)
	copy(buf, []byte("split"))
	buf2 := a.SetChainedSlot(hp, 2, 5000)
	if string(buf2[:5]) != "split" {
		t.Fatal("growing a chained slot lost data")
	}
	if len(buf2) != roundExtended(5000) {
		t.Fatalf("granted = %d, want %d", len(buf2), roundExtended(5000))
	}
	if got := a.ChainedSlot(hp, 2); &got[0] != &buf2[0] {
		t.Fatal("ChainedSlot does not return the grown buffer")
	}
}

func TestClearChainedSlot(t *testing.T) {
	a := New()
	hp := a.AllocChained()
	a.SetChainedSlot(hp, 3, 500)
	a.ClearChainedSlot(hp, 3)
	if a.ChainedSlot(hp, 3) != nil {
		t.Fatal("cleared slot must be void")
	}
}

func TestResolveChainedPanicsWithoutAnySlot(t *testing.T) {
	a := New()
	hp := a.AllocChained()
	a.SetChainedSlot(hp, 4, 100) // only keys >= 128 resolve
	defer func() {
		if recover() == nil {
			t.Fatal("ResolveChained with no covering slot must panic")
		}
	}()
	a.ResolveChained(hp, 10)
}

func TestFreeChained(t *testing.T) {
	a := New()
	hp := a.AllocChained()
	a.SetChainedSlot(hp, 0, 100)
	before := a.Stats()
	if before.Superbins[0].AllocatedChunks != ChainLen {
		t.Fatalf("chain should occupy %d SB0 chunks, got %d", ChainLen, before.Superbins[0].AllocatedChunks)
	}
	a.FreeChained(hp)
	after := a.Stats()
	if after.Superbins[0].AllocatedChunks != 0 {
		t.Fatalf("after FreeChained, SB0 allocated = %d, want 0", after.Superbins[0].AllocatedChunks)
	}
	if a.extBytes != 0 {
		t.Fatalf("extended byte accounting drifted: %d", a.extBytes)
	}
}

func TestChainedSlotsAreConsecutive(t *testing.T) {
	a := New()
	// Interleave regular extended allocations with chains; chains must still
	// own eight consecutive chunk indices.
	a.Alloc(3000)
	hp1 := a.AllocChained()
	a.Alloc(3000)
	hp2 := a.AllocChained()
	for _, hp := range []HP{hp1, hp2} {
		for slot := 0; slot < ChainLen; slot++ {
			// chainEntry panics if the slot is not marked in use.
			a.chainEntry(hp, slot)
		}
	}
	if hp1 == hp2 {
		t.Fatal("two chains share an HP")
	}
}

func TestManyChains(t *testing.T) {
	a := New()
	seen := map[HP]bool{}
	for i := 0; i < 600; i++ { // spills over one extended bin (4096/8 = 512 chains)
		hp := a.AllocChained()
		if seen[hp] {
			t.Fatalf("duplicate chain HP %v", hp)
		}
		seen[hp] = true
	}
	st := a.Stats()
	if st.Superbins[0].AllocatedChunks != 600*ChainLen {
		t.Fatalf("SB0 allocated = %d, want %d", st.Superbins[0].AllocatedChunks, 600*ChainLen)
	}
}
