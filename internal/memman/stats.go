package memman

// SuperbinStats describes one superbin in the paper's numbering (SB0 is the
// extended-bin superbin, SBi for i>=1 serves chunks of 32*i bytes). These are
// the quantities plotted in Figures 14 and 16 of the paper.
type SuperbinStats struct {
	ID              int   // paper superbin ID (0..63)
	ChunkSize       int   // 0 for SB0
	AllocatedChunks int64 // chunks currently handed out
	EmptyChunks     int64 // chunks in existing bins that are free (external fragmentation)
	AllocatedBytes  int64 // bytes held by allocated chunks (granted capacity)
	EmptyBytes      int64 // bytes held by free chunks in existing bins
}

// Stats is a point-in-time snapshot of the allocator.
type Stats struct {
	Superbins [NumSuperbins]SuperbinStats

	AllocatedChunks int64 // total allocated chunks
	EmptyChunks     int64 // total free chunks in existing bins
	AllocatedBytes  int64 // bytes behind allocated chunks
	EmptyBytes      int64 // bytes behind free chunks
	MetadataBytes   int64 // allocator bookkeeping overhead
	Footprint       int64 // total bytes reserved from the Go runtime
	TotalAllocs     int64 // cumulative Alloc/AllocChained calls
	TotalReallocs   int64
	TotalFrees      int64
}

// Stats computes a snapshot. The walk is proportional to the number of bins,
// not chunks, and is intended for experiment reporting, not hot paths.
func (a *Allocator) Stats() Stats {
	var s Stats
	for field := 0; field < NumSuperbins; field++ {
		sb := &a.superbins[field]
		var paperID, chunkSize int
		if field == extendedSB {
			paperID, chunkSize = 0, 0
		} else {
			paperID, chunkSize = field+1, sb.chunkSize
		}
		st := &s.Superbins[paperID]
		st.ID = paperID
		st.ChunkSize = chunkSize
		for _, mb := range sb.metabins.load() {
			if mb == nil {
				continue
			}
			for binID := 0; binID < BinsPerMetabin; binID++ {
				if b := mb.bin(binID); b != nil {
					// Empty chunks (external fragmentation) are counted only
					// for blocks whose backing memory exists.
					backed := b.liveBlocks * b.blockChunks()
					st.AllocatedChunks += int64(b.usedCount)
					st.EmptyChunks += int64(backed - b.usedCount)
					st.AllocatedBytes += int64(b.usedCount * chunkSize)
					st.EmptyBytes += int64((backed - b.usedCount) * chunkSize)
				}
				if eb := mb.extBin(binID); eb != nil {
					es := eb.entries.load()
					st.AllocatedChunks += int64(eb.usedCount)
					st.EmptyChunks += int64(len(es) - eb.usedCount)
					for _, e := range es {
						st.AllocatedBytes += int64(len(e.buffer()))
					}
				}
			}
		}
	}
	// The nil-HP reservation in SB1 is bookkeeping, not user data.
	if s.Superbins[1].AllocatedChunks > 0 {
		s.Superbins[1].AllocatedChunks--
		s.Superbins[1].AllocatedBytes -= int64(ChunkAlign)
		s.Superbins[1].EmptyChunks++
		s.Superbins[1].EmptyBytes += int64(ChunkAlign)
	}
	for i := range s.Superbins {
		s.AllocatedChunks += s.Superbins[i].AllocatedChunks
		s.EmptyChunks += s.Superbins[i].EmptyChunks
		s.AllocatedBytes += s.Superbins[i].AllocatedBytes
		s.EmptyBytes += s.Superbins[i].EmptyBytes
	}
	s.MetadataBytes = a.metaBytes
	s.Footprint = a.Footprint()
	s.TotalAllocs = a.totalAllocs
	s.TotalReallocs = a.totalReallocs
	s.TotalFrees = a.totalFrees
	return s
}

// Merge adds other into s, superbin by superbin. It is used to aggregate the
// per-arena allocators of a store into a single report.
func (s *Stats) Merge(other Stats) {
	for i := range s.Superbins {
		s.Superbins[i].ID = other.Superbins[i].ID
		s.Superbins[i].ChunkSize = other.Superbins[i].ChunkSize
		s.Superbins[i].AllocatedChunks += other.Superbins[i].AllocatedChunks
		s.Superbins[i].EmptyChunks += other.Superbins[i].EmptyChunks
		s.Superbins[i].AllocatedBytes += other.Superbins[i].AllocatedBytes
		s.Superbins[i].EmptyBytes += other.Superbins[i].EmptyBytes
	}
	s.AllocatedChunks += other.AllocatedChunks
	s.EmptyChunks += other.EmptyChunks
	s.AllocatedBytes += other.AllocatedBytes
	s.EmptyBytes += other.EmptyBytes
	s.MetadataBytes += other.MetadataBytes
	s.Footprint += other.Footprint
	s.TotalAllocs += other.TotalAllocs
	s.TotalReallocs += other.TotalReallocs
	s.TotalFrees += other.TotalFrees
}
