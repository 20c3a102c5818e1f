package core

import (
	"encoding/binary"
	"fmt"
)

// This file defines the exact byte/bit layout of containers and nodes
// (paper Figures 3, 5, 6, 7) and the accessors used by every other file.
//
// Container:
//
//	[0..3]   header: bits 0..18 size, bits 19..26 free, bits 27..29 J (jump
//	         table steps), bits 30..31 S (split delay)
//	[4..]    container jump table: J*7 entries of 4 bytes (key, 24-bit offset)
//	[...]    node stream (pre-order serialisation of the two-level trie)
//	[...]    free bytes, zero initialised
//
// Node header byte:
//
//	bits 0..1  type: 0 invalid, 1 inner, 2 key w/o value, 3 key w/ value
//	bit  2     k: 0 = T-Node, 1 = S-Node
//	bits 3..5  delta: 0 = explicit key byte follows, 1..7 = delta to the
//	           preceding sibling's key
//	T-Node: bit 6 = jump successor present, bit 7 = jump table present
//	S-Node: bits 6..7 = child flag: 0 none, 1 HP, 2 embedded container,
//	        3 path-compressed node
type layoutdoc struct{} //nolint:unused // documentation anchor

// Sizes and limits of the on-byte-stream encoding.
const (
	containerHeaderSize = 4
	initialContainerSz  = 32

	ctrJTEntrySize = 4 // 1 byte key + 3 byte offset
	ctrJTStep      = 7 // entries added per growth step
	ctrJTMaxSteps  = 7 // up to 49 entries

	tJTEntries   = 15
	tJTEntrySize = 3 // 1 byte key + 2 byte offset (deviation documented in DESIGN.md)
	tJTSize      = tJTEntries * tJTEntrySize

	jsSize    = 2
	valueSize = 8

	pcMaxSuffix = 127
	embMaxSize  = 255

	maxContainerSize = 1<<19 - 1
)

// Node types.
const (
	typeInvalid = 0
	typeInner   = 1
	typeKey     = 2 // key ends here, no value attached
	typeKeyVal  = 3 // key ends here, 8-byte value attached
)

// S-Node child kinds.
const (
	childNone     = 0
	childHP       = 1
	childEmbedded = 2
	childPC       = 3
)

// ---- container header ----------------------------------------------------

func ctrHeader(buf []byte) uint32 {
	return uint32(buf[0]) | uint32(buf[1])<<8 | uint32(buf[2])<<16 | uint32(buf[3])<<24
}

func setCtrHeader(buf []byte, h uint32) {
	buf[0] = byte(h)
	buf[1] = byte(h >> 8)
	buf[2] = byte(h >> 16)
	buf[3] = byte(h >> 24)
}

func ctrSize(buf []byte) int       { return int(ctrHeader(buf) & 0x7ffff) }
func ctrFree(buf []byte) int       { return int(ctrHeader(buf) >> 19 & 0xff) }
func ctrJTSteps(buf []byte) int    { return int(ctrHeader(buf) >> 27 & 0x7) }
func ctrSplitDelay(buf []byte) int { return int(ctrHeader(buf) >> 30 & 0x3) }

func setCtrSize(buf []byte, v int) {
	if v < 0 || v > maxContainerSize {
		panic(fmt.Sprintf("core: container size %d out of range", v))
	}
	setCtrHeader(buf, ctrHeader(buf)&^uint32(0x7ffff)|uint32(v))
}

func setCtrFree(buf []byte, v int) {
	if v < 0 || v > 255 {
		panic(fmt.Sprintf("core: container free %d out of range", v))
	}
	setCtrHeader(buf, ctrHeader(buf)&^uint32(0xff<<19)|uint32(v)<<19)
}

func setCtrJTSteps(buf []byte, v int) {
	if v < 0 || v > ctrJTMaxSteps {
		panic(fmt.Sprintf("core: container jump table steps %d out of range", v))
	}
	setCtrHeader(buf, ctrHeader(buf)&^uint32(0x7<<27)|uint32(v)<<27)
}

func setCtrSplitDelay(buf []byte, v int) {
	if v < 0 || v > 3 {
		panic(fmt.Sprintf("core: split delay %d out of range", v))
	}
	setCtrHeader(buf, ctrHeader(buf)&^uint32(0x3<<30)|uint32(v)<<30)
}

// ctrJTBytes returns the number of bytes the container jump table occupies.
func ctrJTBytes(buf []byte) int { return ctrJTSteps(buf) * ctrJTStep * ctrJTEntrySize }

// ctrStreamStart returns the offset of the first node in the stream.
func ctrStreamStart(buf []byte) int { return containerHeaderSize + ctrJTBytes(buf) }

// ctrContentEnd returns the offset one past the last valid node byte.
func ctrContentEnd(buf []byte) int { return ctrSize(buf) - ctrFree(buf) }

// initContainer writes a container header for a container of the given
// logical size whose payload will occupy `used` bytes, and zero-initialises
// the memory. Callers copy the payload in afterwards.
func initContainer(buf []byte, size, used int) {
	for i := 0; i < size && i < len(buf); i++ {
		buf[i] = 0
	}
	setCtrHeader(buf, 0)
	setCtrSize(buf, size)
	setCtrFree(buf, size-containerHeaderSize-used)
}

// ---- container jump table entries -----------------------------------------

// ctrJTEntry returns the i-th container jump table entry (key, absolute
// offset). A zero offset marks an unused entry.
func ctrJTEntry(buf []byte, i int) (key byte, off int) {
	p := containerHeaderSize + i*ctrJTEntrySize
	return buf[p], int(buf[p+1]) | int(buf[p+2])<<8 | int(buf[p+3])<<16
}

func setCtrJTEntry(buf []byte, i int, key byte, off int) {
	p := containerHeaderSize + i*ctrJTEntrySize
	buf[p] = key
	buf[p+1] = byte(off)
	buf[p+2] = byte(off >> 8)
	buf[p+3] = byte(off >> 16)
}

// ---- node header ----------------------------------------------------------

func nodeType(hdr byte) int   { return int(hdr & 0x3) }
func nodeIsS(hdr byte) bool   { return hdr&0x4 != 0 }
func nodeDelta(hdr byte) int  { return int(hdr>>3) & 0x7 }
func tHasJS(hdr byte) bool    { return hdr&0x40 != 0 }
func tHasJT(hdr byte) bool    { return hdr&0x80 != 0 }
func sChildKind(hdr byte) int { return int(hdr>>6) & 0x3 }

func makeNodeHeader(typ int, isS bool, delta int) byte {
	h := byte(typ & 0x3)
	if isS {
		h |= 0x4
	}
	h |= byte(delta&0x7) << 3
	return h
}

func setNodeType(buf []byte, pos, typ int) {
	buf[pos] = buf[pos]&^0x3 | byte(typ&0x3)
}

func setNodeDelta(buf []byte, pos, delta int) {
	buf[pos] = buf[pos]&^(0x7<<3) | byte(delta&0x7)<<3
}

func setTJSFlag(buf []byte, pos int, on bool) {
	if on {
		buf[pos] |= 0x40
	} else {
		buf[pos] &^= 0x40
	}
}

func setTJTFlag(buf []byte, pos int, on bool) {
	if on {
		buf[pos] |= 0x80
	} else {
		buf[pos] &^= 0x80
	}
}

func setSChildKind(buf []byte, pos, kind int) {
	buf[pos] = buf[pos]&^(0x3<<6) | byte(kind&0x3)<<6
}

// nodeHasValue reports whether the node carries an 8-byte value.
func nodeHasValue(hdr byte) bool { return nodeType(hdr) == typeKeyVal }

// nodeKeyLen returns 1 if the node stores an explicit key byte, 0 if the key
// is delta encoded in the header.
func nodeKeyLen(hdr byte) int {
	if nodeDelta(hdr) == 0 {
		return 1
	}
	return 0
}

// decodeKey decodes the absolute key of the node at pos, whose header byte
// the caller has already loaded, given the key of its preceding sibling (-1
// if there is none or it is unknown). It is the one spelling of the delta
// decode; the scan loops call it with the header in hand so the byte is
// loaded once per node.
//
//hyperion:noalloc
func decodeKey(buf []byte, pos int, hdr byte, prevKey int) byte {
	if d := nodeDelta(hdr); d != 0 {
		return byte(prevKey + d)
	}
	return buf[pos+1]
}

// nodeKey is decodeKey for callers that have not loaded the header.
func nodeKey(buf []byte, pos int, prevKey int) byte {
	return decodeKey(buf, pos, buf[pos], prevKey)
}

// nodeValueOffset returns the offset of the value bytes relative to the node
// header (valid only if the node has a value).
func nodeValueOffset(hdr byte) int { return 1 + nodeKeyLen(hdr) }

func getValue(buf []byte, pos int) uint64 {
	return binary.LittleEndian.Uint64(buf[pos:])
}

func putValue(buf []byte, pos int, v uint64) {
	binary.LittleEndian.PutUint64(buf[pos:], v)
}

// ---- table-driven node geometry ----------------------------------------------
//
// Every fixed size or offset of a node is a function of its header byte
// alone, so each quantity is one 256-entry table indexed by the header byte.
// The tables are built once, at package initialisation, from the spec*
// functions below, which spell the encoding out branch by branch and have no
// other caller. Every entry is >= 1 (a node has at least its header byte):
// the scans rely on that to advance on whatever bytes a torn read shows them.
var (
	// nodeBodyOffTab: header + explicit key byte + value, i.e. the offset of
	// whatever follows them — the jump successor field of a T-Node, the child
	// data of an S-Node.
	nodeBodyOffTab [256]uint8
	// tHeadSizeTab: the T-Node itself, nodeBodyOffTab plus its jump
	// successor field and jump table.
	tHeadSizeTab [256]uint8
)

func init() {
	for h := 0; h < 256; h++ {
		nodeBodyOffTab[h] = uint8(specNodeBodyOffset(byte(h)))
		tHeadSizeTab[h] = uint8(specTNodeHeadSize(byte(h)))
	}
}

// specNodeBodyOffset generates nodeBodyOffTab.
func specNodeBodyOffset(hdr byte) int {
	off := 1 + nodeKeyLen(hdr)
	if nodeHasValue(hdr) {
		off += valueSize
	}
	return off
}

// specTNodeHeadSize generates tHeadSizeTab.
func specTNodeHeadSize(hdr byte) int {
	size := specNodeBodyOffset(hdr)
	if tHasJS(hdr) {
		size += jsSize
	}
	if tHasJT(hdr) {
		size += tJTSize
	}
	return size
}

// ---- T-Node geometry -------------------------------------------------------

// tNodeJSOffset returns the offset (relative to the node header) of the jump
// successor field.
func tNodeJSOffset(hdr byte) int { return int(nodeBodyOffTab[hdr]) }

// tNodeJTOffset returns the offset (relative to the node header) of the jump
// table: past the jump successor field when the node has one (bit 6).
func tNodeJTOffset(hdr byte) int { return int(nodeBodyOffTab[hdr]) + int(hdr>>6&1)*jsSize }

// tNodeHeadSize returns the total number of bytes of the T-Node itself
// (header, key, value, jump successor, jump table) excluding its S-Node
// children.
func tNodeHeadSize(hdr byte) int { return int(tHeadSizeTab[hdr]) }

// tNodeJS reads the jump successor distance (0 = invalid/absent value).
func tNodeJS(buf []byte, pos int) int {
	hdr := buf[pos]
	if !tHasJS(hdr) {
		return 0
	}
	p := pos + tNodeJSOffset(hdr)
	return int(buf[p]) | int(buf[p+1])<<8
}

func setTNodeJS(buf []byte, pos, dist int) {
	hdr := buf[pos]
	if !tHasJS(hdr) {
		panic("core: setTNodeJS on node without js field")
	}
	if dist < 0 || dist > 0xffff {
		dist = 0 // unrepresentable distances are stored as invalid
	}
	p := pos + tNodeJSOffset(hdr)
	buf[p] = byte(dist)
	buf[p+1] = byte(dist >> 8)
}

// tNodeJTEntry returns the i-th entry of a T-Node jump table: the S-Node key
// and its offset relative to the T-Node header. A zero offset marks an unused
// entry.
func tNodeJTEntry(buf []byte, pos, i int) (key byte, off int) {
	p := pos + tNodeJTOffset(buf[pos]) + i*tJTEntrySize
	return buf[p], int(buf[p+1]) | int(buf[p+2])<<8
}

func setTNodeJTEntry(buf []byte, pos, i int, key byte, off int) {
	p := pos + tNodeJTOffset(buf[pos]) + i*tJTEntrySize
	buf[p] = key
	buf[p+1] = byte(off)
	buf[p+2] = byte(off >> 8)
}

// ---- S-Node geometry -------------------------------------------------------

// sNodeChildOffset returns the offset (relative to the node header) of the
// child data (HP, embedded container or PC node).
func sNodeChildOffset(hdr byte) int { return int(nodeBodyOffTab[hdr]) }

// sChildGeom gives, per S-Node child kind, how the size of the child data
// derives from the byte at the child offset: a fixed part, plus the bits of
// that byte lenMask selects, plus the bit of that byte >> 4 valMask selects
// (bit 7, the PC value flag, lands on valueSize = 8).
var sChildGeom = [4]struct{ fixed, lenMask, valMask uint8 }{
	childNone:     {0, 0, 0},
	childHP:       {hpSize, 0, 0},
	childEmbedded: {0, 0xff, 0},         // the size byte counts itself
	childPC:       {1, 0x7f, valueSize}, // pcSize: header, suffix, value
}

// sNodeSize returns the total byte size (>= 1) of the S-Node at pos including
// its child data, selected from the two kind bits with sChildGeom's masks
// rather than a switch.
//
// Only the embedded and PC kinds (bit 7 set) have a length byte at the child
// offset. For the other two the load is pulled back by one, onto the last
// byte of the node itself, and masked out — so a childless S-Node that ends
// exactly at len(buf) is sized without reading past the buffer, while a
// truncated embedded or PC child still fails the bounds check.
//
//hyperion:noalloc
func sNodeSize(buf []byte, pos int) int {
	hdr := buf[pos]
	off := int(nodeBodyOffTab[hdr])
	b := buf[pos+off-1+int(hdr>>7)]
	g := &sChildGeom[hdr>>6]
	return off + int(g.fixed) + int(b&g.lenMask) + int(b>>4&g.valMask)
}

// ---- path-compressed nodes -------------------------------------------------

func pcHasValue(buf []byte, pos int) bool { return buf[pos]&0x80 != 0 }
func pcSuffixLen(buf []byte, pos int) int { return int(buf[pos] & 0x7f) }

// pcSize returns the total size of the PC node at pos.
func pcSize(buf []byte, pos int) int {
	size := 1 + pcSuffixLen(buf, pos)
	if pcHasValue(buf, pos) {
		size += valueSize
	}
	return size
}

// pcSuffix returns the suffix bytes of the PC node at pos.
func pcSuffix(buf []byte, pos int) []byte {
	off := pos + 1
	if pcHasValue(buf, pos) {
		off += valueSize
	}
	return buf[off : off+pcSuffixLen(buf, pos)]
}

// pcValue returns the value of the PC node at pos (only valid if pcHasValue).
func pcValue(buf []byte, pos int) uint64 { return getValue(buf, pos+1) }

// appendPC encodes a PC node carrying the given suffix and optional value.
func appendPC(dst []byte, suffix []byte, value uint64, hasValue bool) []byte {
	if len(suffix) > pcMaxSuffix {
		panic(fmt.Sprintf("core: PC suffix of %d bytes exceeds the 127-byte limit", len(suffix)))
	}
	hdr := byte(len(suffix))
	if hasValue {
		hdr |= 0x80
	}
	dst = append(dst, hdr)
	if hasValue {
		var v [valueSize]byte
		putValue(v[:], 0, value)
		dst = append(dst, v[:]...)
	}
	return append(dst, suffix...)
}

// ---- embedded containers ---------------------------------------------------

// embSize returns the total size (including the size byte) of the embedded
// container starting at pos.
func embSize(buf []byte, pos int) int { return int(buf[pos]) }

// hpSize re-exports the serialised Hyperion Pointer width for this package.
const hpSize = 5
