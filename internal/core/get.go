package core

import (
	"bytes"

	"repro/internal/memman"
)

// findInStream locates key in the given node stream, descending through
// nested embedded containers iteratively (an embedded child is just another
// region of the same buffer, so the descent is a loop over (region, key)
// rather than a recursive call). If the key continues in a standalone child
// container, the child's HP and the remaining key bytes are returned so the
// caller can continue without recursion. The whole walk performs no heap
// allocation.
//
//hyperion:noalloc
func (t *Tree) findInStream(buf []byte, reg region, key []byte, topLevel bool) (value uint64, hasValue, exists bool, nextHP memman.HP, nextKey []byte) {
	for {
		tPos := findT(buf, reg, key[0], topLevel && t.cfg.ContainerJumpTable)
		if tPos < 0 {
			return
		}
		if len(key) == 1 {
			switch hdr := buf[tPos]; nodeType(hdr) {
			case typeKeyVal:
				return getValue(buf, tPos+nodeValueOffset(hdr)), true, true, memman.NilHP, nil
			case typeKey:
				return 0, false, true, memman.NilHP, nil
			}
			return
		}
		sPos := findS(buf, reg, tPos, key[1])
		if sPos < 0 {
			return
		}
		hdr := buf[sPos]
		if len(key) == 2 {
			switch nodeType(hdr) {
			case typeKeyVal:
				return getValue(buf, sPos+nodeValueOffset(hdr)), true, true, memman.NilHP, nil
			case typeKey:
				return 0, false, true, memman.NilHP, nil
			}
			return
		}
		rest := key[2:]
		childOff := sPos + sNodeChildOffset(hdr)
		switch sChildKind(hdr) {
		case childNone:
			return
		case childHP:
			return 0, false, false, memman.GetHP(buf[childOff:]), rest
		case childEmbedded:
			reg = embRegion(buf, childOff)
			key = rest
			topLevel = false
			continue
		case childPC:
			if bytes.Equal(pcSuffix(buf, childOff), rest) {
				if pcHasValue(buf, childOff) {
					return pcValue(buf, childOff), true, true, memman.NilHP, nil
				}
				return 0, false, true, memman.NilHP, nil
			}
			return
		}
		return
	}
}
