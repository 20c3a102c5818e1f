package core

import (
	"bytes"

	"repro/internal/memman"
)

// This file implements the cursor's count-only step. Every key under a node
// lies in that node's subtree (paper §3.1), so a count needs node headers,
// not keys: Count walks the cursor's frames like Next but writes only T/S
// key bytes, counts a PC child as one key and an embedded container that
// lies wholly inside the range in one pass over its bytes (countStream).

// Where a key lies relative to a Count bound, and so where its subtree lies.
const (
	relBelow  = iota // below the bound and not a prefix of it: so is its subtree
	relPrefix        // a proper prefix of the bound: its subtree straddles it
	relAbove         // at or above the bound: so is its subtree
)

// boundRel classifies c.key[:to] against tend, given that c.key[:from] is a
// proper prefix of tend. Only the bytes from..to are compared.
func (c *Cursor) boundRel(tend []byte, from, to int) int {
	for i := from; i < to; i++ {
		if i == len(tend) || c.key[i] > tend[i] {
			return relAbove
		}
		if c.key[i] < tend[i] {
			return relBelow
		}
	}
	if to < len(tend) {
		return relPrefix
	}
	return relAbove
}

// Count is Next's count-only twin: from the cursor's position it counts the
// stored keys below tend (stored-key space; nil means unbounded) without
// building them. Key bytes are written only for the T- and S-Nodes of the
// frame streams, and tend is checked once per such node, only in the frames
// whose prefix tend extends. A PC child counts as one key. An embedded child
// whose subtree lies wholly below tend is counted in one pass over its bytes
// (countStream), without a frame. Frames are pushed only for HP children, for
// embedded children holding an HP, and for the O(depth) children whose key
// is a proper prefix of tend.
//
// Count stops after the first T- or S-Node that brings the count to limit or
// beyond (full), leaving the cursor parked there, and returns in resume
// (built in dst) the stored key to re-Seek: every key counted so far is below
// it, and no uncounted key is. After a T-Node with key K, or an S-Node with
// key K whose child still has a frame to walk, that is K‖0x00; after a fully
// counted S-Node it is the prefix successor of K, and when K is all 0xff
// nothing can follow, so the count ends there, not full. reachedEnd reports
// that the count stopped at a key >= tend.
//
//hyperion:noalloc
func (c *Cursor) Count(tend []byte, limit int, dst []byte) (n int, resume []byte, full, reachedEnd bool) {
	resume = dst[:0]
	if c.emitEmpty {
		c.emitEmpty = false
		if tend != nil && len(tend) == 0 {
			return 0, resume, false, true
		}
		n++
	}
	if c.hasPending {
		c.hasPending = false
		if tend != nil && bytes.Compare(c.key[:c.pendingLen], tend) >= 0 {
			return n, resume, false, true
		}
		n++
	}
	// Frames [0, strad) straddle tend: tend extends their prefixes. The
	// frames above them lie wholly below tend — or, only when the cursor was
	// positioned at or beyond tend, wholly above it. Once a straddling frame
	// is exhausted, every key left lies above tend, so the count ends at the
	// next node and strad never has to shrink.
	strad := 0
	if tend != nil {
		from := 0
		for ; strad < len(c.frames); strad++ {
			to := int(c.frames[strad].baseLen)
			rel := c.boundRel(tend, from, to)
			if rel == relAbove {
				_, _, _, ok := c.Next()
				return n, resume, false, ok
			}
			if rel == relBelow {
				break
			}
			from = to
		}
	}
	for len(c.frames) > 0 {
		top := len(c.frames) - 1
		f := &c.frames[top]
		if f.pos >= f.end || nodeType(f.buf[f.pos]) == typeInvalid {
			if !f.chain.IsNil() && c.advanceChain(f) {
				continue
			}
			c.frames = c.frames[:top]
			continue
		}
		hdr := f.buf[f.pos]
		c.probes++
		b := int(f.baseLen)
		if !nodeIsS(hdr) {
			c.setKeyByte(b, f.tKey(hdr))
			f.pos += int32(tNodeHeadSize(hdr))
			if top < strad && c.boundRel(tend, b, b+1) == relAbove {
				return n, resume, false, true
			}
			if nodeType(hdr) != typeInner {
				n++
			}
			if n >= limit {
				return n, append(append(resume, c.key[:b+1]...), 0), true, false
			}
			continue
		}
		c.setKeyByte(b+1, f.sKey(hdr))
		buf := f.buf
		sPos := int(f.pos)
		f.pos = int32(sPos + sNodeSize(buf, sPos))
		kn := b + 2
		rel := relBelow
		if top < strad {
			if rel = c.boundRel(tend, b, kn); rel == relAbove {
				return n, resume, false, true
			}
		}
		if nodeType(hdr) != typeInner {
			n++
		}
		childOff := sPos + sNodeChildOffset(hdr)
		pushed := false
		switch sChildKind(hdr) {
		case childHP:
			c.pushHP(memman.GetHP(buf[childOff:]), kn)
			pushed = true
		case childEmbedded:
			reg := embRegion(buf, childOff)
			if rel == relBelow {
				if m, ok := countStream(buf, reg.start, reg.end, 0); ok {
					n += m
					break
				}
			}
			c.pushFrame(buf, reg, kn, false)
			pushed = true
		case childPC:
			if rel == relPrefix && bytes.Compare(pcSuffix(buf, childOff), tend[kn:]) >= 0 {
				return n, resume, false, true
			}
			n++
		}
		if pushed && rel == relPrefix {
			strad = len(c.frames)
		}
		if n >= limit {
			if pushed {
				return n, append(append(resume, c.key[:kn]...), 0), true, false
			}
			succ, ok := AppendPrefixSuccessor(resume, c.key[:kn])
			return n, succ, ok, false
		}
	}
	return n, resume, false, false
}

// countMaxNesting caps how deep countStream follows embedded containers into
// one another. An embedded container is at most embMaxSize bytes and each
// level of nesting costs at least two of them, so a valid tree stays far
// below the cap; a torn read that nests deeper panics instead of growing the
// goroutine stack, and the optimistic reader recovers that like a cursor
// beyond its frame bound.
const countMaxNesting = 128

// countStream counts the keys of the node stream buf[pos:end] and of every
// embedded container nested in it, in one pass over the bytes: node types
// and sizes only, no key bytes, no frames. ok is false when it meets an HP
// child, which needs a frame (the count so far is then meaningless). On
// arbitrary bytes it ends or panics: every step moves pos forward, and
// nesting beyond countMaxNesting panics.
//
//hyperion:noalloc
func countStream(buf []byte, pos, end, depth int) (n int, ok bool) {
	if depth >= countMaxNesting {
		panic("core: embedded nesting bound exceeded (torn optimistic read)")
	}
	for pos < end {
		hdr := buf[pos]
		typ := nodeType(hdr)
		if typ == typeInvalid {
			break
		}
		n += typ >> 1 // typeKey and typeKeyVal end a key, typeInner does not
		if !nodeIsS(hdr) {
			pos += tNodeHeadSize(hdr)
			continue
		}
		pos += sNodeChildOffset(hdr)
		switch sChildKind(hdr) {
		case childHP:
			return n, false
		case childEmbedded:
			childEnd := pos + embSize(buf, pos)
			m, ok := countStream(buf, pos+1, childEnd, depth+1)
			if !ok {
				return n, false
			}
			n += m
			pos = childEnd
		case childPC:
			n++
			pos += pcSize(buf, pos)
		}
	}
	return n, true
}

// AppendPrefixSuccessor appends to dst the smallest byte string greater than
// every string with prefix p; ok is false (and dst unchanged) when there is
// none (p empty or all 0xff).
func AppendPrefixSuccessor(dst, p []byte) (succ []byte, ok bool) {
	for i := len(p) - 1; i >= 0; i-- {
		if p[i] != 0xff {
			dst = append(dst, p[:i+1]...)
			dst[len(dst)-1]++
			return dst, true
		}
	}
	return dst, false
}
