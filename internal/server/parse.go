package server

import "math"

// This file is the byte-level request parser: in-place tokenization over the
// connection's read buffer and allocation-free numeric/command parsing. The
// protocol is defined at the byte level: fields are separated by runs of
// ASCII whitespace and command words match ASCII case-insensitively. (The
// historical handler went through strings.Fields/ToUpper, which additionally
// folded exotic Unicode whitespace and case; no documented client relied on
// that, and the byte-level definition is what keeps the tokenizer
// allocation-free.)

// spaceClass marks the field separators, the ASCII subset of unicode.IsSpace,
// so the tokenizer classifies a byte with one table lookup.
var spaceClass = [256]bool{' ': true, '\t': true, '\n': true, '\v': true, '\f': true, '\r': true}

// splitFields appends the whitespace-separated fields of line to dst and
// returns it. The fields are subslices of line; nothing is copied.
func splitFields(dst [][]byte, line []byte) [][]byte {
	i := 0
	for i < len(line) {
		for i < len(line) && spaceClass[line[i]] {
			i++
		}
		if i == len(line) {
			break
		}
		start := i
		for i < len(line) && !spaceClass[line[i]] {
			i++
		}
		dst = append(dst, line[start:i])
	}
	return dst
}

// cmdIs reports whether tok equals the command word upper under ASCII case
// folding. upper must be an upper-case ASCII literal.
func cmdIs(tok []byte, upper string) bool {
	if len(tok) != len(upper) {
		return false
	}
	for i := 0; i < len(tok); i++ {
		c := tok[i]
		if 'a' <= c && c <= 'z' {
			c -= 'a' - 'A'
		}
		if c != upper[i] {
			return false
		}
	}
	return true
}

// parseUint parses a decimal uint64, mirroring strconv.ParseUint(s, 10, 64):
// digits only, no sign, exact overflow detection.
func parseUint(b []byte) (uint64, bool) {
	if len(b) == 0 {
		return 0, false
	}
	var v uint64
	for _, c := range b {
		d := c - '0'
		if d > 9 {
			return 0, false
		}
		if v > (math.MaxUint64-uint64(d))/10 {
			return 0, false
		}
		v = v*10 + uint64(d)
	}
	return v, true
}

// parseCount parses the positive-int count argument of RANGE/SCAN. It
// mirrors the historical strconv.Atoi + "reject <= 0" validation — an
// optional sign is accepted, but every non-positive, malformed or
// out-of-range input collapses to ok=false (they all answered
// "-ERR bad count").
func parseCount(b []byte) (int, bool) {
	if len(b) == 0 {
		return 0, false
	}
	if b[0] == '-' {
		return 0, false // parses negative or not at all; <= 0 either way
	}
	if b[0] == '+' {
		b = b[1:]
	}
	v, ok := parseUint(b)
	if !ok || v == 0 || v > math.MaxInt {
		return 0, false
	}
	return int(v), true
}
