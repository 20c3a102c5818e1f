package server

import (
	"strconv"
	"testing"
	"unicode"
)

// asciiSpace is the separator definition written out, the oracle the
// tokenizer's class table is checked against.
func asciiSpace(c byte) bool {
	return c == ' ' || c == '\t' || c == '\n' || c == '\v' || c == '\f' || c == '\r'
}

// TestSpaceClassMatchesUnicode pins the tokenizer's class table to its
// definition: exactly the ASCII bytes unicode.IsSpace accepts.
func TestSpaceClassMatchesUnicode(t *testing.T) {
	for c := 0; c < 256; c++ {
		want := c < 0x80 && unicode.IsSpace(rune(c))
		if spaceClass[c] != want || asciiSpace(byte(c)) != want {
			t.Fatalf("spaceClass[%#x] = %v, want %v", c, spaceClass[c], want)
		}
	}
}

// BenchmarkSplitFields tokenizes the two line shapes the server sees most:
// a 1 000-pair MLOAD line of n-gram keys and a single GET.
func BenchmarkSplitFields(b *testing.B) {
	mload := []byte("MLOAD")
	for i := 0; i < 1000; i++ {
		mload = append(mload, " the_quick_"...)
		mload = strconv.AppendInt(mload, int64(i), 10)
		mload = append(mload, "_fox_19"...)
		mload = strconv.AppendInt(mload, int64(i%100), 10)
		mload = append(mload, ' ')
		mload = strconv.AppendInt(mload, int64(i)*7919, 10)
	}
	for _, bc := range []struct {
		name string
		line []byte
		toks int
	}{
		{"mload1000", mload, 2001},
		{"get", []byte("GET the_quick_brown_fox_1987"), 2},
	} {
		b.Run(bc.name, func(b *testing.B) {
			dst := make([][]byte, 0, bc.toks)
			b.SetBytes(int64(len(bc.line)))
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				dst = splitFields(dst[:0], bc.line)
			}
			if len(dst) != bc.toks {
				b.Fatalf("%d tokens, want %d", len(dst), bc.toks)
			}
		})
	}
}
