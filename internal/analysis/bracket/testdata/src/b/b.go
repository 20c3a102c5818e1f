// Package b declares no shardWrite, so it owns its trees and mutates them
// freely (like the tree implementation itself).
package b

type Tree struct{}

func (t *Tree) Put(k []byte, v uint64) {}
func (t *Tree) Delete(k []byte) bool   { return false }
func (t *Tree) Clear()                 {}

// helper keeps its annotation, but nothing confines it here.
//
//hyperion:inbracket
func helper(t *Tree) { t.Clear() }

func build() *Tree {
	t := &Tree{}
	t.Put(nil, 1)
	t.Delete(nil)
	go helper(t)
	f := helper
	f(t)
	return t
}
