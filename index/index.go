// Package index defines the common key-value interface that Hyperion and
// every comparison data structure of the paper's evaluation implement, plus
// constructors and a registry used by the benchmark harness and the examples.
//
// All structures map byte-string keys to 64-bit values, exactly like the
// paper's k/v-store usage of the original implementations (§4.1).
package index

import (
	"io"

	"repro/hyperion"
	"repro/internal/art"
	"repro/internal/hashkv"
	"repro/internal/hattrie"
	"repro/internal/hot"
	"repro/internal/judy"
	"repro/internal/rbtree"
)

// KV is the minimal key-value store interface.
type KV interface {
	// Put stores key with value, overwriting any existing value.
	Put(key []byte, value uint64)
	// Get returns the value stored for key.
	Get(key []byte) (uint64, bool)
	// Delete removes key and reports whether it was present.
	Delete(key []byte) bool
	// Len returns the number of stored keys.
	Len() int
	// Name identifies the structure in reports.
	Name() string
	// MemoryFootprint returns the structure's self-accounted memory usage in
	// bytes (allocator-exact for Hyperion, analytic node models for the
	// re-implemented baselines; see DESIGN.md).
	MemoryFootprint() int64
}

// Ordered is a KV store that supports ordered iteration, the prerequisite for
// the range-query experiment (Table 3).
type Ordered interface {
	KV
	// Range calls fn for every key >= start in lexicographic order until fn
	// returns false.
	Range(start []byte, fn func(key []byte, value uint64) bool)
	// Each iterates every key in order.
	Each(fn func(key []byte, value uint64) bool)
}

// Batcher is the optional batched execution interface. Structures that
// implement it can group many operations into one call, amortise their
// internal locking across the batch and execute independent partitions in
// parallel (Hyperion groups by arena; see hyperion/batch.go). The benchmark
// harness dispatches the batched half of the concurrency experiment through
// this interface; cmd/hyperion-server holds a concrete *hyperion.Store and
// calls its batch methods directly. The batch op/result types are Hyperion's
// own — today it is the only batched structure, and a second implementation
// would motivate hoisting them here.
type Batcher interface {
	KV
	// ApplyBatch executes a mixed batch and returns one result per op.
	ApplyBatch(ops []hyperion.Op) []hyperion.Result
	// GetBatch looks up every key and returns one result per key.
	GetBatch(keys [][]byte) []hyperion.Result
	// BulkLoad ingests a run of pairs with Put semantics. Sorted runs take
	// the append-only bulk-ingestion fast path (one pass per container,
	// single-memmove block inserts, exact-size allocations, parallel across
	// partitions); unsorted input transparently falls back to per-key puts.
	BulkLoad(pairs []hyperion.Pair)
}

// AsBatcher returns kv's batched execution interface, if it has one.
func AsBatcher(kv KV) (Batcher, bool) {
	b, ok := kv.(Batcher)
	return b, ok
}

// PrefixScanner is the optional prefix-query interface: structures that
// implement it answer "every key under this prefix" without scanning (or
// even touching) the rest of the key space. Hyperion backs it with the
// seek-aware cursor engine: the scan starts at the prefix via the container
// and T-Node jump tables and stops at the prefix successor. CountPrefix
// counts from node headers instead of building keys — a PC child is one key,
// an embedded container wholly inside the range is counted in one pass over
// its bytes — which suits the n-gram prefix-counting workloads the paper's
// string data sets model. (With key pre-processing and a prefix of two or
// more bytes the stored range over-approximates, and CountPrefix counts the
// filtered scan instead.)
type PrefixScanner interface {
	KV
	// ScanPrefix calls fn for every stored key that starts with prefix, in
	// the store's iteration order, until fn returns false.
	ScanPrefix(prefix []byte, fn func(key []byte, value uint64) bool)
	// CountPrefix returns the number of stored keys starting with prefix.
	CountPrefix(prefix []byte) int
}

// AsPrefixScanner returns kv's prefix-query interface, if it has one.
func AsPrefixScanner(kv KV) (PrefixScanner, bool) {
	p, ok := kv.(PrefixScanner)
	return p, ok
}

// Snapshotter is the optional durability interface: structures that
// implement it can serialize their full content to a stream and write it
// atomically to a file. The matching load side is constructor-shaped
// (hyperion.Load / hyperion.LoadFile rebuild a store from the stream at
// bulk-ingest speed), so it lives with the implementation rather than here;
// a second persistent structure would motivate a registry-level loader.
type Snapshotter interface {
	KV
	// Save streams a snapshot and returns the number of keys written. It is
	// safe to run concurrently with reads and writes; see the
	// implementation's consistency contract.
	Save(w io.Writer) (int, error)
	// SaveFile writes a snapshot to path atomically (temp file + rename)
	// and returns the number of keys written.
	SaveFile(path string) (int, error)
}

// AsSnapshotter returns kv's durability interface, if it has one.
func AsSnapshotter(kv KV) (Snapshotter, bool) {
	s, ok := kv.(Snapshotter)
	return s, ok
}

// Compile-time interface checks.
var (
	_ Ordered       = (*hyperion.Store)(nil)
	_ Batcher       = (*hyperion.Store)(nil)
	_ Snapshotter   = (*hyperion.Store)(nil)
	_ PrefixScanner = (*hyperion.Store)(nil)
	_ Ordered       = (*art.Tree)(nil)
	_ Ordered       = (*judy.Tree)(nil)
	_ Ordered       = (*hot.Tree)(nil)
	_ Ordered       = (*hattrie.Tree)(nil)
	_ Ordered       = (*rbtree.Tree)(nil)
	_ KV            = (*hashkv.Map)(nil)
)

// NewHyperion creates a Hyperion store with the paper's string-tuned default
// options.
func NewHyperion() *hyperion.Store { return hyperion.New(hyperion.DefaultOptions()) }

// NewHyperionInteger creates a Hyperion store with the integer-tuned options
// (8 KiB embedded-container threshold).
func NewHyperionInteger() *hyperion.Store { return hyperion.New(hyperion.IntegerOptions()) }

// NewHyperionP creates a Hyperion store with key pre-processing enabled
// ("Hyperion_p" in the paper).
func NewHyperionP() *hyperion.Store { return hyperion.New(hyperion.PreprocessedIntegerOptions()) }

// NewART creates an Adaptive Radix Tree with the paper's "ART" memory
// accounting (external key/value array).
func NewART() *art.Tree { return art.New() }

// NewARTC creates an Adaptive Radix Tree with the paper's "ARTC" accounting
// (single-value leaves).
func NewARTC() *art.Tree { return art.NewC() }

// NewJudy creates a Judy-like adaptive radix tree.
func NewJudy() *judy.Tree { return judy.New() }

// NewHOT creates a height-optimised-trie-like index.
func NewHOT() *hot.Tree { return hot.New() }

// NewHAT creates a HAT-trie.
func NewHAT() *hattrie.Tree { return hattrie.New() }

// NewRBTree creates a red-black tree (the std::map baseline).
func NewRBTree() *rbtree.Tree { return rbtree.New() }

// NewHash creates a hash table (the std::unordered_map baseline).
func NewHash() *hashkv.Map { return hashkv.New() }

// Factory describes one data structure available to the benchmark harness.
type Factory struct {
	// Name as used in the paper's tables.
	Name string
	// New creates an empty instance.
	New func() KV
	// Ordered reports whether the structure supports range queries.
	Ordered bool
	// Batched reports whether instances implement Batcher, i.e. support the
	// grouped parallel execution path of the concurrency experiment.
	Batched bool
	// IntegerTuned creates the variant used for the integer experiments (may
	// be nil when it does not differ from New).
	IntegerTuned func() KV
}

// All returns the factories for every structure of the paper's evaluation,
// in the order the paper's tables list them.
func All() []Factory {
	return []Factory{
		{Name: "Hyperion", New: func() KV { return NewHyperion() }, Ordered: true, Batched: true,
			IntegerTuned: func() KV { return NewHyperionInteger() }},
		{Name: "Hyperion_p", New: func() KV { return NewHyperionP() }, Ordered: true, Batched: true},
		{Name: "Judy", New: func() KV { return NewJudy() }, Ordered: true},
		{Name: "HAT", New: func() KV { return NewHAT() }, Ordered: true},
		{Name: "ART_C", New: func() KV { return NewARTC() }, Ordered: true},
		{Name: "ART", New: func() KV { return NewART() }, Ordered: true},
		{Name: "HOT", New: func() KV { return NewHOT() }, Ordered: true},
		{Name: "RB-Tree", New: func() KV { return NewRBTree() }, Ordered: true},
		{Name: "Hash", New: func() KV { return NewHash() }, Ordered: false},
	}
}

// ByName returns the factory with the given name, or false.
func ByName(name string) (Factory, bool) {
	for _, f := range All() {
		if f.Name == name {
			return f, true
		}
	}
	return Factory{}, false
}
