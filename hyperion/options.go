// Package hyperion is the public API of the Hyperion key-value store: a
// trie-based, memory-efficiency-first in-memory index as described in
// "Hyperion: Building the Largest In-memory Search Tree" (SIGMOD 2019).
//
// A Store maps arbitrary byte-string keys to 64-bit values. Keys are kept in
// binary-comparable order, so range queries iterate lexicographically. The
// engine underneath (internal/core) stores keys in 65,536-ary containers with
// an exact-fit byte encoding and resolves all internal references through
// 5-byte Hyperion Pointers handed out by a custom memory manager
// (internal/memman).
//
// Basic usage:
//
//	store := hyperion.New(hyperion.DefaultOptions())
//	store.Put([]byte("key"), 42)
//	v, ok := store.Get([]byte("key"))
//	store.Range([]byte("k"), func(key []byte, value uint64) bool { return true })
package hyperion

import (
	"time"

	"repro/internal/core"
)

// Options configure a Store. The zero value is not valid; start from
// DefaultOptions (string-tuned, all paper features enabled) or IntegerOptions
// (8 KiB embedded-container threshold, as used for the paper's integer
// benchmarks) and adjust.
type Options struct {
	// Arenas is the number of independently locked arenas (1..256). Keys are
	// routed by their leading byte so that global ordering is preserved
	// across arenas (paper §3.2, "Arenas").
	Arenas int

	// KeyPreprocessing enables the zero-bit-injection key transformation of
	// paper §3.4 ("Hyperion_p"). It helps uniformly distributed fixed-size
	// keys (random integers, hashes) and is transparent: Get/Range observe
	// the original keys. The transformation only preserves ordering among
	// keys of at least four bytes; when a store mixes shorter and longer
	// keys, Range order across that boundary is unspecified.
	KeyPreprocessing bool

	// EmbeddedEjectThreshold is the container size (bytes) above which
	// embedded child containers are ejected. The paper uses 16 KiB for
	// variable-length string keys and 8 KiB for integer keys.
	EmbeddedEjectThreshold int

	// BatchWorkers bounds the number of goroutines the batched execution
	// paths (ApplyBatch, GetBatch, ParallelEach) fan out to. Zero or
	// negative means GOMAXPROCS at store-construction time. A bound of 1
	// makes every batched path run on the calling goroutine.
	BatchWorkers int

	// Feature toggles for ablation studies. All features are enabled by
	// default; disabling them reproduces the paper's design discussion.
	DisableDeltaEncoding   bool
	DisablePathCompression bool
	DisableEmbedded        bool
	DisableJumpSuccessor   bool
	DisableJumpTables      bool
	DisableContainerSplit  bool

	// WALDir enables write-ahead logging: every mutation is logged to
	// per-shard segment files in this directory before it is applied, and
	// Open recovers the directory's previous state (checkpoint snapshot +
	// WAL tail replay) on startup. Only honoured by Open — New always builds
	// a memory-only store. A store with a WAL must be Closed. Empty disables
	// durability entirely (zero hot-path cost). See wal.go.
	WALDir string

	// WALSync selects the fsync schedule: SyncAlways (default — every write
	// acknowledged only after its record is fsynced, batched through group
	// commit), SyncInterval (background fsync every WALSyncInterval), or
	// SyncNever (OS page cache decides).
	WALSync SyncPolicy

	// WALSyncInterval is the SyncInterval fsync period. Zero means 50ms.
	WALSyncInterval time.Duration

	// WALSegmentBytes rotates a shard's segment file when it grows past this
	// size. Zero means 64 MiB.
	WALSegmentBytes int64

	// WALRetryMax bounds how many times the WAL committer retries one
	// transient write/fsync failure (EIO, EINTR, EAGAIN, timeouts — never
	// ENOSPC) with exponential backoff before the store enters degraded
	// read-only mode. Zero means the default (4); negative disables
	// retrying, so the first failure degrades immediately.
	WALRetryMax int

	// WALRetryBackoff is the first retry's backoff delay; each retry
	// doubles it and adds jitter, capped at the wal package's ceiling
	// (50ms). Zero means 1ms.
	WALRetryBackoff time.Duration

	// WALAutoRearm, when positive, runs a background probe that attempts
	// Rearm at this period whenever the store is degraded, so a store whose
	// disk recovers re-establishes durability without an operator. Zero
	// disables the probe; Store.Rearm (and the server REARM command) remain
	// available either way.
	WALAutoRearm time.Duration

	// WALOpenFile overrides how WAL segment files are created — the
	// fault-injection seam shared with internal/fault. Nil means real files.
	WALOpenFile func(path string) (WALFile, error)
}

// DefaultOptions returns the paper's string-tuned configuration: one arena,
// no key pre-processing, 16 KiB embedded-eject threshold, every feature on.
func DefaultOptions() Options {
	return Options{
		Arenas:                 1,
		EmbeddedEjectThreshold: 16 * 1024,
	}
}

// IntegerOptions returns the paper's integer-tuned configuration (8 KiB
// embedded-eject threshold).
func IntegerOptions() Options {
	o := DefaultOptions()
	o.EmbeddedEjectThreshold = 8 * 1024
	return o
}

// PreprocessedIntegerOptions returns the Hyperion_p configuration used for
// randomized integer keys in the paper's §4.4 experiments.
func PreprocessedIntegerOptions() Options {
	o := IntegerOptions()
	o.KeyPreprocessing = true
	return o
}

// coreConfig translates the public options into the engine configuration.
func (o Options) coreConfig() core.Config {
	cfg := core.DefaultConfig()
	if o.EmbeddedEjectThreshold > 0 {
		cfg.EmbeddedEjectThreshold = o.EmbeddedEjectThreshold
	}
	cfg.DeltaEncoding = !o.DisableDeltaEncoding
	cfg.PathCompression = !o.DisablePathCompression
	cfg.Embedded = !o.DisableEmbedded
	cfg.JumpSuccessor = !o.DisableJumpSuccessor
	cfg.TNodeJumpTable = !o.DisableJumpTables
	cfg.ContainerJumpTable = !o.DisableJumpTables
	cfg.Split = !o.DisableContainerSplit
	return cfg
}

func (o Options) normalized() Options {
	if o.Arenas < 1 {
		o.Arenas = 1
	}
	if o.Arenas > 256 {
		o.Arenas = 256
	}
	if o.EmbeddedEjectThreshold <= 0 {
		o.EmbeddedEjectThreshold = 16 * 1024
	}
	return o
}
