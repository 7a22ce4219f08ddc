package kvcache

// Prefix sharing: vLLM's paged layout lets sequences that start with
// the same tokens (a shared system prompt) reference the same physical
// KV blocks, multiplying effective cache capacity for chat serving.
// PrefixPaged counts the live sequences as the shared blocks'
// references; only full blocks of the common prefix are shared (the
// trailing partial block diverges per sequence, so it stays private).

import (
	"errors"
	"fmt"
)

// ErrPrefixTooLarge is returned by NewPrefixPaged when the shared
// prefix's full blocks alone exceed the whole block budget: no
// sequence could ever materialise the prefix, so every Alloc would
// fail — with a bare ErrOutOfMemory that never names the real
// problem. Rejecting at construction names it.
var ErrPrefixTooLarge = errors.New("kvcache: shared prefix exceeds the block budget")

// pool is the name PrefixPaged embeds its Paged block pool under:
// the pool's methods are promoted, while the unexported field keeps
// callers from reaching past the prefix reference count to the pool.
type pool = Paged

// PrefixPaged is a Paged allocator whose sequences share the physical
// blocks of a common prompt prefix. It satisfies Allocator: every
// sequence allocated through it is assumed to begin with the
// configured shared prefix (the serving pattern where one system
// prompt fronts every request), so each live sequence is one reference
// to the shared blocks. Its block pool counts only the tokens beyond
// the shared full blocks as a sequence's own; PrefixPaged allocates
// the shared blocks with the first live sequence and releases them
// with the last.
//
// BlockTokens and PrefixTokens are read-only after NewPrefixPaged: the
// allocator derives its shared full blocks from them once.
type PrefixPaged struct {
	pool
	// PrefixTokens is the shared prompt length; its ⌊/BlockTokens⌋
	// full blocks are stored once.
	PrefixTokens int

	sharedBlocks int // PrefixTokens / BlockTokens: the shared full blocks
}

// NewPrefixPaged creates the allocator. The shared prefix's blocks are
// allocated lazily with the first sequence and released when the last
// reference drops.
func NewPrefixPaged(blockTokens, prefixTokens int, bytesPerToken, capacityBytes float64) (*PrefixPaged, error) {
	if blockTokens <= 0 {
		return nil, fmt.Errorf("kvcache: block size %d must be positive", blockTokens)
	}
	if prefixTokens < 0 {
		return nil, errors.New("kvcache: negative prefix length")
	}
	if bytesPerToken <= 0 || capacityBytes <= 0 {
		return nil, errors.New("kvcache: non-positive sizes")
	}
	p := &PrefixPaged{
		pool:         newPaged(blockTokens, bytesPerToken, capacityBytes),
		PrefixTokens: prefixTokens,
		sharedBlocks: prefixTokens / blockTokens,
	}
	if p.sharedBlocks > p.totalBlocks {
		return nil, fmt.Errorf("%w: prefix of %d tokens needs %d full blocks of %d, but %g bytes hold only %d blocks",
			ErrPrefixTooLarge, prefixTokens, p.sharedBlocks, blockTokens, capacityBytes, p.totalBlocks)
	}
	p.sharedTokens = p.sharedBlocks * blockTokens
	return p, nil
}

// coldBlocks returns the shared blocks the next Alloc materialises:
// all of them when no sequence references the prefix, else none.
func (p *PrefixPaged) coldBlocks() int {
	if p.table.live == 0 {
		return p.sharedBlocks
	}
	return 0
}

// Alloc implements Allocator. tokens includes the shared prefix.
func (p *PrefixPaged) Alloc(tokens int) (Seq, error) { return p.alloc(tokens, p.coldBlocks()) }

// CanAlloc implements Allocator: the sequence's private blocks, plus
// the shared blocks when this allocation would materialise them, as
// Alloc charges them.
func (p *PrefixPaged) CanAlloc(tokens int) bool {
	return p.blocksFor(tokens)+p.coldBlocks() <= p.freeBlocks
}

// Free implements Allocator.
func (p *PrefixPaged) Free(seq Seq) { p.release(seq) }

// release frees seq and reports whether it dropped the prefix's last
// reference, which releases the shared blocks.
func (p *PrefixPaged) release(seq Seq) bool {
	live := p.table.live
	p.pool.Free(seq)
	if live == 1 && p.table.live == 0 {
		p.freeBlocks += p.sharedBlocks
		return true
	}
	return false
}

// SharedBytes reports the storage the shared prefix occupies (once).
func (p *PrefixPaged) SharedBytes() float64 {
	if p.table.live == 0 {
		return 0
	}
	return float64(p.sharedBlocks) * float64(p.BlockTokens) * p.BytesPerToken
}

// HotPrefixTokens reports the shared-prefix tokens currently
// materialised on the device: the full-block prefix tokens while any
// sequence references them, zero once the last reference dropped. The
// DES kernel publishes it into each station's gauge, from which the
// prefix-aware cluster router scores replicas by expected prefix-hit
// length.
func (p *PrefixPaged) HotPrefixTokens() int {
	if p.table.live == 0 {
		return 0
	}
	return p.sharedTokens
}

// RestorablePrefixTokens reports shared-prefix tokens held in a lower
// tier, restorable without recompute. A bare PrefixPaged has no lower
// tier — dropped prefix blocks are gone — so it always reports zero;
// Tiered overrides it.
func (p *PrefixPaged) RestorablePrefixTokens() int { return 0 }
