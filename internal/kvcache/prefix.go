package kvcache

// Prefix sharing: vLLM's paged layout lets sequences that start with
// the same tokens (a shared system prompt) reference the same physical
// KV blocks, multiplying effective cache capacity for chat serving.
// PrefixPaged implements it with per-block reference counts; only full
// blocks of the common prefix are shared (the trailing partial block
// diverges per sequence, so it stays private).

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

// PrefixPaged is a Paged allocator whose sequences share the physical
// blocks of a common prompt prefix. It satisfies Allocator: every
// sequence allocated through it is assumed to begin with the
// configured shared prefix (the serving pattern where one system
// prompt fronts every request).
//
// BlockTokens and PrefixTokens are read-only after NewPrefixPaged: the
// allocator derives its shared full blocks from them once.
type PrefixPaged struct {
	BlockTokens   int
	BytesPerToken float64
	// PrefixTokens is the shared prompt length; its ⌊/BlockTokens⌋
	// full blocks are stored once.
	PrefixTokens int

	capacity     float64
	totalBlocks  int
	freeBlocks   int
	sharedBlocks int // PrefixTokens / BlockTokens: the shared full blocks
	sharedTokens int // sharedBlocks · BlockTokens: the tokens they hold
	prefixBlocks int // shared full blocks now allocated (sharedBlocks or 0)
	prefixRef    int // sequences currently referencing them
	slackTokens  int // private reserved-but-unwritten tokens
	table        seqTable
	scratch      []int // reused by MaxExtendSteps (token counts)
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
	blockBytes := float64(blockTokens) * bytesPerToken
	total := int(capacityBytes / blockBytes)
	pb := prefixTokens / blockTokens
	if pb > total {
		return nil, fmt.Errorf("%w: prefix of %d tokens needs %d full blocks of %d, but %g bytes hold only %d blocks",
			ErrPrefixTooLarge, prefixTokens, pb, blockTokens, capacityBytes, total)
	}
	return &PrefixPaged{
		BlockTokens:   blockTokens,
		BytesPerToken: bytesPerToken,
		PrefixTokens:  prefixTokens,
		capacity:      capacityBytes,
		totalBlocks:   total,
		freeBlocks:    total,
		sharedBlocks:  pb,
		sharedTokens:  pb * blockTokens,
	}, nil
}

// privateBlocksFor returns the private blocks a sequence of the given
// total length needs: everything beyond the shared full blocks.
func (p *PrefixPaged) privateBlocksFor(tokens int) int {
	if tokens <= p.sharedTokens {
		return 0
	}
	rest := tokens - p.sharedTokens
	return (rest + p.BlockTokens - 1) / p.BlockTokens
}

// privateSlack is one sequence's reserved-but-unwritten private
// tokens: private block capacity minus the tokens beyond the shared
// prefix.
func (p *PrefixPaged) privateSlack(tokens, private int) int {
	privTokens := tokens - p.sharedTokens
	if privTokens < 0 {
		privTokens = 0
	}
	return private*p.BlockTokens - privTokens
}

// needFor returns the blocks a new sequence of the given length must
// draw from the free list: its private blocks, plus the shared
// prefix's full blocks when this allocation would materialise them.
// Alloc and CanAlloc both price through it, so the admission check
// and the allocation can never disagree (they used to duplicate the
// materialisation branch).
func (p *PrefixPaged) needFor(tokens int) int {
	need := p.privateBlocksFor(tokens)
	if p.prefixRef == 0 {
		need += p.sharedBlocks // first reference materialises the prefix
	}
	return need
}

// Alloc implements Allocator. tokens includes the shared prefix.
func (p *PrefixPaged) Alloc(tokens int) (Seq, error) {
	need := p.needFor(tokens)
	if need > p.freeBlocks {
		return 0, ErrOutOfMemory
	}
	if p.prefixRef == 0 {
		p.prefixBlocks = p.sharedBlocks
		p.freeBlocks -= p.prefixBlocks
		need -= p.prefixBlocks
	}
	p.freeBlocks -= need
	p.prefixRef++
	p.slackTokens += p.privateSlack(tokens, need)
	return p.table.alloc(tokens, need), nil
}

// Extend implements Allocator.
func (p *PrefixPaged) Extend(seq Seq, tokens int) error {
	slot := p.table.lookup(seq)
	if slot < 0 {
		return fmt.Errorf("kvcache: unknown sequence %d", seq)
	}
	cur := p.table.tokens[slot]
	if tokens < cur {
		return fmt.Errorf("kvcache: cannot shrink sequence %d", seq)
	}
	private := p.table.aux[slot]
	need := p.privateBlocksFor(tokens) - private
	if need > p.freeBlocks {
		return ErrOutOfMemory
	}
	p.freeBlocks -= need
	p.slackTokens += p.privateSlack(tokens, private+need) - p.privateSlack(cur, private)
	p.table.tokens[slot] = tokens
	p.table.aux[slot] = private + need
	return nil
}

// Free implements Allocator.
func (p *PrefixPaged) Free(seq Seq) {
	slot := p.table.lookup(seq)
	if slot < 0 {
		return
	}
	private := p.table.aux[slot]
	p.freeBlocks += private
	p.slackTokens -= p.privateSlack(p.table.tokens[slot], private)
	p.table.release(slot)
	p.prefixRef--
	if p.prefixRef == 0 {
		p.freeBlocks += p.prefixBlocks
		p.prefixBlocks = 0
	}
}

// UsedBytes implements Allocator.
func (p *PrefixPaged) UsedBytes() float64 {
	used := p.totalBlocks - p.freeBlocks
	return float64(used) * float64(p.BlockTokens) * p.BytesPerToken
}

// WasteBytes implements Allocator: per-sequence partial-block slack,
// computed over private storage only (the shared blocks are full).
func (p *PrefixPaged) WasteBytes() float64 {
	return float64(p.slackTokens) * p.BytesPerToken
}

// CapacityBytes implements Allocator.
func (p *PrefixPaged) CapacityBytes() float64 { return p.capacity }

// CanAlloc implements Allocator.
func (p *PrefixPaged) CanAlloc(tokens int) bool {
	return p.needFor(tokens) <= p.freeBlocks
}

// MaxExtendSteps implements Allocator: like Paged, but demand counts
// private blocks only (the shared prefix never grows). The sequence
// states are read once up front into a reused buffer, so the search
// probes are pure arithmetic, and the same free-block fast path
// (fitsWhole) skips the search: private blocks also grow by at most
// ceil(limit/BlockTokens) per sequence.
func (p *PrefixPaged) MaxExtendSteps(seqs []Seq, limit int) int {
	if limit <= 0 {
		return 0
	}
	toks := p.scratch[:0]
	base := 0
	for _, s := range seqs {
		slot := p.table.lookup(s)
		if slot < 0 {
			return 0
		}
		toks = append(toks, p.table.tokens[slot])
		base += p.table.aux[slot]
	}
	p.scratch = toks
	if fitsWhole(len(seqs), limit, p.BlockTokens, p.freeBlocks) {
		return limit
	}
	demand := func(k int) int {
		blocks := -base
		for _, t := range toks {
			blocks += p.privateBlocksFor(t + k)
		}
		return blocks
	}
	lo, hi := 0, limit
	for lo < hi {
		mid := (lo + hi + 1) / 2
		if demand(mid) <= p.freeBlocks {
			lo = mid
		} else {
			hi = mid - 1
		}
	}
	return lo
}

// Sequences returns the number of live sequences.
func (p *PrefixPaged) Sequences() int { return p.table.live }

// SharedBytes reports the storage the shared prefix occupies (once).
func (p *PrefixPaged) SharedBytes() float64 {
	return float64(p.prefixBlocks) * float64(p.BlockTokens) * p.BytesPerToken
}

// HotPrefixTokens reports the shared-prefix tokens currently
// materialised on the device: the full-block prefix tokens while any
// sequence references them, zero once the last reference dropped. The
// DES kernel publishes it into each station's gauge, from which the
// prefix-aware cluster router scores replicas by expected prefix-hit
// length.
func (p *PrefixPaged) HotPrefixTokens() int {
	if p.prefixRef == 0 {
		return 0
	}
	return p.sharedTokens
}

// RestorablePrefixTokens reports shared-prefix tokens held in a lower
// tier, restorable without recompute. A bare PrefixPaged has no lower
// tier — dropped prefix blocks are gone — so it always reports zero;
// Tiered overrides it.
func (p *PrefixPaged) RestorablePrefixTokens() int { return 0 }
