// Package kvcache implements the two KV-cache management strategies
// the paper contrasts in §IV-B: vLLM-style block-paged allocation
// (PagedAttention) and traditional monolithic reservation.
//
// The allocators are mechanistic — they track real block/reservation
// state per sequence — so the scheduler can admit, grow, and evict
// sequences and observe genuine fragmentation, and the engine can
// price the block-size-dependent attention-kernel overhead of Fig. 2b.
//
// Sequences are identified by opaque Seq handles the allocator assigns
// at Alloc time. Internally every allocator keeps dense slice tables
// indexed by the handle's slot — no maps — so the per-event bookkeeping
// of the serving kernel (Alloc/Extend/Free/MaxExtendSteps per coalesced
// window) is pure array arithmetic. Slots are recycled through a free
// list; a generation counter baked into the handle makes stale handles
// detectable, so a Free'd handle can never alias a later sequence.
//
// # Tiering and restore
//
// Production serving stacks keep a CPU tier behind the device cache:
// when the last sequence referencing a shared prefix frees, the
// prefix's KV blocks are demoted to host memory rather than dropped,
// and the next request needing the prefix restores them over the
// device↔host link (HostLink, priced from
// hw.HostLinkGBs/HostLinkLatencyUS) instead of recomputing prefill.
// Tiered wraps PrefixPaged with exactly this behaviour. The device
// holds one shared prefix, so the host tier holds at most that one
// block group: a prefix whose full blocks fit the tier's capacity is
// demoted and later restored, one that does not is dropped, and
// Tiered counts its demotions and restores. It exposes the saving
// through PrefillDiscounter: after each Alloc the serving kernel
// drains (skipTokens, restoreS) — cached full-block prefix tokens that
// need no prefill compute, and the host-link seconds to charge for
// blocks that had to come back up. Warm promote/demote/restore cycles
// allocate nothing, like the rest of the package.
package kvcache

import (
	"errors"
	"fmt"
)

// ErrOutOfMemory is returned when an allocation cannot be satisfied.
var ErrOutOfMemory = errors.New("kvcache: out of memory")

// Seq is an opaque live-sequence handle: the low 32 bits are a dense
// slot index into the allocator's tables, the high 32 bits a per-slot
// generation counter (odd while live, bumped on Alloc and on Free).
// The zero Seq is never valid.
type Seq int64

func makeSeq(slot int, gen uint32) Seq {
	return Seq(int64(gen)<<32 | int64(uint32(slot)))
}

func (s Seq) slot() int   { return int(uint32(s)) }
func (s Seq) gen() uint32 { return uint32(uint64(s) >> 32) }

// Allocator manages KV storage for in-flight sequences.
type Allocator interface {
	// Alloc reserves storage for a new sequence currently holding
	// tokens context entries and returns its handle.
	Alloc(tokens int) (Seq, error)
	// Extend grows a sequence to the new token count.
	Extend(seq Seq, tokens int) error
	// Free releases a sequence; freeing an unknown or stale handle is
	// a no-op. The handle is dead afterwards.
	Free(seq Seq)
	// UsedBytes is storage currently reserved (including waste).
	UsedBytes() float64
	// WasteBytes is reserved-but-unwritten storage (fragmentation).
	WasteBytes() float64
	// CapacityBytes is the allocator's budget.
	CapacityBytes() float64
	// CanAlloc reports whether a new sequence of the given length fits.
	CanAlloc(tokens int) bool
	// MaxExtendSteps returns the largest k ≤ limit such that extending
	// every listed sequence by one token per step, for k consecutive
	// steps (all sequences advancing together each step), would
	// succeed without ErrOutOfMemory. It never mutates state; the
	// serving schedulers use it to bound how many identical decode
	// iterations they may fast-forward in one event. An unknown or
	// stale handle makes the result 0.
	MaxExtendSteps(seqs []Seq, limit int) int
}

// --- dense sequence table ------------------------------------------------

// seqTable is the shared slot store behind every allocator: per-slot
// token counts, one allocator-specific auxiliary integer (Paged's
// private block count), and the generation guard. Lookups,
// inserts, and releases are O(1) slice operations; the only
// allocations are the geometric growth of the tables themselves,
// which stops once the peak concurrency has been seen — the warm
// steady state of a serving run touches no map and allocates nothing.
type seqTable struct {
	tokens []int    // per-slot written token count
	aux    []int    // per-slot allocator-specific count
	gen    []uint32 // per-slot generation; odd = live
	free   []int32  // stack of dead slots
	live   int
}

// alloc claims a slot (recycling the most recently freed one first)
// and returns the new live handle.
func (t *seqTable) alloc(tokens, aux int) Seq {
	var slot int
	if n := len(t.free); n > 0 {
		slot = int(t.free[n-1])
		t.free = t.free[:n-1]
	} else {
		slot = len(t.tokens)
		t.tokens = append(t.tokens, 0)
		t.aux = append(t.aux, 0)
		t.gen = append(t.gen, 0)
	}
	t.tokens[slot] = tokens
	t.aux[slot] = aux
	t.gen[slot]++ // even → odd: live
	t.live++
	return makeSeq(slot, t.gen[slot])
}

// lookup resolves a handle to its slot, or -1 if the handle is stale,
// foreign, or the zero Seq.
func (t *seqTable) lookup(s Seq) int {
	slot := s.slot()
	g := s.gen()
	if g&1 == 0 || slot >= len(t.gen) || t.gen[slot] != g {
		return -1
	}
	return slot
}

// release kills a live slot and pushes it on the free stack.
func (t *seqTable) release(slot int) {
	t.gen[slot]++ // odd → even: dead
	t.free = append(t.free, int32(slot))
	t.live--
}

// --- Paged allocator ----------------------------------------------------

// Paged is a vLLM-style block allocator: storage is carved into
// fixed-size blocks of BlockTokens tokens; sequences own block lists
// and waste at most one partial block each.
//
// Paged is also the block pool behind PrefixPaged, whose sequences
// start with sharedTokens tokens held in shared full blocks: the pool
// counts only a sequence's tokens beyond them as its own (private)
// tokens. On a plain Paged sharedTokens is 0, so every token is
// private.
type Paged struct {
	BlockTokens   int
	BytesPerToken float64
	capacity      float64
	totalBlocks   int
	freeBlocks    int
	sharedTokens  int      // tokens held in shared full blocks; 0 on a plain Paged
	table         seqTable // aux is the sequence's private block count
	scratch       []int    // reused by MaxExtendSteps (token counts)
}

// NewPaged creates a paged allocator over capacityBytes of storage.
func NewPaged(blockTokens int, bytesPerToken, capacityBytes float64) (*Paged, error) {
	if blockTokens <= 0 {
		return nil, fmt.Errorf("kvcache: block size %d must be positive", blockTokens)
	}
	if bytesPerToken <= 0 || capacityBytes <= 0 {
		return nil, fmt.Errorf("kvcache: non-positive sizes")
	}
	p := newPaged(blockTokens, bytesPerToken, capacityBytes)
	return &p, nil
}

// newPaged builds the empty pool of a validated configuration.
func newPaged(blockTokens int, bytesPerToken, capacityBytes float64) Paged {
	total := int(capacityBytes / (float64(blockTokens) * bytesPerToken))
	return Paged{
		BlockTokens:   blockTokens,
		BytesPerToken: bytesPerToken,
		capacity:      capacityBytes,
		totalBlocks:   total,
		freeBlocks:    total,
	}
}

// private returns a sequence's private tokens: those beyond the shared
// full blocks, or none when the sequence is no longer than them.
func (p *Paged) private(tokens int) int { return max(tokens-p.sharedTokens, 0) }

// blocksFor returns the private blocks a sequence of tokens holds.
func (p *Paged) blocksFor(tokens int) int {
	return (p.private(tokens) + p.BlockTokens - 1) / p.BlockTokens
}

// Alloc implements Allocator.
func (p *Paged) Alloc(tokens int) (Seq, error) { return p.alloc(tokens, 0) }

// alloc takes a new sequence's private blocks together with extra
// blocks the caller accounts for itself, or takes nothing when they do
// not all fit.
func (p *Paged) alloc(tokens, extra int) (Seq, error) {
	need := p.blocksFor(tokens)
	if need+extra > p.freeBlocks {
		return 0, ErrOutOfMemory
	}
	p.freeBlocks -= need + extra
	return p.table.alloc(tokens, need), nil
}

// Extend implements Allocator.
func (p *Paged) Extend(seq Seq, tokens int) error {
	slot := p.table.lookup(seq)
	if slot < 0 {
		return fmt.Errorf("kvcache: unknown sequence %d", seq)
	}
	cur := p.table.tokens[slot]
	if tokens < cur {
		return fmt.Errorf("kvcache: cannot shrink sequence %d (%d -> %d)", seq, cur, tokens)
	}
	need := p.blocksFor(tokens) - p.table.aux[slot]
	if need > p.freeBlocks {
		return ErrOutOfMemory
	}
	p.freeBlocks -= need
	p.table.tokens[slot] = tokens
	p.table.aux[slot] += need
	return nil
}

// Free implements Allocator.
func (p *Paged) Free(seq Seq) {
	slot := p.table.lookup(seq)
	if slot < 0 {
		return
	}
	p.freeBlocks += p.table.aux[slot]
	p.table.release(slot)
}

// UsedBytes implements Allocator.
func (p *Paged) UsedBytes() float64 {
	used := p.totalBlocks - p.freeBlocks
	return float64(used) * float64(p.BlockTokens) * p.BytesPerToken
}

// WasteBytes implements Allocator: per-sequence partial-block slack
// (shared blocks are full, so they add none).
func (p *Paged) WasteBytes() float64 {
	return float64(p.slackTokens()) * p.BytesPerToken
}

// slackTokens sums the live sequences' reserved-but-unwritten private
// tokens. It scans the sequence table rather than keeping a running
// total on every Alloc, Extend and Free, because no serving path reads
// it.
func (p *Paged) slackTokens() int {
	slack := 0
	for slot, g := range p.table.gen {
		if g&1 == 1 {
			slack += p.table.aux[slot]*p.BlockTokens - p.private(p.table.tokens[slot])
		}
	}
	return slack
}

// CapacityBytes implements Allocator.
func (p *Paged) CapacityBytes() float64 { return p.capacity }

// CanAlloc implements Allocator.
func (p *Paged) CanAlloc(tokens int) bool { return p.blocksFor(tokens) <= p.freeBlocks }

// MaxExtendSteps implements Allocator. Block demand is monotone in the
// step count, so the largest feasible k is found by binary search; a
// cumulative demand that fits also fits at every intermediate step and
// in any per-step extension order. The sequence states are read once
// up front (into a reused buffer — the hot serving loop calls this
// per coalesced window) so the search probes are pure arithmetic, and
// the search is skipped when the free blocks cover the whole window
// (fitsWhole).
func (p *Paged) MaxExtendSteps(seqs []Seq, limit int) int {
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
			blocks += p.blocksFor(t + k)
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
func (p *Paged) Sequences() int { return p.table.live }

// fitsWhole is MaxExtendSteps' free-block fast path: n sequences each
// growing limit tokens need at most ceil(limit/blockTokens) new blocks
// apiece (a sequence holds ceil(tokens/blockTokens) blocks, and
// ceil(a+b) ≤ ceil(a)+ceil(b)), so when that many blocks are free the
// whole limit fits and no search is needed.
func fitsWhole(n, limit, blockTokens, freeBlocks int) bool {
	return n*((limit+blockTokens-1)/blockTokens) <= freeBlocks
}

// --- Monolithic allocator ----------------------------------------------

// Monolithic reserves a fixed, maximum-length contiguous region per
// sequence up front — the pre-vLLM strategy whose internal
// fragmentation PagedAttention eliminates (§IV-B2).
type Monolithic struct {
	ReserveTokens int // tokens reserved per sequence (model max length)
	BytesPerToken float64
	capacity      float64
	writtenTokens int // Σ written tokens across live seqs
	table         seqTable
}

// NewMonolithic creates a monolithic allocator.
func NewMonolithic(reserveTokens int, bytesPerToken, capacityBytes float64) (*Monolithic, error) {
	if reserveTokens <= 0 || bytesPerToken <= 0 || capacityBytes <= 0 {
		return nil, fmt.Errorf("kvcache: non-positive sizes")
	}
	return &Monolithic{
		ReserveTokens: reserveTokens,
		BytesPerToken: bytesPerToken,
		capacity:      capacityBytes,
	}, nil
}

func (m *Monolithic) reserveBytes() float64 {
	return float64(m.ReserveTokens) * m.BytesPerToken
}

// Alloc implements Allocator.
func (m *Monolithic) Alloc(tokens int) (Seq, error) {
	if tokens > m.ReserveTokens {
		return 0, errors.New("kvcache: sequence longer than reservation")
	}
	if m.UsedBytes()+m.reserveBytes() > m.capacity {
		return 0, ErrOutOfMemory
	}
	m.writtenTokens += tokens
	return m.table.alloc(tokens, 0), nil
}

// Extend implements Allocator.
func (m *Monolithic) Extend(seq Seq, tokens int) error {
	slot := m.table.lookup(seq)
	if slot < 0 {
		return fmt.Errorf("kvcache: unknown sequence %d", seq)
	}
	cur := m.table.tokens[slot]
	if tokens < cur {
		return fmt.Errorf("kvcache: cannot shrink sequence %d", seq)
	}
	if tokens > m.ReserveTokens {
		return ErrOutOfMemory
	}
	m.writtenTokens += tokens - cur
	m.table.tokens[slot] = tokens
	return nil
}

// Free implements Allocator.
func (m *Monolithic) Free(seq Seq) {
	slot := m.table.lookup(seq)
	if slot < 0 {
		return
	}
	m.writtenTokens -= m.table.tokens[slot]
	m.table.release(slot)
}

// UsedBytes implements Allocator.
func (m *Monolithic) UsedBytes() float64 {
	return float64(m.table.live) * m.reserveBytes()
}

// WasteBytes implements Allocator.
func (m *Monolithic) WasteBytes() float64 {
	return float64(m.table.live*m.ReserveTokens-m.writtenTokens) * m.BytesPerToken
}

// CapacityBytes implements Allocator.
func (m *Monolithic) CapacityBytes() float64 { return m.capacity }

// CanAlloc implements Allocator.
func (m *Monolithic) CanAlloc(tokens int) bool {
	return tokens <= m.ReserveTokens && m.UsedBytes()+m.reserveBytes() <= m.capacity
}

// MaxExtendSteps implements Allocator: growth within a reservation
// never allocates, so the bound is each sequence's remaining headroom
// below ReserveTokens. The table reads are O(1) slice lookups, one per
// sequence — nothing is probed inside a search loop.
func (m *Monolithic) MaxExtendSteps(seqs []Seq, limit int) int {
	if limit <= 0 {
		return 0
	}
	max := limit
	for _, s := range seqs {
		slot := m.table.lookup(s)
		if slot < 0 {
			return 0
		}
		if room := m.ReserveTokens - m.table.tokens[slot]; room < max {
			max = room
		}
	}
	if max < 0 {
		return 0
	}
	return max
}

// Sequences returns the number of live sequences.
func (m *Monolithic) Sequences() int { return m.table.live }

// --- block-size kernel efficiency ---------------------------------------

// blockOverheadTokens is the per-block lookup cost of PagedAttention
// expressed in equivalent token-reads; calibrated so block 16 is
// ~1.2-1.3× faster than block 8 at batch 64 (Fig. 2b) while blocks
// ≥ 16 are indistinguishable.
const blockOverheadTokens = 12.0

// BlockEfficiency returns the KV-stream bandwidth efficiency of the
// paged attention kernel for a given block size, normalised to 1 for
// the optimal sizes (≥16 tokens). Fig. 2b: "any KV cache block size
// greater than or equal to 16 produces optimal throughput, while low
// block sizes hurt".
func BlockEfficiency(blockTokens int) float64 {
	if blockTokens <= 0 {
		return 0
	}
	if blockTokens >= 16 {
		return 1
	}
	raw := float64(blockTokens) / (float64(blockTokens) + blockOverheadTokens)
	ref := 16.0 / (16.0 + blockOverheadTokens)
	return raw / ref
}
