package kvcache

// Tiered KV offload: production serving stacks do not drop an evicted
// shared-prefix's KV blocks — they demote them to host (CPU) memory
// and restore them over the PCIe/C2C link when the prefix is needed
// again, turning an expensive re-prefill into a cheap bulk copy.
// HostTier models the host side (a capacity-bounded LRU over demoted
// block groups) and Tiered wires it behind a PrefixPaged device
// allocator. Both keep the package's zero-steady-state-allocation
// discipline: dense slices, an intrusive LRU list, no maps.

import (
	"errors"
	"fmt"
	"math"
)

// HostLink prices restore transfers over the device↔host link
// (hw.Device.HostLinkGBs / HostLinkLatencyUS resolved to seconds).
type HostLink struct {
	// GBPerS is the host-link bandwidth in GB/s.
	GBPerS float64
	// LatencyS is the per-transfer latency floor in seconds.
	LatencyS float64
}

// Validate rejects pricing that would produce non-positive or
// non-finite restore times.
func (l HostLink) Validate() error {
	if !(l.GBPerS > 0) || math.IsInf(l.GBPerS, 0) {
		return fmt.Errorf("kvcache: host link GBPerS %v (want positive and finite)", l.GBPerS)
	}
	if !(l.LatencyS > 0) || math.IsInf(l.LatencyS, 0) {
		return fmt.Errorf("kvcache: host link LatencyS %v (want positive and finite)", l.LatencyS)
	}
	return nil
}

// Seconds prices one restore of the given byte volume.
func (l HostLink) Seconds(bytes float64) float64 {
	return bytes/(l.GBPerS*1e9) + l.LatencyS
}

// TierCounters reports a HostTier's lifetime activity.
type TierCounters struct {
	// Touches counts accesses that refreshed a resident entry's LRU
	// position without removing it.
	Touches uint64
	// Demotions counts block groups accepted into the tier.
	Demotions uint64
	// Restores counts block groups removed by Restore (promoted back
	// to the device).
	Restores uint64
	// Evictions counts resident entries dropped to make room — the
	// capacity bound working.
	Evictions uint64
}

// HostTier is a capacity-bounded CPU tier over demoted KV block
// groups with LRU eviction. Entries are identified by small integer
// IDs (dense-table indices, like Seq slots); state lives in slices
// grown once per new high-water ID and an intrusive doubly linked LRU
// list, so a warm demote/restore cycle allocates nothing.
type HostTier struct {
	capBlocks  int
	usedBlocks int

	blocks     []int32 // per-ID resident block count; 0 = absent
	prev, next []int32 // intrusive LRU list (MRU at head)
	head, tail int32   // -1 when empty

	ctr TierCounters
}

// NewHostTier creates a tier holding at most capacityBlocks blocks.
func NewHostTier(capacityBlocks int) (*HostTier, error) {
	if capacityBlocks < 1 {
		return nil, fmt.Errorf("kvcache: host tier capacity %d blocks (want ≥ 1)", capacityBlocks)
	}
	return &HostTier{capBlocks: capacityBlocks, head: -1, tail: -1}, nil
}

// grow extends the dense tables to cover id.
func (t *HostTier) grow(id int) {
	for len(t.blocks) <= id {
		t.blocks = append(t.blocks, 0)
		t.prev = append(t.prev, -1)
		t.next = append(t.next, -1)
	}
}

func (t *HostTier) unlink(id int32) {
	p, n := t.prev[id], t.next[id]
	if p >= 0 {
		t.next[p] = n
	} else {
		t.head = n
	}
	if n >= 0 {
		t.prev[n] = p
	} else {
		t.tail = p
	}
	t.prev[id], t.next[id] = -1, -1
}

func (t *HostTier) pushFront(id int32) {
	t.prev[id], t.next[id] = -1, t.head
	if t.head >= 0 {
		t.prev[t.head] = id
	} else {
		t.tail = id
	}
	t.head = id
}

// Has reports whether the block group id is resident.
func (t *HostTier) Has(id int) bool {
	return id >= 0 && id < len(t.blocks) && t.blocks[id] != 0
}

// Blocks reports the resident block count of id (0 when absent).
func (t *HostTier) Blocks(id int) int {
	if !t.Has(id) {
		return 0
	}
	return int(t.blocks[id])
}

// UsedBlocks is the tier's resident block total.
func (t *HostTier) UsedBlocks() int { return t.usedBlocks }

// CapacityBlocks is the tier's block budget.
func (t *HostTier) CapacityBlocks() int { return t.capBlocks }

// Counters returns the tier's lifetime activity counters.
func (t *HostTier) Counters() TierCounters { return t.ctr }

// Touch refreshes a resident entry's LRU position (most recently
// used) and reports whether it was resident.
func (t *HostTier) Touch(id int) bool {
	if !t.Has(id) {
		return false
	}
	t.unlink(int32(id))
	t.pushFront(int32(id))
	t.ctr.Touches++
	return true
}

// Demote inserts a block group, evicting least-recently-used entries
// until it fits. A group larger than the whole tier is rejected
// (reported false — the blocks are simply dropped, as they would be
// without a tier); demoting an already-resident ID refreshes its LRU
// position and size.
func (t *HostTier) Demote(id, blocks int) bool {
	if id < 0 || blocks < 1 || blocks > t.capBlocks {
		return false
	}
	t.grow(id)
	if t.blocks[id] != 0 {
		t.usedBlocks -= int(t.blocks[id])
		t.unlink(int32(id))
		t.blocks[id] = 0
		t.ctr.Touches++
	}
	for t.usedBlocks+blocks > t.capBlocks {
		victim := t.tail
		t.unlink(victim)
		t.usedBlocks -= int(t.blocks[victim])
		t.blocks[victim] = 0
		t.ctr.Evictions++
	}
	t.blocks[id] = int32(blocks)
	t.usedBlocks += blocks
	t.pushFront(int32(id))
	t.ctr.Demotions++
	return true
}

// Restore removes a resident block group (promoting it back to the
// device) and returns its block count.
func (t *HostTier) Restore(id int) (int, bool) {
	if !t.Has(id) {
		return 0, false
	}
	b := int(t.blocks[id])
	t.unlink(int32(id))
	t.blocks[id] = 0
	t.usedBlocks -= b
	t.ctr.Restores++
	return b, true
}

// PrefillDiscounter is implemented by allocators whose Alloc can
// satisfy part of a prompt from a prefix cache. The DES admission
// path (internal/des) drains the accrued discount after each Alloc:
// skipTokens prompt tokens need no prefill compute (they were cached
// in full blocks) and restoreS seconds of host-link transfer must be
// charged instead (demoted blocks coming back up). Draining resets
// the accrual; an allocator that never discounts simply does not
// implement the interface.
type PrefillDiscounter interface {
	Allocator
	TakePrefillDiscount() (skipTokens int, restoreS float64)
}

// prefixTierID is the HostTier entry ID Tiered uses for its single
// shared prefix. The tier itself is generic over IDs; the wrapper
// only ever demotes one group.
const prefixTierID = 0

// Tiered wraps a PrefixPaged device allocator with a HostTier: when
// the last sequence referencing the shared prefix frees, the prefix's
// full blocks are demoted to the host tier instead of dropped, and
// the next sequence that re-materialises the prefix restores them
// over the host link — paying link seconds instead of re-prefill
// compute. Tiered implements PrefillDiscounter; serving admission
// (internal/des) charges the accrued restore seconds and skips
// prefill for the cached prefix tokens (a warm, still-resident prefix
// skips for free, exactly like PrefixPaged sharing — the tier only
// changes what happens after the reference count hits zero).
//
// All state is dense-slice bookkeeping; warm promote/demote/restore
// cycles allocate nothing (gated by TestTieredWarmCycleAllocs).
type Tiered struct {
	gpu  *PrefixPaged
	tier *HostTier
	link HostLink

	// restoreS is the precomputed cost of restoring the whole demoted
	// prefix (its full blocks over the host link); the prefix size is
	// fixed at construction.
	restoreS float64

	pendingSkip     int
	pendingRestoreS float64
	warmHits        uint64
}

// TieredStats reports a Tiered allocator's prefix-cache activity.
type TieredStats struct {
	// Touches counts warm hits: Allocs that found the prefix still
	// resident on the device.
	Touches uint64
	// Demotions, Restores, and Evictions are the host tier's counters
	// (see TierCounters).
	Demotions uint64
	Restores  uint64
	Evictions uint64
}

// NewTiered wraps the device allocator with a host tier of
// hostCapacityBytes priced over link. The tier must hold at least one
// block; a prefix too large for it is dropped on demotion rather
// than rejected here (the capacity bound is the tier's to enforce).
func NewTiered(gpu *PrefixPaged, hostCapacityBytes float64, link HostLink) (*Tiered, error) {
	if gpu == nil {
		return nil, errors.New("kvcache: nil device allocator")
	}
	if err := link.Validate(); err != nil {
		return nil, err
	}
	blockBytes := float64(gpu.BlockTokens) * gpu.BytesPerToken
	capBlocks := int(hostCapacityBytes / blockBytes)
	tier, err := NewHostTier(capBlocks)
	if err != nil {
		return nil, fmt.Errorf("kvcache: host tier of %g bytes holds no %d-token blocks", hostCapacityBytes, gpu.BlockTokens)
	}
	prefixBytes := float64(gpu.sharedBlocks) * blockBytes
	return &Tiered{gpu: gpu, tier: tier, link: link, restoreS: link.Seconds(prefixBytes)}, nil
}

// Alloc implements Allocator. A warm prefix (still referenced on the
// device) or a restored one accrues a prefill discount: every full
// prefix block's tokens skip prefill, except the prompt's last token,
// which is always recomputed (its logits drive the first output). A
// truly cold prefix — absent from both tiers — is computed by this
// sequence's prefill, exactly as PrefixPaged prices it.
func (t *Tiered) Alloc(tokens int) (Seq, error) {
	cold := t.gpu.prefixRef == 0
	seq, err := t.gpu.Alloc(tokens)
	if err != nil {
		return 0, err
	}
	shared := t.gpu.sharedTokens
	if shared == 0 {
		return seq, nil
	}
	if cold {
		if _, ok := t.tier.Restore(prefixTierID); !ok {
			return seq, nil // first-ever reference: prefill computes the prefix
		}
		t.pendingRestoreS += t.restoreS
	} else {
		t.warmHits++
	}
	skip := shared
	if skip > tokens-1 {
		skip = tokens - 1
	}
	if skip > 0 {
		t.pendingSkip += skip
	}
	return seq, nil
}

// Extend implements Allocator.
func (t *Tiered) Extend(seq Seq, tokens int) error { return t.gpu.Extend(seq, tokens) }

// Free implements Allocator. When the freed sequence was the last
// reference to the shared prefix, the prefix's blocks are demoted to
// the host tier instead of dropped.
func (t *Tiered) Free(seq Seq) {
	if t.gpu.table.lookup(seq) < 0 {
		return // stale or foreign handle: a no-op, never a demotion probe
	}
	pb := t.gpu.prefixBlocks
	t.gpu.Free(seq)
	if pb > 0 && t.gpu.prefixRef == 0 {
		t.tier.Demote(prefixTierID, pb)
	}
}

// UsedBytes implements Allocator (device-side storage only).
func (t *Tiered) UsedBytes() float64 { return t.gpu.UsedBytes() }

// WasteBytes implements Allocator.
func (t *Tiered) WasteBytes() float64 { return t.gpu.WasteBytes() }

// CapacityBytes implements Allocator (the device budget; see
// HostUsedBytes for the tier).
func (t *Tiered) CapacityBytes() float64 { return t.gpu.CapacityBytes() }

// CanAlloc implements Allocator.
func (t *Tiered) CanAlloc(tokens int) bool { return t.gpu.CanAlloc(tokens) }

// MaxExtendSteps implements Allocator.
func (t *Tiered) MaxExtendSteps(seqs []Seq, limit int) int { return t.gpu.MaxExtendSteps(seqs, limit) }

// Sequences returns the number of live sequences.
func (t *Tiered) Sequences() int { return t.gpu.Sequences() }

// TakePrefillDiscount implements PrefillDiscounter: it drains the
// skip-token and restore-second accrual since the last drain.
func (t *Tiered) TakePrefillDiscount() (int, float64) {
	skip, rs := t.pendingSkip, t.pendingRestoreS
	t.pendingSkip, t.pendingRestoreS = 0, 0
	return skip, rs
}

// HotPrefixTokens reports the shared-prefix tokens resident on the
// device (see PrefixPaged.HotPrefixTokens).
func (t *Tiered) HotPrefixTokens() int { return t.gpu.HotPrefixTokens() }

// RestorablePrefixTokens reports the shared-prefix tokens currently
// demoted to the host tier: an arriving request would hit them after
// a host-link restore rather than a full re-prefill.
func (t *Tiered) RestorablePrefixTokens() int {
	if !t.tier.Has(prefixTierID) {
		return 0
	}
	return t.gpu.sharedTokens
}

// HostUsedBytes reports the storage demoted blocks occupy on the host.
func (t *Tiered) HostUsedBytes() float64 {
	return float64(t.tier.UsedBlocks()) * float64(t.gpu.BlockTokens) * t.gpu.BytesPerToken
}

// RestoreSeconds reports the host-link cost of one full prefix
// restore, as priced into the admission path.
func (t *Tiered) RestoreSeconds() float64 { return t.restoreS }

// Stats reports the wrapper's prefix-cache activity.
func (t *Tiered) Stats() TieredStats {
	c := t.tier.Counters()
	return TieredStats{
		Touches:   t.warmHits,
		Demotions: c.Demotions,
		Restores:  c.Restores,
		Evictions: c.Evictions,
	}
}
