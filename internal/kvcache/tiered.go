package kvcache

// Tiered KV offload: production serving stacks do not drop an evicted
// shared prefix's KV blocks — they demote them to host (CPU) memory
// and restore them over the PCIe/C2C link when the prefix is needed
// again, turning an expensive re-prefill into a cheap bulk copy.
// Tiered wires a host tier behind a PrefixPaged device allocator. The
// device holds one shared prefix, so the tier holds at most that one
// block group: it either fits the tier or is dropped on demotion, and
// nothing else ever competes for the tier's room. Its state is two
// booleans and the pending discount, so a warm demote/restore cycle
// allocates nothing.

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

// Tiered wraps a PrefixPaged device allocator with a host tier: when
// the last sequence referencing the shared prefix frees, the prefix's
// full blocks are demoted to the host tier instead of dropped (if they
// fit it), and the next sequence that re-materialises the prefix
// restores them over the host link — paying link seconds instead of
// re-prefill compute. Tiered implements PrefillDiscounter; serving
// admission (internal/des) charges the accrued restore seconds and
// skips prefill for the cached prefix tokens (a warm, still-resident
// prefix skips for free, exactly like PrefixPaged sharing — the tier
// only changes what happens after the reference count hits zero).
//
// Warm promote/demote/restore cycles allocate nothing (gated by
// TestTieredWarmCycleAllocs).
type Tiered struct {
	gpu *PrefixPaged

	// fits reports that the prefix has full blocks and the host tier
	// holds them all; a prefix that does not fit is dropped on
	// demotion, as it would be without a tier.
	fits bool
	// onHost reports that the prefix is demoted to the host tier now.
	onHost bool

	// restoreS is the precomputed cost of restoring the whole demoted
	// prefix (its full blocks over the host link); the prefix size is
	// fixed at construction.
	restoreS float64

	pendingSkip     int
	pendingRestoreS float64
}

// NewTiered wraps the device allocator with a host tier of
// hostCapacityBytes priced over link. The tier must hold at least one
// block; a prefix too large for it is dropped on demotion rather
// than rejected here.
func NewTiered(gpu *PrefixPaged, hostCapacityBytes float64, link HostLink) (*Tiered, error) {
	if gpu == nil {
		return nil, errors.New("kvcache: nil device allocator")
	}
	if err := link.Validate(); err != nil {
		return nil, err
	}
	blockBytes := float64(gpu.BlockTokens) * gpu.BytesPerToken
	capBlocks := int(hostCapacityBytes / blockBytes)
	if capBlocks < 1 {
		return nil, fmt.Errorf("kvcache: host tier of %g bytes holds no %d-token blocks", hostCapacityBytes, gpu.BlockTokens)
	}
	return &Tiered{
		gpu:      gpu,
		fits:     gpu.sharedBlocks > 0 && gpu.sharedBlocks <= capBlocks,
		restoreS: link.Seconds(float64(gpu.sharedBlocks) * blockBytes),
	}, nil
}

// Alloc implements Allocator. A warm prefix (still referenced on the
// device) or a restored one accrues a prefill discount: every full
// prefix block's tokens skip prefill, except the prompt's last token,
// which is always recomputed (its logits drive the first output). A
// truly cold prefix — absent from both tiers — is computed by this
// sequence's prefill, exactly as PrefixPaged prices it.
func (t *Tiered) Alloc(tokens int) (Seq, error) {
	cold := t.gpu.table.live == 0
	seq, err := t.gpu.Alloc(tokens)
	if err != nil {
		return 0, err
	}
	shared := t.gpu.sharedTokens
	if shared == 0 {
		return seq, nil
	}
	if cold {
		if !t.onHost {
			return seq, nil // first-ever reference: prefill computes the prefix
		}
		t.onHost = false
		t.pendingRestoreS += t.restoreS
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
	if t.gpu.release(seq) && t.fits {
		t.onHost = true
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
	if !t.onHost {
		return 0
	}
	return t.gpu.sharedTokens
}

// HostUsedBytes reports the storage demoted blocks occupy on the host.
func (t *Tiered) HostUsedBytes() float64 {
	if !t.onHost {
		return 0
	}
	return float64(t.gpu.sharedBlocks) * float64(t.gpu.BlockTokens) * t.gpu.BytesPerToken
}

// RestoreSeconds reports the host-link cost of one full prefix
// restore, as priced into the admission path.
func (t *Tiered) RestoreSeconds() float64 { return t.restoreS }
