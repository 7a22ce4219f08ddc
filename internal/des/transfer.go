package des

import (
	"errors"
	"fmt"
	"math"
	"sort"

	"llmbench/internal/workload"
)

// Role assigns a station to a pool in a disaggregated topology. The
// zero value (RoleBoth) is the aggregated default: the station runs a
// request's prefill and decode phases back to back, exactly as every
// station did before pool roles existed.
type Role uint8

const (
	// RoleBoth runs both phases on one station (aggregated).
	RoleBoth Role = iota
	// RolePrefill runs only prompt prefills; each completed prefill
	// hands its KV blocks to the decode pool via a kv-transfer event.
	RolePrefill
	// RoleDecode runs only decode sub-requests delivered by
	// kv-transfer events.
	RoleDecode
)

func (r Role) String() string {
	switch r {
	case RolePrefill:
		return "prefill"
	case RoleDecode:
		return "decode"
	}
	return "both"
}

// ErrBadTransfer marks kv-transfer pricing that cannot produce finite
// positive transfer times: zero, negative, NaN, or infinite bandwidth
// or latency would yield Inf/NaN event timestamps that break the
// event clock (and would slip past SLO folding as "fast" points).
var ErrBadTransfer = errors.New("des: invalid kv-transfer pricing")

// TransferCost prices kv-transfer events — the hand-off of a
// completed prefill sub-request's KV blocks from a prefill-pool
// station to the decode pool.
type TransferCost struct {
	// BlockTokens is the paged-KV block granularity: transfers move
	// whole blocks, so the wire size rounds the prompt up to it.
	BlockTokens int
	// BytesPerToken is the model's per-token KV footprint in bytes.
	BytesPerToken float64
	// GBPerS is the pool interconnect bandwidth in GB/s
	// (hw.Device.InterconnectGBs).
	GBPerS float64
	// LatencyS is the per-transfer latency floor in seconds
	// (hw.Device.InterconnectLatencyUS × 1e-6).
	LatencyS float64
}

// Validate rejects pricing that would produce non-positive or
// non-finite transfer times. Each failure wraps ErrBadTransfer.
func (t TransferCost) Validate() error {
	if t.BlockTokens < 1 {
		return fmt.Errorf("%w: BlockTokens %d (want ≥ 1)", ErrBadTransfer, t.BlockTokens)
	}
	// The negated comparisons also reject NaN, which `x <= 0` lets
	// through.
	if !(t.BytesPerToken > 0) || math.IsInf(t.BytesPerToken, 0) {
		return fmt.Errorf("%w: BytesPerToken %v (want positive and finite)", ErrBadTransfer, t.BytesPerToken)
	}
	if !(t.GBPerS > 0) || math.IsInf(t.GBPerS, 0) {
		return fmt.Errorf("%w: GBPerS %v (want positive and finite)", ErrBadTransfer, t.GBPerS)
	}
	if !(t.LatencyS > 0) || math.IsInf(t.LatencyS, 0) {
		return fmt.Errorf("%w: LatencyS %v (want positive and finite)", ErrBadTransfer, t.LatencyS)
	}
	return nil
}

// Seconds prices one transfer: the prompt's KV rounded up to whole
// blocks over the interconnect, plus the per-message latency.
func (t TransferCost) Seconds(tokens int) float64 {
	blocks := (tokens + t.BlockTokens - 1) / t.BlockTokens
	return float64(blocks*t.BlockTokens)*t.BytesPerToken/(t.GBPerS*1e9) + t.LatencyS
}

// transfer is an in-flight kv-transfer: a decode sub-request together
// with its lifecycle so far (arrival, prefill timing, transfer
// delay), due for delivery to a decode-pool station at time at. The
// request's Arrival is rewritten to the delivery instant so decode
// queues stay sorted by effective arrival; the original arrival
// survives in stats.
type transfer struct {
	at    float64
	req   workload.Request
	stats RequestStats
}

// insertPending inserts a transfer into the kernel's pending delivery
// queue, keeping it sorted by (delivery time, request ID) — the
// documented tie order for simultaneous deliveries. Like
// Station.enqueue, the popped prefix is compacted before the append
// would grow the array, so steady state reuses one backing array.
func (k *Kernel) insertPending(x transfer) {
	if k.phead > 0 && len(k.pending) == cap(k.pending) {
		n := copy(k.pending, k.pending[k.phead:])
		k.pending, k.phead = k.pending[:n], 0
	}
	live := k.pending[k.phead:]
	i := sort.Search(len(live), func(i int) bool {
		if live[i].at != x.at {
			return live[i].at > x.at
		}
		return live[i].req.ID > x.req.ID
	})
	k.pending = append(k.pending, transfer{})
	live = k.pending[k.phead:]
	copy(live[i+1:], live[i:])
	live[i] = x
}
