package des

// Per-station window pricing. The engine's step-cost memo is already
// lock-free on warm reads (internal/engine, rangecost.go); the pricer
// is the layer above it: each station caches the current (batch,
// ctxStart) step-vector snapshot, so the steady-state window advance —
// successive windows of the same batch walking forward in context —
// is served from a station-local slice view and touches no engine
// state at all. Step costs are pure functions of (batch, ctx), so a
// snapshot anchored anywhere serves any window that lies inside it;
// the cache is invalidated only by a batch change, which re-anchors.
//
// The pricer is plain station-local state: recycled through
// des.Scratch with the station shell and cleared on reset/Release so
// the arena cannot pin engine memo arrays between runs.

import (
	"llmbench/internal/engine"
	"llmbench/internal/kvcache"
)

// pricer caches one immutable step-vector snapshot per station.
type pricer struct {
	batch    int
	ctxStart int
	vec      engine.StepVec
}

// window returns the per-step costs of n consecutive decode steps at
// (batch, ctx0): entry i is the step cost at context ctx0+i. The
// returned slice is a shared immutable snapshot view; a warm call is a
// bounds check and a reslice.
func (p *pricer) window(eng *engine.Engine, batch, ctx0, n int) ([]float64, error) {
	if batch == p.batch && ctx0 >= p.ctxStart {
		off := ctx0 - p.ctxStart
		if off+n <= p.vec.Len() {
			return p.vec.Seconds()[off : off+n], nil
		}
		// Same anchor, longer reach: grow the anchored snapshot (a
		// lock-free read when any station already grew it this far).
		v, err := eng.DecodeStepVec(batch, p.ctxStart, off+n)
		if err != nil {
			return nil, err
		}
		p.vec = v
		return v.Seconds()[off : off+n], nil
	}
	v, err := eng.DecodeStepVec(batch, ctx0, n)
	if err != nil {
		return nil, err
	}
	p.batch, p.ctxStart, p.vec = batch, ctx0, v
	return v.Seconds()[:n], nil
}

// step returns the cost of the single decode step at (batch, ctx),
// from the cached snapshot when it covers the position.
func (p *pricer) step(eng *engine.Engine, batch, ctx int) (float64, error) {
	if batch == p.batch && ctx >= p.ctxStart {
		if off := ctx - p.ctxStart; off < p.vec.Len() {
			return p.vec.Seconds()[off], nil
		}
	}
	c, err := eng.DecodeStepCost(batch, ctx)
	if err != nil {
		return 0, err
	}
	return c.Seconds, nil
}

// coalesce bounds and prices one coalesced run of identical decode
// iterations; see CoalesceWindow for the contract.
func (p *pricer) coalesce(eng *engine.Engine, alloc kvcache.Allocator, seqs []kvcache.Seq,
	batch, ctx0, kMax int, now, nextArrival float64) ([]float64, error) {
	if kMax > 1 {
		if k := alloc.MaxExtendSteps(seqs, kMax); k < kMax {
			// The KV pool runs dry inside the window: fast-forward to
			// the last iteration that fits, then let the reference
			// path take the preemption (or OOM) at the boundary.
			kMax = k
		}
	}
	if kMax < 2 {
		return nil, nil
	}
	end := now
	var costs []float64
	for taken := 0; taken < kMax; {
		n := kMax - taken
		if nextArrival >= 0 {
			// An arrival will cut the window; pricing all kMax steps
			// up front would waste memo walks on steps never reached
			// (quadratic under dense arrivals). Estimate the cut from
			// the next step's cost — plus slack for cost drift — and
			// let the outer loop continue if the estimate fell short.
			c0, err := p.step(eng, batch, ctx0+taken)
			if err != nil {
				return nil, err
			}
			if c0 > 0 {
				if est := int((nextArrival-end)/c0) + 2; est < n {
					n = est
				}
			}
			if n < 1 {
				n = 1
			}
		}
		var err error
		costs, err = p.window(eng, batch, ctx0, taken+n)
		if err != nil {
			return nil, err
		}
		for i := taken; i < taken+n; i++ {
			end += costs[i]
			if nextArrival >= 0 && end >= nextArrival {
				// A request lands inside the window: it is admitted
				// at the first iteration boundary at or after its
				// arrival, so this step is the window's last.
				return costs[:i+1], nil
			}
		}
		taken += n
	}
	return costs[:kMax], nil
}

// CoalesceWindow bounds and prices one coalesced run of identical
// decode iterations: batch sequences whose mean context starts at
// ctx0, each growing one token per step. kMax must already be bounded
// by the earliest completion in the batch; the allocator bound
// (kvcache.MaxExtendSteps over seqs) and the next-arrival cut are
// applied here. nextArrival < 0 means no future arrival is pending.
//
// The returned slice is a view of a shared immutable engine snapshot —
// read-only for the caller. An empty result means the state does not
// admit a fast-forward of at least one full iteration beyond the
// current one, and the caller must fall back to its one-step reference
// path (which also handles preemption). The caller advances its clock
// by adding the returned costs one at a time, in order — that keeps
// coalesced time byte-identical to stepped time.
//
// Stations route this through their cached pricing handle; the
// standalone form prices through a throwaway handle and is retained
// for the window-bound tests.
func CoalesceWindow(eng *engine.Engine, alloc kvcache.Allocator, seqs []kvcache.Seq,
	batch, ctx0, kMax int, now, nextArrival float64) ([]float64, error) {
	var p pricer
	return p.coalesce(eng, alloc, seqs, batch, ctx0, kMax, now, nextArrival)
}
