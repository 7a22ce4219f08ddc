package engine

// Range pricing: every top-level metric this package produces is a sum
// of per-token decode-step costs, and for an immutable engine a step's
// cost depends only on (batch, context). This file prices single
// steps, raw step vectors and whole runs of consecutive steps —
// engine.Run's decode phase and the serving kernel's coalesced windows
// (internal/des) both sit on top of it.
//
// One table of prices per batch: the batch's master vector (stepVec)
// holds each step's seconds, balance·seconds product and roofline
// bound, and is the only place a decode step is priced for Run and the
// serving kernel (Explain prices its steps directly). Single steps
// (DecodeStepCost), vector views (DecodeStepVec) and ranges
// (DecodeRangeSeconds) all read it, so each distinct (batch, ctx) pair
// is evaluated once per engine lifetime and no warm read locks.
// Beside it the engine keeps one more memo, the prefill grid of
// PrefillSeconds (engine.go).
//
// Invariant: a range is summed in step order (ctxStart, ctxStart+1,
// …), exactly the order the step-by-step loops use, so range-priced
// results are byte-identical to stepped results — floating-point
// summation order is part of the contract, and the equivalence tests
// in this package, internal/sched, and internal/cluster guard it.
// DecodeRangeSeconds therefore folds the master's cells from its own
// anchor on every call rather than differencing a shared prefix, which
// would round differently.
//
// Concurrency: readers never lock. The memo tables live behind atomic
// pointers (costGrid); writers serialise on the engine's small build
// mutex, and a master grows in place by filling cells past the
// published count and release-storing the new count. Every fill runs
// under that mutex and re-checks what is already published, so no
// cell is priced twice, and step costs are pure functions of the
// immutable configuration, so the tables are deterministic.

import (
	"errors"
	"fmt"
	"math"
	"sync/atomic"

	"llmbench/internal/parallel"
	"llmbench/internal/pool"
	"llmbench/internal/quant"
	"llmbench/internal/roofline"
)

// --- lock-free memo grid -------------------------------------------------

// costGrid is a two-level lock-free memo table indexed by two small
// non-negative integers (batch-1, ctx-1). Reads are pure atomic loads;
// writes — including geometric growth of either level — happen under
// the owning engine's build mutex and publish fresh slices through
// atomic stores, so a reader either sees the old snapshot or the new
// one, never a partially-updated slot.
type costGrid[T any] struct {
	rows atomic.Pointer[[]atomic.Pointer[costRow[T]]]
}

type costRow[T any] struct {
	cells atomic.Pointer[[]atomic.Pointer[T]]
}

// get returns the entry at (r, c), or nil if it has not been built.
// Safe for concurrent use with no locking.
func (g *costGrid[T]) get(r, c int) *T {
	rows := g.rows.Load()
	if rows == nil || r >= len(*rows) {
		return nil
	}
	row := (*rows)[r].Load()
	if row == nil {
		return nil
	}
	cells := row.cells.Load()
	if cells == nil || c >= len(*cells) {
		return nil
	}
	return (*cells)[c].Load()
}

// put stores v at (r, c), growing either level geometrically. Callers
// must hold the owning engine's build mutex; concurrent readers are
// fine — growth copies the old slots into a fresh slice and publishes
// it atomically before the new entry lands.
func (g *costGrid[T]) put(r, c int, v *T) {
	rows := g.rows.Load()
	if rows == nil || r >= len(*rows) {
		n := r + 1
		if rows != nil && 2*len(*rows) > n {
			n = 2 * len(*rows)
		}
		grown := make([]atomic.Pointer[costRow[T]], n)
		if rows != nil {
			for i := range *rows {
				grown[i].Store((*rows)[i].Load())
			}
		}
		g.rows.Store(&grown)
		rows = &grown
	}
	row := (*rows)[r].Load()
	if row == nil {
		row = &costRow[T]{}
		(*rows)[r].Store(row)
	}
	cells := row.cells.Load()
	if cells == nil || c >= len(*cells) {
		n := c + 1
		if cells != nil && 2*len(*cells) > n {
			n = 2 * len(*cells)
		}
		grown := make([]atomic.Pointer[T], n)
		if cells != nil {
			for i := range *cells {
				grown[i].Store((*cells)[i].Load())
			}
		}
		row.cells.Store(&grown)
		cells = &grown
	}
	(*cells)[c].Store(v)
}

// StepCost is the memoised outcome of one decode step, the unit the
// serving simulators advance by when they coalesce iterations.
type StepCost struct {
	Seconds float64
	Bound   roofline.Bound
}

// DecodeStepCost returns the cost of one decode step at the given
// batch size and context length: one cell of the batch's master
// vector, priced on first use. Warm reads are lock-free.
func (e *Engine) DecodeStepCost(batch, ctx int) (StepCost, error) {
	if batch < 1 || ctx < 1 {
		return StepCost{}, errors.New("engine: non-positive batch or context")
	}
	v := e.masterFor(batch, ctx, ctx)
	i := ctx - v.base
	return StepCost{Seconds: v.seconds[i], Bound: roofline.Bound(v.bounds[i])}, nil
}

// --- per-batch master step vectors ---------------------------------------

// stepVec is one generation of a batch's master step table, the one
// priced copy of every decode step the engine has seen at that batch:
// cell i holds the step at context base+i — its seconds, its
// powerBalance·seconds product (the term DecodeRangeSeconds folds into
// BalanceSeconds) and its roofline bound — and n is the published cell
// count, so contexts [base, base+n) are covered. The arrays are
// allocated at full capacity (len == cap) and filled left-to-right;
// cells below n are immutable, cells at or above n are written only
// under the engine's build mutex and become visible through the
// release-acquire pair on n. Growing downward (a request below base)
// or past capacity publishes a fresh generation; old handles keep
// reading their generation unchanged.
//
// floor holds the float64 bits of a lower bound on every published
// cell: fillMaster lowers it before the release-store of n that
// publishes the new cells, and a re-base copies it into the fresh
// generation, so a reader that loads n and then floor sees a floor no
// greater than any cell below that n. The serving kernel keys an open
// window's event by it (internal/des).
//
// rise is the generation's rising certificate: the highest context
// whose cell is below its left neighbour (a descent), or 0 when there
// is none, so the cells from any context at or above rise are
// nondecreasing. It follows floor's publication order: fillMaster
// raises it — over the pairs the new cells join, including the
// (base−1, base) pair a downward re-base creates — before the
// release-store of n, and a re-base copies it, so a reader that loads
// n and then rise sees a certificate no lower than the highest descent
// below that n. It only rises, so a later load is still safe. The
// serving kernel's window commits read the longest step of a certified
// window off its last cell.
//
// One master per batch — rather than one vector per (batch, ctxStart)
// anchor — is what keeps a million-request run's allocations flat:
// a step's price is a pure function of (batch, ctx), so every window
// and every range at every anchor is a subslice of the same vector,
// and steady-state growth writes cells in place and bumps n.
type stepVec struct {
	base    int // context of cell 0; immutable per generation
	n       atomic.Int64
	floor   atomic.Uint64
	rise    atomic.Int64
	seconds []float64
	balSec  []float64 // powerBalance(step) · seconds
	bounds  []uint8   // roofline.Bound
}

// newStepVec allocates an empty generation of capacity c whose floor
// starts at +Inf, so the first fill sets it.
func newStepVec(base, c int) *stepVec {
	v := &stepVec{base: base, seconds: make([]float64, c), balSec: make([]float64, c), bounds: make([]uint8, c)}
	v.floor.Store(math.Float64bits(math.Inf(1)))
	return v
}

// priceFunc prices the decode step at one context of a batch: its
// seconds, its powerBalance·seconds product and its roofline bound.
type priceFunc func(ctx int) (seconds, balSec float64, bound uint8)

// fillMaster prices the cells for contexts [lo, hi] of v, one price
// call each: the master is the memo, so no context is ever priced
// twice. top is the end of the band the caller will publish, so a cell
// at hi+1 below top was written before (a downward re-base). Callers
// hold the build mutex. It lowers v's floor to the smallest cell it
// wrote and raises v's rising certificate over the pairs those cells
// join; the caller publishes the cells afterwards by storing n.
func fillMaster(v *stepVec, lo, hi, top int, price priceFunc) {
	floor := math.Float64frombits(v.floor.Load())
	for ctx := lo; ctx <= hi; ctx++ {
		sec, bal, bound := price(ctx)
		i := ctx - v.base
		v.seconds[i], v.balSec[i], v.bounds[i] = sec, bal, bound
		floor = min(floor, sec)
	}
	v.floor.Store(math.Float64bits(floor))
	v.rise.Store(int64(highestDescent(int(v.rise.Load()), v.seconds, v.base, lo, min(hi+1, top-1))))
}

// highestDescent raises the rising certificate rise to the highest
// context c in [lo, hi] whose cell is not at least its left
// neighbour's, where cells[i] holds context base+i (context base has no
// left neighbour). It scans down from hi and stops at rise, so a
// certificate already above the range costs nothing.
func highestDescent(rise int, cells []float64, base, lo, hi int) int {
	for c := hi; c >= lo && c > base && c > rise; c-- {
		if !(cells[c-base] >= cells[c-base-1]) {
			return c
		}
	}
	return rise
}

// masterFor returns the batch's master vector covering contexts
// [lo, hi], building or extending it on first use. Warm calls are
// lock-free: one grid read, one atomic length check.
func (e *Engine) masterFor(batch, lo, hi int) *stepVec {
	if v := e.vecs.get(batch-1, 0); v != nil && lo >= v.base && hi < v.base+int(v.n.Load()) {
		return v
	}
	e.buildMu.Lock()
	defer e.buildMu.Unlock()
	latest := e.vecs.get(batch-1, 0)
	v := growMaster(latest, lo, hi, func(ctx int) (float64, float64, uint8) {
		e.decodeEvals.Add(1)
		st := e.stepTerms(batch, ctx).cost()
		return st.Seconds, powerBalance(st) * st.Seconds, uint8(st.Bound)
	})
	if v != latest {
		e.vecs.put(batch-1, 0, v)
	}
	return v
}

// growMaster returns a generation of a batch's master covering
// contexts [lo, hi], given the batch's latest generation (nil before
// the first): latest itself when it already covers the band or grows
// in place, else a fresh generation the caller must publish. New cells
// come from price. Callers hold the build mutex.
func growMaster(latest *stepVec, lo, hi int, price priceFunc) *stepVec {
	if latest == nil {
		c := hi - lo + 1
		if c < 64 {
			c = 64
		}
		v := newStepVec(lo, c)
		fillMaster(v, lo, hi, hi+1, price)
		v.n.Store(int64(hi - lo + 1))
		return v
	}
	base, n := latest.base, int(latest.n.Load())
	if lo >= base && hi < base+n {
		return latest // a racer already covered the band
	}
	newBase, top := base, base+n // covered band becomes [newBase, top)
	if lo < newBase {
		newBase = lo
	}
	if hi+1 > top {
		top = hi + 1
	}
	if newBase != base || top-newBase > len(latest.seconds) {
		// Re-base and/or regrow: publish a fresh, fully-filled
		// generation. A re-base adds exactly the new low cells to the
		// old capacity; only upward overflow doubles it, which keeps
		// regrowth O(log band) per batch lifetime without a descending
		// anchor sequence doubling the vector once per step.
		c := len(latest.seconds)
		if top-base > c {
			c = top - base
			if 2*len(latest.seconds) > c {
				c = 2 * len(latest.seconds)
			}
		}
		c += base - newBase
		v := newStepVec(newBase, c)
		copy(v.seconds[base-newBase:], latest.seconds[:n])
		copy(v.balSec[base-newBase:], latest.balSec[:n])
		copy(v.bounds[base-newBase:], latest.bounds[:n])
		v.floor.Store(latest.floor.Load())
		v.rise.Store(latest.rise.Load())
		fillMaster(v, newBase, base-1, top, price)
		fillMaster(v, base+n, top-1, top, price)
		v.n.Store(int64(top - newBase))
		return v
	}
	// Upward growth within capacity: write the new cells in place,
	// then publish the count — the steady-state path, zero allocations.
	fillMaster(latest, base+n, top-1, top, price)
	latest.n.Store(int64(top - newBase))
	return latest
}

// RangeStats aggregates a run of consecutive decode steps at constant
// batch: steps at contexts ctxStart, ctxStart+1, …, ctxStart+steps-1,
// summed in that order.
type RangeStats struct {
	// Seconds is Σ step seconds.
	Seconds float64
	// BalanceSeconds is Σ powerBalance(step) · step seconds, the
	// time-weighted balance accumulator of the power model.
	BalanceSeconds float64
	// MaxStepSeconds is the longest single step in the range.
	MaxStepSeconds float64
	// LastBound is the binding resource of the final step.
	LastBound roofline.Bound
}

// DecodeRangeSeconds prices steps consecutive decode iterations of a
// batch whose context starts at ctxStart. steps may be 0 (an empty
// range). It folds the batch's master cells left to right from the
// anchor — Σ seconds, Σ balance·seconds and the running max — and
// takes the last cell's bound, so the result is byte-identical to
// calling DecodeStepCost step by step and accumulating. A warm call
// prices nothing and takes no lock: one master read plus O(steps)
// additions.
func (e *Engine) DecodeRangeSeconds(batch, ctxStart, steps int) (RangeStats, error) {
	if batch < 1 || ctxStart < 1 {
		return RangeStats{}, errors.New("engine: non-positive batch or context")
	}
	if steps < 0 {
		return RangeStats{}, fmt.Errorf("engine: negative step count %d", steps)
	}
	if steps == 0 {
		return RangeStats{}, nil
	}
	m := e.masterFor(batch, ctxStart, ctxStart+steps-1)
	off := ctxStart - m.base
	bal := m.balSec[off : off+steps]
	var r RangeStats
	for i, s := range m.seconds[off : off+steps] {
		r.Seconds += s
		r.BalanceSeconds += bal[i]
		if s > r.MaxStepSeconds {
			r.MaxStepSeconds = s
		}
	}
	r.LastBound = roofline.Bound(m.bounds[off+steps-1])
	return r, nil
}

// StepVec is a shared view of a batch's master step-cost vector,
// anchored at the ctxStart it was requested for — the per-station
// pricing handle of the serving kernel caches one of these so its
// steady-state window advance touches no engine state at all. The
// view's length only ever grows (any station may extend the master in
// place); cells below the length are immutable.
type StepVec struct {
	vec *stepVec
	off int // anchor's offset into the generation's cells
}

// Len reports how many steps the view currently covers.
func (v StepVec) Len() int {
	if v.vec == nil {
		return 0
	}
	n := int(v.vec.n.Load()) - v.off
	if n < 0 {
		n = 0
	}
	return n
}

// Seconds returns the view's per-step costs: entry i is the cost of
// the decode step at context ctxStart+i. The slice is shared and must
// be treated as immutable.
func (v StepVec) Seconds() []float64 {
	if v.vec == nil {
		return nil
	}
	return v.vec.seconds[v.off:v.vec.n.Load()]
}

// Floor returns a lower bound on every step cost of the batch's master
// vector: no greater than any cell of Seconds read before it. The
// bound only falls as the vector grows, and is 0 for an empty view.
func (v StepVec) Floor() float64 {
	if v.vec == nil {
		return 0
	}
	return math.Float64frombits(v.vec.floor.Load())
}

// Rise returns the batch master's rising certificate: the highest
// context whose step cost is below its left neighbour's, or 0 when
// there is none. Every cell of Seconds read before it at a context
// above Rise() is at least the cell before it, so a window of the view
// starting at or above Rise() is nondecreasing and has its longest
// step last. It only rises as the vector grows, and is 0 for an empty
// view.
func (v StepVec) Rise() int {
	if v.vec == nil {
		return 0
	}
	return int(v.vec.rise.Load())
}

// DecodeStepVec returns a view of the batch's master step-cost vector
// anchored at ctxStart, grown to cover at least steps entries. Warm
// calls are lock-free.
func (e *Engine) DecodeStepVec(batch, ctxStart, steps int) (StepVec, error) {
	if batch < 1 || ctxStart < 1 {
		return StepVec{}, errors.New("engine: non-positive batch or context")
	}
	if steps < 0 {
		return StepVec{}, fmt.Errorf("engine: negative step count %d", steps)
	}
	if steps == 0 {
		steps = 1 // a view handle always covers at least one step
	}
	v := e.masterFor(batch, ctxStart, ctxStart+steps-1)
	return StepVec{vec: v, off: ctxStart - v.base}, nil
}

// --- process-wide engine cache -------------------------------------------

// cache is the one engine cache in the process: the root llmbench
// package (Run, Sweep) and internal/experiments both build through it,
// so a figure and an ad-hoc sweep of the same system share one engine
// and one step-cost table.
var cache pool.Cache[Config, *Engine]

// cacheKey maps equivalent Config spellings to one entry, mirroring
// the normalisation New applies (zero Plan means single-device, zero
// Scheme means fp16/fp16).
func cacheKey(cfg Config) Config {
	if cfg.Plan == (parallel.Plan{}) {
		cfg.Plan = parallel.Single
	}
	if cfg.Scheme == (quant.Scheme{}) {
		cfg.Scheme = quant.FP16
	}
	return cfg
}

// Cached returns the shared engine for cfg, building it on first use.
// Component pointers are part of the key, so catalog-backed configs
// (internal/model, internal/hw, internal/framework getters return
// canonical pointers) dedupe across every caller in the process; use
// New directly for ad-hoc private instances.
func Cached(cfg Config) (*Engine, error) {
	key := cacheKey(cfg)
	return cache.Get(key, func() (*Engine, error) { return New(key) })
}

// CachedCount reports how many engines the process-wide cache holds.
func CachedCount() int { return cache.Len() }
