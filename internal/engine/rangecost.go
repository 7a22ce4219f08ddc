package engine

// Range pricing: every top-level metric this package produces is a sum
// of per-token decode-step costs, and for an immutable engine a step's
// cost depends only on (batch, context). This file keeps the one table
// of those prices and its readers — engine.Run's decode phase and the
// serving kernel's coalesced windows (internal/des) both sit on top of
// it.
//
// One table of prices per batch: the batch's master vector (stepVec)
// holds each step's seconds, balance·seconds product and roofline
// bound, and is the only place a decode step is priced for Run and the
// serving kernel (Explain prices its steps directly). It has three
// readers: single steps (DecodeStepSeconds, engine.go), runs of steps
// (DecodeStepVec, whose cells are a serving window's costs) and Run's
// decode fold (decodeRange), so each distinct (batch, ctx) pair is
// evaluated once per engine lifetime and no warm read locks. Beside it
// the engine keeps one more memo, the prefill grid of PrefillSeconds
// (engine.go). These two memos are the only cache of a price: the
// serving kernel and the experiments read them on every window and
// every point, and keep no copy of their own.
//
// Invariant: a range is summed in step order (ctxStart, ctxStart+1,
// …), exactly the order the step-by-step loops use, so range-priced
// results are byte-identical to stepped results — floating-point
// summation order is part of the contract, and the equivalence tests
// in this package, internal/sched, and internal/cluster guard it.
// decodeRange therefore folds the master's cells from its own anchor
// on every call rather than differencing a shared prefix, which would
// round differently.
//
// Concurrency: readers never lock. The memo tables live behind atomic
// pointers (costRow, costGrid); writers serialise on the engine's
// small build mutex, and a master grows in place by filling cells past
// the published count and release-storing the new count. Every fill
// runs under that mutex and re-checks what is already published, so
// no cell is priced twice, and step costs are pure functions of the
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

// --- lock-free memo tables -----------------------------------------------

// costRow is a lock-free memo table indexed by one small non-negative
// integer. Reads are pure atomic loads; writes — including geometric
// growth — happen under the owning engine's build mutex and publish a
// fresh slice through an atomic store, so a reader either sees the old
// snapshot or the new one, never a partially-updated slot.
type costRow[T any] struct {
	cells atomic.Pointer[[]atomic.Pointer[T]]
}

// get returns the entry at i, or nil if it has not been built. Safe
// for concurrent use with no locking.
func (r *costRow[T]) get(i int) *T {
	cells := r.cells.Load()
	if cells == nil || i >= len(*cells) {
		return nil
	}
	return (*cells)[i].Load()
}

// put stores v at i, growing the table geometrically. Callers must
// hold the owning engine's build mutex; concurrent readers are fine —
// growth copies the old slots into a fresh slice and publishes it
// atomically before the new entry lands.
func (r *costRow[T]) put(i int, v *T) {
	cells := r.cells.Load()
	if cells == nil || i >= len(*cells) {
		n := i + 1
		if cells != nil && 2*len(*cells) > n {
			n = 2 * len(*cells)
		}
		grown := make([]atomic.Pointer[T], n)
		if cells != nil {
			for j := range *cells {
				grown[j].Store((*cells)[j].Load())
			}
		}
		r.cells.Store(&grown)
		cells = &grown
	}
	(*cells)[i].Store(v)
}

// costGrid is a two-level lock-free memo table indexed by two small
// non-negative integers: a costRow of costRows, with the same
// concurrency contract at each level.
type costGrid[T any] struct {
	rows costRow[costRow[T]]
}

// get returns the entry at (r, c), or nil if it has not been built.
func (g *costGrid[T]) get(r, c int) *T {
	row := g.rows.get(r)
	if row == nil {
		return nil
	}
	return row.get(c)
}

// put stores v at (r, c), creating row r on first use. Callers must
// hold the owning engine's build mutex.
func (g *costGrid[T]) put(r, c int, v *T) {
	row := g.rows.get(r)
	if row == nil {
		row = &costRow[T]{}
		g.rows.put(r, row)
	}
	row.put(c, v)
}

// --- per-batch master step vectors ---------------------------------------

// stepVec is one generation of a batch's master step table, the one
// priced copy of every decode step the engine has seen at that batch:
// cell i holds the step at context base+i — its seconds, its
// powerBalance·seconds product (the term decodeRange folds into Run's
// power balance) and its roofline bound — and n is the published cell
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
// lock-free: one table read, one atomic length check.
func (e *Engine) masterFor(batch, lo, hi int) *stepVec {
	if v := e.vecs.get(batch - 1); v != nil && lo >= v.base && hi < v.base+int(v.n.Load()) {
		return v
	}
	e.buildMu.Lock()
	defer e.buildMu.Unlock()
	latest := e.vecs.get(batch - 1)
	v := growMaster(latest, lo, hi, func(ctx int) (float64, float64, uint8) {
		e.decodeEvals.Add(1)
		st := e.stepTerms(batch, ctx).cost()
		return st.Seconds, powerBalance(st) * st.Seconds, uint8(st.Bound)
	})
	if v != latest {
		e.vecs.put(batch-1, v)
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

// decodeRange folds steps consecutive decode iterations of a batch
// whose context starts at ctxStart: Run's decode phase. It sums the
// batch's master cells left to right from the anchor — seconds and
// balance·seconds — and takes the last cell's bound, so the result is
// byte-identical to accumulating DecodeStepSeconds step by step. Zero
// steps give all zeros. A warm call prices nothing and takes no lock:
// one master read plus O(steps) additions. Callers pass batch,
// ctxStart ≥ 1 and steps ≥ 0.
func (e *Engine) decodeRange(batch, ctxStart, steps int) (sec, balSec float64, last roofline.Bound) {
	if steps == 0 {
		return 0, 0, 0
	}
	m := e.masterFor(batch, ctxStart, ctxStart+steps-1)
	off := ctxStart - m.base
	bal := m.balSec[off : off+steps]
	for i, s := range m.seconds[off : off+steps] {
		sec += s
		balSec += bal[i]
	}
	return sec, balSec, roofline.Bound(m.bounds[off+steps-1])
}

// StepVec is the price of a run of consecutive decode steps of one
// batch, read off the batch's master table.
type StepVec struct {
	// Seconds holds one cell per step: entry i is the cost of the
	// decode step at context ctxStart+i. It is shared with every other
	// reader of the master and must never be written.
	Seconds []float64
	// Floor is a lower bound on every cell of Seconds (on every cell
	// of the batch's master when it was read).
	Floor float64
	// Rise is the batch master's rising certificate when Seconds was
	// read: the highest context whose step cost is below its left
	// neighbour's, or 0 when there is none. The cells of Seconds at
	// contexts from Rise on are nondecreasing, so a run starting at or
	// above Rise has its longest step last.
	Rise int
}

// DecodeStepVec prices steps consecutive decode steps of a batch whose
// context starts at ctxStart, pricing any cell the batch's master does
// not hold yet. Zero steps give the zero StepVec. Warm calls are
// lock-free and allocate nothing.
func (e *Engine) DecodeStepVec(batch, ctxStart, steps int) (StepVec, error) {
	if batch < 1 || ctxStart < 1 {
		return StepVec{}, errors.New("engine: non-positive batch or context")
	}
	if steps < 0 {
		return StepVec{}, fmt.Errorf("engine: negative step count %d", steps)
	}
	if steps == 0 {
		return StepVec{}, nil
	}
	m := e.masterFor(batch, ctxStart, ctxStart+steps-1)
	off := ctxStart - m.base
	// masterFor has loaded (or published) the count that covers these
	// cells, so the floor and certificate loaded after it hold for them.
	return StepVec{
		Seconds: m.seconds[off : off+steps : off+steps],
		Floor:   math.Float64frombits(m.floor.Load()),
		Rise:    int(m.rise.Load()),
	}, nil
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
