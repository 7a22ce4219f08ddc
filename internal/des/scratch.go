package des

// Scratch is a reusable kernel arena: the slices and station shells
// (warmed buffers, request free lists included) of a finished kernel,
// ready to be adopted by the next one. Kernels are single-use (Run
// guards against reuse because stations carry run state), but a sweep
// runs thousands of points back-to-back on the same worker — without
// recycling, every point re-pays station, queue, and free-list warmup
// allocations that the previous point just released to the GC.
//
// Usage, per point:
//
//	k := des.New(cfg)
//	k.Reuse(scratch)   // before NewStation
//	... NewStation / Run ...
//	k.Release()        // when the Result has been read
//
// The arena may also hold a completion ledger: a Result.Finished its
// reader handed back with Recycle, which the next kernel records into
// instead of growing a new one.
//
// A Scratch is not concurrency-safe: use one per worker (or guard it
// externally). Recycled state never affects results — stations are
// fully reset on reuse, and every completion is written into the
// ledger before it is read — so a swept grid stays byte-identical
// with or without recycling.
type Scratch struct {
	stations []*Station
	gauges   []Gauge
	tree     eventTree
	done     []RequestStats
	pending  []transfer
}

// Reuse adopts the arena's buffers into k and earmarks it for
// Release. Must be called before the first NewStation; a nil scratch
// is a no-op.
func (k *Kernel) Reuse(sc *Scratch) {
	if sc == nil {
		return
	}
	k.scratch = sc
	k.gauges = sc.gauges[:0]
	k.tree = sc.tree[:0]
	k.done = sc.done[:0]
	k.pending = sc.pending[:0]
	sc.gauges, sc.tree, sc.done, sc.pending = nil, nil, nil, nil
}

// Release returns k's buffers and station shells to the Scratch
// passed to Reuse. Call it only after the Result is fully consumed:
// the per-station buffers are truncated for reuse (Result.Finished
// itself has left the kernel and stays valid until handed back with
// Recycle). Engine and allocator references are dropped so the arena
// cannot pin them. No-op without a prior Reuse.
func (k *Kernel) Release() {
	sc := k.scratch
	if sc == nil {
		return
	}
	k.scratch = nil
	for _, s := range k.stations {
		// Leftover run records (error paths abandon in-flight work)
		// go back on the free list with everything else.
		for _, r := range s.run {
			s.free = append(s.free, r)
		}
		s.run = s.run[:0]
		s.k, s.Engine, s.Alloc, s.disc, s.pv = nil, nil, nil, nil, nil
		s.win = nil // engine memo cells: the arena must not pin them
		sc.stations = append(sc.stations, s)
	}
	k.stations = nil
	sc.gauges = k.gauges[:0]
	sc.tree = k.tree[:0] // tree nodes hold no pointers
	sc.done = k.done[:0]
	sc.pending = k.pending[:0] // abandoned transfers hold no pointers
	k.gauges, k.tree, k.done, k.pending = nil, nil, nil, nil
}

// Recycle hands a run's ledger (Result.Finished) back to the arena
// once nothing reads it any more, so the next kernel to Reuse the
// arena records into it. The caller must not touch the ledger
// afterwards. The arena keeps whichever of the ledger and the buffer
// it holds is larger; a nil ledger, as a streamed run returns, changes
// nothing.
func (sc *Scratch) Recycle(ledger []RequestStats) {
	if cap(ledger) > cap(sc.done) {
		sc.done = ledger[:0]
	}
}
