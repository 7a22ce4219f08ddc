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
// A Scratch is not concurrency-safe: use one per worker (or guard it
// externally). Recycled state never affects results — stations are
// fully reset on reuse, and RequestStats leave the kernel by value —
// so a swept grid stays byte-identical with or without recycling.
type Scratch struct {
	stations []*Station
	due      []int
	awake    []int
	flushBuf []RequestStats
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
	k.due = sc.due[:0]
	k.awake = sc.awake[:0]
	k.flushBuf = sc.flushBuf[:0]
	k.pending = sc.pending[:0]
	sc.due, sc.awake, sc.flushBuf, sc.pending = nil, nil, nil, nil
}

// Release returns k's buffers and station shells to the Scratch
// passed to Reuse. Call it only after the Result is fully consumed:
// the per-station buffers are truncated for reuse (Result.Finished
// itself is freshly allocated by collect and stays valid). Engine and
// allocator references are dropped so the arena cannot pin them.
// No-op without a prior Reuse.
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
		s.Engine, s.Alloc, s.disc = nil, nil, nil
		s.pricer = pricer{} // drop the snapshot so the arena cannot pin engine memo arrays
		s.win = nil
		sc.stations = append(sc.stations, s)
	}
	k.stations = nil
	sc.due = k.due
	sc.awake = k.awake
	sc.flushBuf = k.flushBuf
	sc.pending = k.pending[:0] // abandoned transfers hold no pointers
	k.due, k.awake, k.flushBuf, k.pending = nil, nil, nil, nil
}
