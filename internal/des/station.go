package des

import (
	"errors"
	"fmt"
	"sort"

	"llmbench/internal/engine"
	"llmbench/internal/kvcache"
	"llmbench/internal/workload"
)

// Station is one replica simulator: an engine, a private KV
// allocator, a FIFO admission queue, and a running set. The kernel
// owns its event timing; the policy layers only route requests to it
// and read its load.
type Station struct {
	ID     int
	Engine *engine.Engine
	Alloc  kvcache.Allocator

	// disc is Alloc's prefix-cache view when it has one (asserted once
	// at NewStation): after each admission Alloc the station drains the
	// accrued prefill discount — cached prefix tokens that skip prefill
	// compute, plus host-link restore seconds to charge instead. nil
	// for plain allocators, which keeps every discount branch dead and
	// the float trajectory bit-identical to pre-tier kernels.
	disc kvcache.PrefillDiscounter

	// Retired marks a station drained by the autoscaler. The kernel
	// itself ignores the flag — a retired station is empty and the
	// router stops picking it, so it simply never wakes again (and the
	// kernel's awake set stops scanning it at barriers).
	Retired bool

	cfg Config

	// queue is the admission queue; the live entries are
	// queue[qhead:]. Popping advances qhead instead of reslicing, so
	// the backing array's capacity survives a million pops — the
	// allocation that used to dominate enqueue.
	queue []queued
	qhead int

	run []*runReq

	nextAt   float64 // next window-exhausted event; < 0 when idle
	busy     float64 // time spent executing iterations
	maxIter  float64 // longest single iteration
	lastDone float64 // end of this station's last completed work
	done     int
	preempts int

	// hitToks and promptToks accumulate the prefix-cache hit rate:
	// prompt tokens admitted and the subset served from the cache.
	// Counted only when disc is non-nil, and only for prompt-phase
	// admissions (decode sub-requests were prefilled elsewhere).
	hitToks    int
	promptToks int

	// finished holds completion records not yet handed off;
	// finished[finHead:] is the unflushed suffix when a Sink drains
	// the buffer at barriers (finHead stays 0 on ledgered runs).
	finished []RequestStats
	finHead  int

	err   error
	errAt float64

	// awake marks membership in the kernel's awake set (kernel-owned;
	// guards against double registration).
	awake bool

	// win is the open coalesced window: the per-step costs of its
	// decode iterations (a view of an immutable engine snapshot),
	// starting at winAt. Nothing in it is applied until it commits —
	// whole at its last step's start (nextAt), or in part when a
	// delivery cuts it (cut). winEnd, winBusy and winMax are the
	// uncut commit's end time, busy total and longest step, summed
	// once when the window opens. Empty when no window is open.
	win     []float64
	winAt   float64
	winEnd  float64
	winBusy float64
	winMax  float64

	// windows, steps and cuts count coalesced windows opened, decode
	// iterations executed (coalesced or stepped) and open windows cut
	// by a delivery; Kernel.Counts sums them.
	windows, steps, cuts int

	seqs     []kvcache.Seq // reused sequence-handle buffer
	decoding []*runReq     // reused chunked-mode partition buffer
	admitted []*runReq     // reused admission / static-batch buffer
	free     []*runReq     // recycled request records
	slab     []runReq      // bump-allocation backing for fresh records

	// pricer is the station's cached pricing handle: the current
	// (batch, ctxStart) step-vector snapshot, so steady-state window
	// advance reads a station-local slice instead of engine state.
	// Cleared on reset and Release so a recycled shell cannot pin
	// engine memo arrays.
	pricer pricer

	// role is the station's pool assignment (RoleBoth when
	// aggregated); see NewPoolStation.
	role Role
	// xfers parks kv-transfers generated during the current barrier
	// for serial kernel pickup (collectTransfers) after the join —
	// stations never touch shared state mid-barrier.
	xfers       []transfer
	transferred int
}

// queued is a waiting request; preempted counts prior evictions so
// the lifecycle stats survive a requeue.
type queued struct {
	req       workload.Request
	preempted int
	// decode marks a decode-phase sub-request delivered by a
	// kv-transfer event; carry is its lifecycle so far (original
	// arrival, prefill timing, transfer delay), resumed on admission.
	decode bool
	carry  RequestStats
}

// runReq is an admitted request in flight. Records are drawn from the
// station's free list (or slab-allocated in batches) and recycled at
// completion and preemption, so steady-state admission allocates
// nothing; stats is embedded by value for the same reason.
type runReq struct {
	req            workload.Request
	seq            kvcache.Seq // live KV reservation handle
	generated      int
	pendingPrefill int // prompt tokens not yet prefilled (chunked mode)
	prefillSkip    int // prompt tokens served from the prefix cache
	stats          RequestStats
}

// reqSlabLen is how many records one slab allocation provides while
// the free list warms up.
const reqSlabLen = 64

// getReq takes a recycled (or slab-fresh) record and initialises it
// for an admission at time now.
func (s *Station) getReq(q queued, now float64) *runReq {
	var r *runReq
	if n := len(s.free); n > 0 {
		r = s.free[n-1]
		s.free = s.free[:n-1]
	} else {
		if len(s.slab) == 0 {
			s.slab = make([]runReq, reqSlabLen)
		}
		r = &s.slab[0]
		s.slab = s.slab[1:]
	}
	*r = runReq{
		req: q.req,
		stats: RequestStats{
			ID: q.req.ID, Input: q.req.Input, Output: q.req.Output,
			Arrival: q.req.Arrival, Started: now, Preempted: q.preempted,
		},
	}
	if q.decode {
		// Decode sub-request: resume the carried lifecycle — original
		// arrival, prefill timing, transfer delay — with the prompt
		// already prefilled on the prefill pool (first token emitted
		// there, so generated starts at 1).
		r.stats = q.carry
		r.generated = 1
	}
	return r
}

// putReq recycles a record whose lifecycle ended (completion or
// preemption). The caller must not touch it afterwards.
func (s *Station) putReq(r *runReq) { s.free = append(s.free, r) }

// reset returns a recycled station shell to its just-created state,
// keeping the warmed buffers and free list.
func (s *Station) reset() {
	s.Retired = false
	s.queue = s.queue[:0]
	s.qhead = 0
	s.run = s.run[:0]
	s.nextAt = -1
	s.busy, s.maxIter, s.lastDone = 0, 0, 0
	s.done, s.preempts = 0, 0
	s.disc = nil
	s.hitToks, s.promptToks = 0, 0
	s.finished = s.finished[:0]
	s.finHead = 0
	s.err, s.errAt = nil, 0
	s.awake = false
	s.win = nil
	s.windows, s.steps, s.cuts = 0, 0, 0
	s.pricer = pricer{}
	s.role = RoleBoth
	s.xfers = s.xfers[:0]
	s.transferred = 0
}

// queueLen is the number of live queued requests.
func (s *Station) queueLen() int { return len(s.queue) - s.qhead }

// popHead removes and returns the queue's head.
func (s *Station) popHead() queued {
	q := s.queue[s.qhead]
	s.qhead++
	if s.qhead == len(s.queue) {
		s.queue, s.qhead = s.queue[:0], 0
	}
	return q
}

// Outstanding is the station's queued plus running request count —
// the load signal the routing and scaling policies read at arrival
// barriers.
func (s *Station) Outstanding() int { return s.queueLen() + len(s.run) }

// PendingPrefillTokens is the prompt-token backlog still chunking
// through this station's fused prefill slot (always 0 outside chunked
// mode). Routers use it to tell a materialized prefix cache from one
// still being established: prefix blocks score hot the moment they
// allocate, but until the establishing prompt finishes its slices,
// co-located requests ride iterations inflated by them. A bounded
// scan of the running set — O(MaxBatch), allocation-free — read at
// the arrival barrier like Outstanding.
func (s *Station) PendingPrefillTokens() int {
	pending := 0
	for _, r := range s.run {
		pending += r.pendingPrefill
	}
	return pending
}

// Role reports the station's pool assignment.
func (s *Station) Role() Role { return s.role }

// enqueue inserts a request keeping the queue sorted by effective
// arrival time (FIFO among equals). The router delivers arrivals in
// time order, so this is almost always an append — except when a
// preempted request was requeued with an eviction time that lands
// beyond a not-yet-routed arrival: admission order must follow
// effective arrival, not delivery order.
func (s *Station) enqueue(q queued) {
	if s.qhead > 0 && len(s.queue) == cap(s.queue) {
		// Reclaim the popped prefix before append would grow the
		// array: steady state then reuses one backing array forever.
		n := copy(s.queue, s.queue[s.qhead:])
		s.queue, s.qhead = s.queue[:n], 0
	}
	live := s.queue[s.qhead:]
	i := sort.Search(len(live), func(i int) bool { return live[i].req.Arrival > q.req.Arrival })
	s.queue = append(s.queue, queued{})
	live = s.queue[s.qhead:]
	copy(live[i+1:], live[i:])
	live[i] = q
}

// advance runs the station's due events up to (strictly before) the
// barrier. Everything it touches is station-local or immutable, so
// concurrent advances of different stations are race-free.
func (s *Station) advance(barrier float64) {
	for s.err == nil && s.nextAt >= 0 && s.nextAt < barrier {
		now := s.nextAt
		end, err := s.step(now)
		if err != nil {
			s.err, s.errAt = err, now
			return
		}
		if len(s.run) == 0 && s.queueLen() == 0 {
			s.nextAt = -1 // idle; an arrival wakes the station
			return
		}
		if end <= now {
			// Work remains but the clock did not move: the event loop
			// would spin. Cannot happen with positive step costs;
			// guard it instead of hanging.
			s.err, s.errAt = fmt.Errorf("des: station %d stalled at t=%g", s.ID, now), now
			return
		}
		s.nextAt = end
	}
}

// cut closes the open window, if any, because a request was just
// delivered to the station at t: the first j steps — up to the first
// step boundary at or after t, where the delivered request is
// admitted — are applied and the station's next event moves to that
// boundary. The kernel only delivers at t after advancing every event
// before t, so the window's last step starts at or after t: j is
// below the window length and a cut never completes a request.
// Called on the kernel's goroutine between barriers.
func (s *Station) cut(t float64) {
	if len(s.win) == 0 {
		return
	}
	end := s.winAt
	for j, c := range s.win {
		if c > s.maxIter {
			s.maxIter = c
		}
		end += c
		s.busy += c
		if end >= t {
			s.cuts++
			s.nextAt = end
			if err := s.commit(j+1, end); err != nil {
				s.err, s.errAt = err, t
			}
			return
		}
	}
}

// commit applies k decode steps of the open window, ending at end,
// to the running set and closes the window; the caller has already
// charged their busy and maxIter. One batched Extend to each final
// context: headroom was verified for the whole window, so none of
// these can OOM, and the allocator lands in the same state as k
// single-token extends.
func (s *Station) commit(k int, end float64) error {
	s.win = nil
	s.steps += k
	next := s.run[:0]
	for _, r := range s.run {
		r.generated += k
		if s.cfg.Preemptive {
			// Preemptive bookkeeping extends before the completion
			// check, exactly as its stepped path does: the completing
			// step still grows the reservation.
			if err := s.Alloc.Extend(r.seq, r.req.Input+r.generated); err != nil {
				return err
			}
			if r.generated >= r.req.Output {
				s.finish(r, end)
				continue
			}
		} else {
			if r.generated >= r.req.Output {
				s.finish(r, end)
				continue
			}
			if err := s.Alloc.Extend(r.seq, r.req.Input+r.generated); err != nil {
				return err
			}
		}
		next = append(next, r)
	}
	s.run = next
	return nil
}

// step runs one window-exhausted event at time now: admission from
// the queue head, then either a single reference iteration or the
// opening of a coalesced window over every identical decode iteration
// up to the next state change. An open window applies nothing yet: it
// returns the start of its last step as the event time, and the step
// that runs there commits the whole window (see cut for the early
// commit on a delivery). It returns the event's end time (== now when
// the station stays idle).
func (s *Station) step(now float64) (float64, error) {
	if len(s.win) > 0 {
		if s.winMax > s.maxIter {
			s.maxIter = s.winMax
		}
		s.busy = s.winBusy
		return s.winEnd, s.commit(len(s.win), s.winEnd)
	}
	if s.cfg.Static {
		return s.stepStatic(now)
	}
	if s.role == RolePrefill {
		return s.stepPrefill(now)
	}
	// Admit from the head of the queue while batch slots and KV
	// capacity remain. Admission is FIFO: a blocked head blocks
	// everything behind it.
	s.admitted = s.admitted[:0]
	var restoreS float64
	for s.queueLen() > 0 && len(s.run)+len(s.admitted) < s.cfg.MaxBatch {
		q := s.queue[s.qhead]
		if q.decode != (s.role == RoleDecode) {
			// A phase routed to the wrong pool: the simulation would
			// silently double-charge or skip the prefill. Router bug.
			return 0, fmt.Errorf("des: station %d (%s) received a %s-phase request %d",
				s.ID, s.role, phaseName(q.decode), q.req.ID)
		}
		if !s.Alloc.CanAlloc(q.req.Input) {
			break
		}
		seq, err := s.Alloc.Alloc(q.req.Input)
		if err != nil {
			break
		}
		s.popHead()
		r := s.getReq(q, now)
		r.seq = seq
		if s.disc != nil {
			skip, rs := s.disc.TakePrefillDiscount()
			r.prefillSkip = skip
			restoreS += rs
			if !q.decode {
				s.hitToks += skip
				s.promptToks += q.req.Input
			}
		}
		s.admitted = append(s.admitted, r)
	}
	admitted := s.admitted
	var step float64
	if len(admitted) > 0 {
		if s.role == RoleDecode {
			// Decode sub-requests arrive prefilled: FirstTok was set on
			// the prefill pool and generated is already 1 (getReq), so
			// admission charges nothing here — except restore seconds,
			// which bring demoted prefix blocks back before decoding.
			if restoreS > 0 {
				step += restoreS
			}
		} else if s.cfg.ChunkedPrefill {
			// Prompts enter the prefill queue; their tokens are
			// processed in slices fused with decode iterations. Cached
			// prefix tokens never enter it (the last prompt token always
			// does — its logits drive the first output); restore seconds
			// stall the batch up front like an admission prefill would.
			for _, a := range admitted {
				a.pendingPrefill = a.req.Input - a.prefillSkip
			}
			if restoreS > 0 {
				if len(s.run) > 0 && restoreS > s.maxIter {
					s.maxIter = restoreS
				}
				step += restoreS
			}
		} else {
			// Charge one batched prefill for the admitted prompts,
			// stalling the running set (the non-SplitFuse cost). Cached
			// prefix tokens are excluded from the batch; restore seconds
			// for demoted blocks join the stall instead.
			in := 0
			for _, a := range admitted {
				in += a.req.Input - a.prefillSkip
			}
			pf, err := s.Engine.PrefillSeconds(len(admitted), in/len(admitted))
			if err != nil {
				return 0, err
			}
			adm := pf
			if restoreS > 0 {
				adm += restoreS
			}
			if len(s.run) > 0 && adm > s.maxIter {
				s.maxIter = adm // running requests stalled this long
			}
			step += adm
			for _, a := range admitted {
				a.stats.FirstTok = now + step
				a.generated = 1 // prefill emits the first token
			}
		}
		s.run = append(s.run, admitted...)
	}
	if len(s.run) == 0 {
		if s.queueLen() > 0 {
			// Nothing is running and the head cannot be admitted: no
			// future completion can free capacity, so it never fits.
			return 0, fmt.Errorf("des: station %d cannot admit request %d (input %d): KV cache too small",
				s.ID, s.queue[s.qhead].req.ID, s.queue[s.qhead].req.Input)
		}
		return now, nil
	}
	// One iteration: a decode step for the generating set, fused with
	// at most one prefill slice in chunked mode. Without chunked
	// prefill the whole running set decodes — no partition needed.
	decoding := s.run
	var prefilling *runReq
	if s.cfg.ChunkedPrefill {
		// The fused slice goes to the pending prompt with the fewest
		// tokens left (ties to admission order): shortest-remaining
		// first, the iteration-level shape of Dynamic-SplitFuse's mixed
		// partial prefills. A short suffix never waits behind a long
		// cold prompt chunking through — without this, every request
		// admitted during a prefix-cache miss's establishment inherits
		// the whole establishment latency instead of one slice.
		s.decoding = s.decoding[:0]
		for _, r := range s.run {
			if r.pendingPrefill > 0 {
				if prefilling == nil || r.pendingPrefill < prefilling.pendingPrefill {
					prefilling = r
				}
			} else {
				s.decoding = append(s.decoding, r)
			}
		}
		decoding = s.decoding
	}
	// Coalescing fast path: a pure-decode state whose next iterations
	// are identical except for context growth. Every member must be
	// established — generated ≥ 2, so its reservation already equals
	// Input+generated and each step extends it by exactly one token,
	// the trajectory MaxExtendSteps prices. A fresh request runs its
	// first iteration stepped. Admission cannot unblock mid-window
	// (free blocks only shrink and the running set only shrinks at
	// completions, which bound the window), so an already-arrived but
	// blocked queue head does not cut the window — only a delivery to
	// this station does (cut). Nothing a router or autoscaler reads
	// changes before the last step: Outstanding is fixed, no prompt is
	// chunking, and Extend grows private blocks only, so the prefix
	// gauges are fixed too.
	if !s.cfg.Stepped && prefilling == nil && len(admitted) == 0 {
		kMax := s.run[0].req.Output - s.run[0].generated
		ctxSum := 0
		s.seqs = s.seqs[:0]
		for _, r := range s.run {
			if r.generated < 2 {
				kMax = 0
				break
			}
			if rem := r.req.Output - r.generated; rem < kMax {
				kMax = rem
			}
			ctxSum += r.req.Input + r.generated
			s.seqs = append(s.seqs, r.seq)
		}
		if kMax > 0 {
			window, err := s.pricer.coalesce(s.Engine, s.Alloc, s.seqs,
				len(s.run), ctxSum/len(s.run), kMax)
			if err != nil {
				return 0, err
			}
			if len(window) > 0 {
				// One pass over the costs, left to right as the stepped
				// path adds them, so every timestamp is bit-identical:
				// the last step's start (the event time), the end, the
				// busy total and the longest step.
				lastStart, end, busy, mx := now, now, s.busy, 0.0
				for _, c := range window {
					if c > mx {
						mx = c
					}
					lastStart = end
					end += c
					busy += c
				}
				s.win, s.winAt = window, now
				s.winEnd, s.winBusy, s.winMax = end, busy, mx
				s.windows++
				return lastStart, nil
			}
		}
	}
	// One reference iteration.
	if len(decoding) > 0 {
		ctxSum := 0
		for _, r := range decoding {
			ctxSum += r.req.Input + r.generated
		}
		t, err := s.Engine.DecodeStepSeconds(len(decoding), ctxSum/len(decoding))
		if err != nil {
			return 0, err
		}
		step += t
	}
	if prefilling != nil {
		chunk := s.cfg.PrefillChunk
		if chunk <= 0 {
			chunk = 512
		}
		if chunk > prefilling.pendingPrefill {
			chunk = prefilling.pendingPrefill
		}
		t, err := s.Engine.PrefillSeconds(1, chunk)
		if err != nil {
			return 0, err
		}
		step += t
		prefilling.pendingPrefill -= chunk
		if prefilling.pendingPrefill == 0 {
			prefilling.stats.FirstTok = now + step
			prefilling.generated = 1
		}
	}
	if len(decoding) > 0 {
		s.steps++
		if step > s.maxIter {
			s.maxIter = step
		}
	}
	end := now + step
	s.busy += step
	next := s.run[:0]
	for _, r := range s.run {
		if r.pendingPrefill > 0 || (r == prefilling && r.generated == 1) {
			// Still prefilling, or just emitted its first token this
			// iteration — no decode advance yet.
			next = append(next, r)
			continue
		}
		r.generated++
		if s.cfg.Preemptive {
			if err := s.Alloc.Extend(r.seq, r.req.Input+r.generated); err != nil {
				if errors.Is(err, kvcache.ErrOutOfMemory) {
					// Preempt: evict and requeue at the tail of this
					// station's queue (recompute later). The requeued
					// request re-arrives at the eviction instant.
					s.Alloc.Free(r.seq)
					s.preempts++
					requeued := r.req
					requeued.Arrival = end
					s.queue = append(s.queue, queued{req: requeued, preempted: r.stats.Preempted + 1})
					s.putReq(r)
					continue
				}
				return 0, err
			}
			if r.generated >= r.req.Output {
				s.finish(r, end)
				continue
			}
		} else {
			// Completion is checked before Extend — a sequence
			// emitting its final token does not grow its reservation —
			// and the coalesced path above mirrors that order.
			if r.generated >= r.req.Output {
				s.finish(r, end)
				continue
			}
			if err := s.Alloc.Extend(r.seq, r.req.Input+r.generated); err != nil {
				return 0, err
			}
		}
		next = append(next, r)
	}
	s.run = next
	return end, nil
}

// phaseName names a queued entry's phase for error messages.
func phaseName(decode bool) string {
	if decode {
		return "decode"
	}
	return "prefill"
}

// stepPrefill runs one prefill-pool event: admit up to MaxBatch
// queued prompts, charge one batched prefill, and hand every admitted
// sub-request off to the decode pool via a kv-transfer record. The
// running set is empty between events — the prefilled KV leaves with
// the transfer — so prefill stations never decode, never preempt, and
// their allocator only bounds the prefill batch in flight.
func (s *Station) stepPrefill(now float64) (float64, error) {
	s.admitted = s.admitted[:0]
	var restoreS float64
	for s.queueLen() > 0 && len(s.admitted) < s.cfg.MaxBatch {
		q := s.queue[s.qhead]
		if q.decode {
			return 0, fmt.Errorf("des: station %d (prefill) received a decode-phase request %d", s.ID, q.req.ID)
		}
		if !s.Alloc.CanAlloc(q.req.Input) {
			break
		}
		seq, err := s.Alloc.Alloc(q.req.Input)
		if err != nil {
			break
		}
		s.popHead()
		r := s.getReq(q, now)
		r.seq = seq
		if s.disc != nil {
			skip, rs := s.disc.TakePrefillDiscount()
			r.prefillSkip = skip
			restoreS += rs
			s.hitToks += skip
			s.promptToks += q.req.Input
		}
		s.admitted = append(s.admitted, r)
	}
	if len(s.admitted) == 0 {
		if s.queueLen() > 0 {
			// Nothing in flight survives a prefill event, so a head
			// that does not fit an empty pool never will.
			return 0, fmt.Errorf("des: station %d cannot admit request %d (input %d): KV cache too small",
				s.ID, s.queue[s.qhead].req.ID, s.queue[s.qhead].req.Input)
		}
		return now, nil
	}
	in := 0
	for _, a := range s.admitted {
		in += a.req.Input - a.prefillSkip
	}
	pf, err := s.Engine.PrefillSeconds(len(s.admitted), in/len(s.admitted))
	if err != nil {
		return 0, err
	}
	if restoreS > 0 {
		pf += restoreS // demoted prefix blocks restore before the batch
	}
	end := now + pf
	s.busy += pf
	for _, a := range s.admitted {
		// The batched prefill emits each prompt's first token at the
		// batch's end, exactly as aggregated admission charges it.
		a.stats.FirstTok = end
		a.generated = 1
		s.handoff(a, end)
	}
	return end, nil
}

// handoff retires a prefill sub-request at time end: the local KV
// reservation is released (the blocks travel to the decode pool), the
// transfer is priced on the prompt's block footprint, and a transfer
// record is parked on the station's buffer for kernel pickup at the
// barrier join. The runReq goes straight back on the free list — the
// transfer record carries the lifecycle by value, preserving the
// zero-steady-state-allocation invariant across the pool boundary.
// The outgoing request's Arrival is rewritten to the delivery instant
// so the decode pool's queue sorts by effective arrival; the original
// arrival survives in the carried stats.
func (s *Station) handoff(r *runReq, end float64) {
	s.Alloc.Free(r.seq)
	d := s.cfg.Transfer.Seconds(r.req.Input)
	r.stats.TransferS = d
	req := r.req
	req.Arrival = end + d
	s.xfers = append(s.xfers, transfer{at: end + d, req: req, stats: r.stats})
	s.putReq(r)
	s.transferred++
}

// stepStatic runs one static-batching event. When a batch is in
// flight its run-to-completion window ends exactly now: every member
// completes and frees its reservation. Then the next batch is
// collected from the arrived queue — up to MaxBatch requests, each
// reserving its full input+output context up front; one that does not
// fit stays queued for a later batch without blocking those behind it
// (pre-Orca admission is a scan, not FIFO head-blocking) — and its
// whole padded run is priced as a single event. Completion times,
// first-token times, and the batch-collection instants are
// byte-identical to the hand-rolled loop this replaced (see
// sched.TestStaticKernelMatchesLegacy). Static stations never extend
// a reservation, so they can never preempt, and they record no
// per-iteration stall (a batch run has no iteration granularity).
func (s *Station) stepStatic(now float64) (float64, error) {
	if len(s.run) > 0 {
		for _, r := range s.run {
			s.finish(r, now)
		}
		s.run = s.run[:0]
	}
	s.admitted = s.admitted[:0]
	var restoreS float64
	live := s.queue[s.qhead:]
	rest := s.queue[:0]
	s.qhead = 0
	for _, q := range live {
		if len(s.admitted) < s.cfg.MaxBatch && s.Alloc.CanAlloc(q.req.Input+q.req.Output) {
			if seq, err := s.Alloc.Alloc(q.req.Input + q.req.Output); err == nil {
				r := s.getReq(q, now)
				r.seq = seq
				if s.disc != nil {
					// Static batches run one padded graph, so cached
					// prefix tokens cannot shorten the prefill — the hit
					// is recorded and restore seconds are charged, but
					// the skip is dropped (r.prefillSkip stays zero).
					skip, rs := s.disc.TakePrefillDiscount()
					restoreS += rs
					s.hitToks += skip
					s.promptToks += q.req.Input
				}
				s.admitted = append(s.admitted, r)
				continue
			}
		}
		rest = append(rest, q)
	}
	s.queue = rest
	batch := s.admitted
	if len(batch) == 0 {
		if s.queueLen() > 0 {
			// The allocator is drained between batches, so a request
			// that does not fit an empty pool never will.
			return 0, fmt.Errorf("des: station %d cannot batch request %d (input %d, output %d): KV cache too small",
				s.ID, s.queue[s.qhead].req.ID, s.queue[s.qhead].req.Input, s.queue[s.qhead].req.Output)
		}
		return now, nil
	}
	// The static batch runs until its longest member finishes: one
	// graph, one shape, padded to the longest prompt and generation.
	maxIn, maxOut := 0, 0
	for _, r := range batch {
		if r.req.Input > maxIn {
			maxIn = r.req.Input
		}
		if r.req.Output > maxOut {
			maxOut = r.req.Output
		}
	}
	res, err := s.Engine.Run(workload.Spec{Batch: len(batch), Input: maxIn, Output: maxOut})
	if err != nil {
		return 0, err
	}
	start := now
	if restoreS > 0 {
		start += restoreS // demoted prefix blocks restore before the run
		s.busy += restoreS
	}
	for _, r := range batch {
		r.stats.FirstTok = start + res.TTFTSeconds
	}
	s.run = append(s.run, batch...)
	s.busy += res.E2ESeconds
	return start + res.E2ESeconds, nil
}

// finish records a completion at time end and recycles the record.
func (s *Station) finish(r *runReq, end float64) {
	s.Alloc.Free(r.seq)
	r.stats.Finished = end
	s.finished = append(s.finished, r.stats)
	s.putReq(r)
	s.done++
	if end > s.lastDone {
		s.lastDone = end
	}
}
