package des

import (
	"errors"
	"fmt"
	"math"
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
	k      *Kernel // owner: completion buffer and kv-transfer queue
	Engine *engine.Engine
	Alloc  kvcache.Allocator

	// disc is Alloc's prefix-cache view when it has one (asserted once
	// at NewStation): after each admission Alloc the station drains the
	// accrued prefill discount — cached prefix tokens that skip prefill
	// compute, plus host-link restore seconds to charge instead. nil
	// for plain allocators, which keeps every discount branch dead and
	// the float trajectory bit-identical to pre-tier kernels.
	disc kvcache.PrefillDiscounter
	// pv is Alloc's prefix-residency view when it has one (asserted
	// once at NewStation, like disc). The kernel copies it into the
	// station's gauge after each event that moved it (publish); nil
	// stations publish nothing, and their gauge's prefix fields stay 0.
	pv prefixView
	// moved is set by every Alloc, Free and prefill slice, the only
	// calls that move the prefix gauges, and cleared by publish: the
	// kernel publishes after an event only when it is set.
	moved bool

	cfg Config

	// queue is the admission queue; the live entries are
	// queue[qhead:]. Popping advances qhead instead of reslicing, so
	// the backing array's capacity survives a million pops — the
	// allocation that used to dominate enqueue.
	queue []queued
	qhead int

	run []*runReq
	// pending is the running set's prompt tokens not yet prefilled
	// (the sum of its records' pendingPrefill), kept current at chunked
	// admission and at each prefill slice.
	pending int

	nextAt   float64 // next window-exhausted event; < 0 when idle
	busy     float64 // time spent executing iterations
	maxIter  float64 // longest single iteration
	lastDone float64 // end of this station's last completed work
	done     int
	preempts int
	// evicting is set when a request is evicted a second time with no
	// completion on this station since its first eviction, and cleared
	// by the next completion. While it is set, admission only refills
	// an empty running set, one request at a time, so the running set
	// drains until a request completes. Without it, an evicted request
	// readmitted at once can evict its neighbour in turn, and the pair
	// trade the pool forever.
	evicting bool

	// hitToks and promptToks accumulate the prefix-cache hit rate:
	// prompt tokens admitted and the subset served from the cache.
	// Counted only when disc is non-nil, and only for prompt-phase
	// admissions (decode sub-requests were prefilled elsewhere).
	hitToks    int
	promptToks int

	// win is the open coalesced window: the per-step costs of its
	// decode iterations (the engine's memo cells, read-only),
	// starting at winAt. Nothing in it is applied until it commits —
	// whole at its last step's start, or in part when a delivery cuts
	// it (cut). Empty when no window is open.
	//
	// The window's step starts are summed lazily, left to right, by a
	// priced cursor that carries two float chains: wi steps are summed
	// so far, wt is the start of step wi, wp the start of step wi-1,
	// and wbusy is busy with those wi steps applied. While the cursor
	// is short of the last step, nextAt is only a lower bound on that
	// step's start (windowKey, built from wfloor, a lower bound on
	// every step cost); the kernel advances the cursor before the key
	// can pass a delivery, and only an exact key runs an event.
	// maxIter is not carried: a commit folds it from the committed
	// costs (iterMax), off the last one when wrise certifies the
	// window's costs nondecreasing (engine.StepVec.Rise).
	win    []float64
	winAt  float64
	wi     int
	wt, wp float64
	wbusy  float64
	wfloor float64
	wrise  bool

	// events, windows, steps and cuts count station events run,
	// coalesced windows opened, decode iterations executed (coalesced
	// or stepped) and open windows cut by a delivery; priced counts
	// window step costs added to a station clock. Kernel.Counts sums
	// them.
	events, windows, steps, cuts, priced int

	seqs     []kvcache.Seq // reused sequence-handle buffer
	decoding []*runReq     // reused chunked-mode partition buffer
	admitted []*runReq     // reused admission / static-batch buffer
	free     []*runReq     // recycled request records
	slab     []runReq      // bump-allocation backing for fresh records

	// role is the station's pool assignment (RoleBoth when
	// aggregated); see NewPoolStation.
	role        Role
	transferred int
}

// queued is a waiting request; preempted counts prior evictions so
// the lifecycle stats survive a requeue, and evictedAt is the
// station's completion count at the last of them.
type queued struct {
	req       workload.Request
	preempted int
	evictedAt int
	// decode marks a decode-phase sub-request delivered by a
	// kv-transfer event; carry is its lifecycle so far (original
	// arrival, prefill timing, transfer delay), resumed on admission.
	// carry is written and read only when decode is set.
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
	evictedAt      int // queued.evictedAt, carried while running
	stats          RequestStats
}

// reqSlabLen is how many records one slab allocation provides while
// the free list warms up.
const reqSlabLen = 64

// getReq takes a recycled (or slab-fresh) record and initialises it
// for an admission at time now. q is read before anything is written,
// so it may point into the admission queue.
func (s *Station) getReq(q *queued, now float64) *runReq {
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
	// Field by field, every field once: zeroing the whole record first,
	// or building it as a composite literal, would write it twice.
	r.req, r.evictedAt = q.req, q.evictedAt
	r.seq, r.pendingPrefill, r.prefillSkip = 0, 0, 0
	if q.decode {
		// Decode sub-request: resume the carried lifecycle — original
		// arrival, prefill timing, transfer delay — with the prompt
		// already prefilled on the prefill pool (first token emitted
		// there, so generated starts at 1).
		r.stats = q.carry
		r.generated = 1
	} else {
		r.generated = 0
		r.stats.ID, r.stats.Input, r.stats.Output = q.req.ID, q.req.Input, q.req.Output
		r.stats.Arrival, r.stats.Started, r.stats.Preempted = q.req.Arrival, now, q.preempted
		r.stats.FirstTok, r.stats.Finished, r.stats.TransferS = 0, 0, 0
	}
	return r
}

// putReq recycles a record whose lifecycle ended (completion or
// preemption). The caller must not touch it afterwards.
func (s *Station) putReq(r *runReq) { s.free = append(s.free, r) }

// reset returns a recycled station shell to its just-created state,
// keeping the warmed buffers and free list.
func (s *Station) reset() {
	s.queue = s.queue[:0]
	s.qhead = 0
	s.run = s.run[:0]
	s.pending = 0
	s.nextAt = -1
	s.busy, s.maxIter, s.lastDone = 0, 0, 0
	s.done, s.preempts, s.evicting = 0, 0, false
	s.disc, s.pv, s.moved = nil, nil, false
	s.hitToks, s.promptToks = 0, 0
	s.win = nil
	s.events, s.windows, s.steps, s.cuts, s.priced = 0, 0, 0, 0, 0
	s.role = RoleBoth
	s.transferred = 0
}

// queueLen is the number of live queued requests.
func (s *Station) queueLen() int { return len(s.queue) - s.qhead }

// popHead removes the queue's head. The entry stays in the backing
// array until the next enqueue.
func (s *Station) popHead() {
	s.qhead++
	if s.qhead == len(s.queue) {
		s.queue, s.qhead = s.queue[:0], 0
	}
}

// Outstanding is the station's queued plus running request count,
// counted from the queue and the running set. Routers and the
// autoscaler read the same number from the station's gauge
// (Gauge.Load), which the kernel keeps equal to it.
func (s *Station) Outstanding() int { return s.queueLen() + len(s.run) }

// PendingPrefillTokens is the prompt-token backlog still chunking
// through this station's fused prefill slot (always 0 outside chunked
// mode). Routers use it to tell a materialized prefix cache from one
// still being established: prefix blocks score hot the moment they
// allocate, but until the establishing prompt finishes its slices,
// co-located requests ride iterations inflated by them. A counter,
// kept at chunked admission and at each slice; stations with a prefix
// view publish it as Gauge.Pending.
func (s *Station) PendingPrefillTokens() int { return s.pending }

// publish copies the station's prefix view and prefill backlog into
// its gauge. Only admission (Alloc), a release (Free) and a prefill
// slice move them, and each sets moved; the kernel calls publish after
// an event that set it, on a station with a prefix view. All three
// happen only inside an event: a cut completes nothing and only
// Extends, and an event that only opens a window applies nothing.
func (s *Station) publish() {
	g := &s.k.gauges[s.ID]
	g.Hot, g.Restorable, g.Pending = s.pv.HotPrefixTokens(), s.pv.RestorablePrefixTokens(), s.pending
	s.moved = false
}

// prefixView is the allocator view a station publishes into its gauge
// (kvcache.PrefixPaged and kvcache.Tiered have it): shared-prefix
// tokens resident on the device, where an arriving request hits them
// for free, and tokens demoted to a host tier, a hit after a host-link
// restore.
type prefixView interface {
	HotPrefixTokens() int
	RestorablePrefixTokens() int
}

// Role reports the station's pool assignment.
func (s *Station) Role() Role { return s.role }

// enqueue inserts a request keeping the queue sorted by effective
// arrival time (FIFO among equals). The router delivers arrivals in
// time order, so this is almost always an append — except when a
// preempted request was requeued with an eviction time that lands
// beyond a not-yet-routed arrival: admission order must follow
// effective arrival, not delivery order.
//
// The entry is written in place, field by field, from req and, for a
// decode sub-request, carry (nil for a trace arrival).
func (s *Station) enqueue(req *workload.Request, carry *RequestStats) {
	if s.qhead > 0 && len(s.queue) == cap(s.queue) {
		// Reclaim the popped prefix before append would grow the
		// array: steady state then reuses one backing array forever.
		n := copy(s.queue, s.queue[s.qhead:])
		s.queue, s.qhead = s.queue[:n], 0
	}
	live := s.queue[s.qhead:]
	i := sort.Search(len(live), func(i int) bool { return live[i].req.Arrival > req.Arrival })
	if n := len(s.queue); n < cap(s.queue) {
		s.queue = s.queue[:n+1]
	} else {
		s.queue = append(s.queue, queued{})
	}
	live = s.queue[s.qhead:]
	copy(live[i+1:], live[i:])
	q := &live[i]
	q.req, q.preempted, q.evictedAt, q.decode = *req, 0, 0, carry != nil
	if carry != nil {
		q.carry = *carry
	}
}

// event runs the station's event at nextAt and schedules the next
// one: nextAt moves to the event's end, or to -1 when the station goes
// idle (a delivery wakes it again). A window still keyed by a lower
// bound is priced to its last step first, so the event runs at exact
// time; so is a window opened with a key that cannot show the clock
// moved, so the stall guard compares exact times.
func (s *Station) event() error {
	s.events++
	if s.lazy() {
		s.advance(math.Inf(1))
	}
	now := s.nextAt
	end, err := s.step(now)
	if err != nil {
		return err
	}
	if len(s.run) == 0 && s.queueLen() == 0 {
		s.nextAt = -1
		return nil
	}
	if end <= now && s.lazy() {
		s.advance(math.Inf(1))
		end = s.nextAt
	}
	if end <= now {
		// Work remains but the clock did not move: the event loop
		// would spin. Cannot happen with positive step costs; guard it
		// instead of hanging.
		return fmt.Errorf("des: station %d stalled at t=%g", s.ID, now)
	}
	s.nextAt = end
	return nil
}

// windowSteps bounds one coalesced run of identical decode
// iterations over seqs, each growing one token per step, and returns
// its step count, or 0 when the state does not admit a fast-forward of
// at least one full iteration beyond the current one: the caller then
// falls back to its one-step reference path (which also handles
// preemption). kMax must already be bounded by the earliest completion
// in the batch; the allocator bound (kvcache.Allocator.MaxExtendSteps)
// is applied here. Deliveries do not bound the window: a station opens
// it whole and cuts it when a request is delivered to it
// (Station.cut).
func windowSteps(alloc kvcache.Allocator, seqs []kvcache.Seq, kMax int) int {
	if kMax > 1 {
		// The KV pool may run dry inside the window: fast-forward to
		// the last iteration that fits, then let the reference path
		// take the preemption (or OOM) at the boundary.
		kMax = min(kMax, alloc.MaxExtendSteps(seqs, kMax))
	}
	if kMax < 2 {
		return 0
	}
	return kMax
}

// lazy reports whether an open window's event key is still a lower
// bound: its cursor has not reached the last step.
func (s *Station) lazy() bool { return s.wi < len(s.win)-1 }

// advance moves the open window's cursor to the first step starting
// at or after t, or to the last step if that comes first, and re-keys
// nextAt. Each step cost is added once, in step order, so the sums are
// bit-identical to a walk from the window's start.
func (s *Station) advance(t float64) {
	w := s.win[s.wi : len(s.win)-1]
	wt, wp, busy := s.wt, s.wp, s.wbusy
	n := 0
	for ; n < len(w) && wt < t; n++ {
		busy += w[n]
		wp = wt
		wt += w[n]
	}
	s.priced += n
	s.wi, s.wt, s.wp, s.wbusy = s.wi+n, wt, wp, busy
	s.nextAt = s.windowKey()
}

// iterMax is maxIter with the open window's first k step costs
// applied. A window certified rising has its longest step last;
// otherwise the costs are folded with a running max. Max is exact and
// independent of order, so both equal a left-to-right running max.
func (s *Station) iterMax(k int) float64 {
	w := s.win[:k]
	if s.wrise && k > 0 {
		w = w[k-1:] // nondecreasing: the longest step is the last
	}
	m := s.maxIter
	for _, c := range w {
		if c > m {
			m = c
		}
	}
	return m
}

// windowKey is the open window's event key: the start of its last step
// once the cursor reaches it, and before that a lower bound on it.
// The r unpriced costs are each at least wfloor, and each of the r
// sequential additions loses at most a factor (1 - 2⁻⁵³), so the sum
// is at least (wt + r·wfloor)·(1 - r·2⁻⁵³); the bound takes twice that
// margin, plus slack for its own three roundings.
func (s *Station) windowKey() float64 {
	r := len(s.win) - 1 - s.wi
	if r == 0 {
		return s.wt
	}
	return max(s.wt, (s.wt+float64(r)*s.wfloor)*(1-float64(r+8)*0x1p-52))
}

// cut closes the open window, if any, because a request was just
// delivered to the station at t: the first j steps — up to the first
// step boundary at or after t, where the delivered request is
// admitted — are applied and the station's next event moves to that
// boundary. The kernel only delivers at t after running every event
// before t, so the window's last step starts at or after t: j is
// below the window length and a cut never completes a request.
//
// The cut commits from the priced cursor, resuming it past t when it
// lags. A delivery before the cursor's previous step start (only a
// kv-transfer scheduled after the kernel advanced the cursor lands
// there) rewinds the cursor to the window's start and sums again.
func (s *Station) cut(t float64) error {
	if len(s.win) == 0 {
		return nil
	}
	if s.wi >= 2 && s.wp >= t {
		s.wi, s.wt, s.wbusy = 0, s.winAt, s.busy
	}
	s.advance(t)
	if s.wt < t {
		return nil
	}
	s.busy, s.maxIter = s.wbusy, s.iterMax(s.wi)
	s.cuts++
	s.nextAt = s.wt
	return s.commit(s.wi, s.wt)
}

// commit applies k decode steps of the open window, ending at end,
// to the running set and closes the window; the caller has already
// charged their busy and maxIter (iterMax). One batched Extend to each
// final context: headroom was verified for the whole window, so none
// of these can OOM, and the allocator lands in the same state as k
// single-token extends.
func (s *Station) commit(k int, end float64) error {
	s.win = nil
	s.steps += k
	next := s.run[:0]
	for _, r := range s.run {
		r.generated += k
		// Extend before the completion check, exactly as the stepped
		// path does: the completing step still grows the reservation.
		if err := s.Alloc.Extend(r.seq, r.req.Input+r.generated); err != nil {
			return err
		}
		if r.generated >= r.req.Output {
			s.finish(r, end)
			continue
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
// commit on a delivery). A prefill-pool station stops after the
// admission charge: it hands every admitted prompt off to the decode
// pool at the batch's end (handoff), so its running set is empty
// between events and it never decodes or preempts. It returns the
// event's end time (== now when the station stays idle).
func (s *Station) step(now float64) (float64, error) {
	if len(s.win) > 0 {
		// The event runs at the last step's start (event priced the
		// cursor there): add the last step and commit the whole window.
		c := s.win[len(s.win)-1]
		end := s.wt + c
		s.busy, s.maxIter = s.wbusy+c, s.iterMax(len(s.win))
		s.priced++
		return end, s.commit(len(s.win), end)
	}
	if s.cfg.Static {
		return s.stepStatic(now)
	}
	restoreS, err := s.admit(now)
	if err != nil {
		return 0, err
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
				s.pending += a.pendingPrefill
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
			if s.role == RolePrefill {
				// A prefill-pool station's work ends with the batch:
				// every prompt leaves for the decode pool with its KV.
				end := now + step
				s.busy += step
				for _, a := range admitted {
					s.handoff(a, end)
				}
				return end, nil
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
		if k := windowSteps(s.Alloc, s.seqs, kMax); k > 0 {
			ctx0 := ctxSum / len(s.run)
			v, err := s.Engine.DecodeStepVec(len(s.run), ctx0, k)
			if err != nil {
				return 0, err
			}
			// Open with nothing summed: the event key is a lower bound
			// on the last step's start, and the cursor sums the costs
			// (the engine's memo cells, read-only) left to right, as
			// the stepped path adds them, only as far as deliveries
			// and the kernel need. That keeps coalesced time
			// byte-identical to stepped time.
			s.win, s.winAt = v.Seconds, now
			s.wi, s.wt, s.wp, s.wbusy = 0, now, now, s.busy
			s.wfloor, s.wrise = v.Floor, v.Rise <= ctx0
			s.windows++
			return s.windowKey(), nil
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
		s.pending -= chunk
		s.moved = true
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
	for i, r := range s.run {
		if r.pendingPrefill > 0 || (r == prefilling && r.generated == 1) {
			// Still prefilling, or just emitted its first token this
			// iteration — no decode advance yet.
			next = append(next, r)
			continue
		}
		r.generated++
		// Every step extends its reservation, the completing one
		// included; the coalesced commit mirrors that order.
		if err := s.Alloc.Extend(r.seq, r.req.Input+r.generated); err != nil {
			// A decode-pool request was prefilled on another station:
			// this one cannot recompute it. A request that overflows
			// the pool alone (no other sequence holds KV here) would
			// overflow it again on every recompute.
			alone := len(next) == 0 && i == len(s.run)-1
			if s.role == RoleDecode || alone || !errors.Is(err, kvcache.ErrOutOfMemory) {
				return 0, fmt.Errorf("des: station %d (%s) cannot extend request %d: %w", s.ID, s.role, r.req.ID, err)
			}
			// Preempt: evict and requeue at the tail of this station's
			// queue (recompute later). The requeued request re-arrives
			// at the eviction instant.
			s.Alloc.Free(r.seq)
			s.moved = true
			s.preempts++
			if r.stats.Preempted > 0 && r.evictedAt == s.done {
				s.evicting = true
			}
			requeued := r.req
			requeued.Arrival = end
			s.queue = append(s.queue, queued{req: requeued, preempted: r.stats.Preempted + 1, evictedAt: s.done})
			s.putReq(r)
			continue
		}
		if r.generated >= r.req.Output {
			s.finish(r, end)
			continue
		}
		next = append(next, r)
	}
	s.run = next
	return end, nil
}

// admit moves requests from the queue head into s.admitted while
// batch slots and KV capacity remain, reserving each prompt's KV and
// draining its prefix-cache discount; it returns the restore seconds
// the admitted prompts accrued. Admission is FIFO: a blocked head
// blocks everything behind it. Continuous and prefill-pool stations
// share it — a prefill station's running set is always empty.
func (s *Station) admit(now float64) (restoreS float64, err error) {
	s.admitted = s.admitted[:0]
	for s.queueLen() > 0 && len(s.run)+len(s.admitted) < s.cfg.MaxBatch {
		if s.evicting && len(s.run)+len(s.admitted) > 0 {
			break
		}
		q := &s.queue[s.qhead] // valid until the next enqueue
		if q.decode != (s.role == RoleDecode) {
			// A phase routed to the wrong pool: the simulation would
			// silently double-charge or skip the prefill. Router bug.
			return 0, fmt.Errorf("des: station %d (%s) received a %s-phase request %d",
				s.ID, s.role, phaseName(q.decode), q.req.ID)
		}
		if !s.Alloc.CanAlloc(q.req.Input) {
			break
		}
		s.moved = true
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
	return restoreS, nil
}

// phaseName names a queued entry's phase for error messages.
func phaseName(decode bool) string {
	if decode {
		return "decode"
	}
	return "prefill"
}

// handoff retires a prefill sub-request at time end: the local KV
// reservation is released (the blocks travel to the decode pool), the
// transfer is priced on the prompt's block footprint, and a transfer
// record joins the kernel's pending delivery queue. The runReq goes straight back on the free list — the
// transfer record carries the lifecycle by value, preserving the
// zero-steady-state-allocation invariant across the pool boundary.
// The outgoing request's Arrival is rewritten to the delivery instant
// so the decode pool's queue sorts by effective arrival; the original
// arrival survives in the carried stats.
func (s *Station) handoff(r *runReq, end float64) {
	s.Alloc.Free(r.seq)
	s.moved = true
	d := s.cfg.Transfer.Seconds(r.req.Input)
	r.stats.TransferS = d
	req := r.req
	req.Arrival = end + d
	s.k.insertPending(transfer{at: end + d, req: req, stats: r.stats})
	s.putReq(r)
	s.transferred++
	s.k.gauges[s.ID].Load--
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
			s.moved = true
			if seq, err := s.Alloc.Alloc(q.req.Input + q.req.Output); err == nil {
				r := s.getReq(&q, now)
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
	s.moved = true
	r.stats.Finished = end
	s.k.record(&r.stats)
	s.putReq(r)
	s.k.gauges[s.ID].Load--
	s.done++
	s.evicting = false
	if end > s.lastDone {
		s.lastDone = end
	}
}
