// Package des is the discrete-event serving kernel shared by every
// serving simulator in the repository: the single-replica continuous
// scheduler (internal/sched), the multi-replica cluster router, and
// the autoscaler (internal/cluster) are all thin policy layers over
// the one event loop defined here.
//
// # Event model
//
// The kernel advances a set of stations (replica simulators, each
// owning an engine and a private KV allocator) over a shared trace of
// request arrivals. Five event kinds exist:
//
//   - arrival: a request enters the system and is routed to a station
//     by the Route callback (admission/routing policy).
//   - scale-tick: fired immediately before each arrival when a
//     ScaleTick handler is registered; the autoscaler uses it to add
//     or retire stations.
//   - window-exhausted: a station's next scheduler iteration is due —
//     either a single stepped iteration (Config.Stepped) or a
//     coalesced fast-forward over every identical decode iteration up
//     to the station's next completion or KV headroom limit
//     (CoalesceWindow). A coalesced window opens whole and applies
//     nothing until its last step starts: that instant is its event
//     time, and the event commits every step, completions included.
//     A delivery (arrival or kv-transfer) to the station cuts the open
//     window instead: the steps up to the first boundary at or after
//     the delivery commit, and admission runs at that boundary —
//     exactly where a stepped run would admit. Deliveries to other
//     stations leave the window alone: until its last step nothing a
//     router or autoscaler reads on the station changes. Coalescing is
//     the kernel's only stepping primitive; Stepped is a kernel mode
//     that caps every window at one iteration. Static stations
//     (Config.Static) degenerate to one window per batch: admission
//     happens only at batch boundaries, so the whole run-to-completion
//     is one event that no arrival can cut.
//   - completion: requests finishing inside a window; recorded in the
//     completion ledger at the window's end time and merged into
//     Result.Finished.
//   - kv-transfer: in a disaggregated topology (stations with pool
//     roles — see Role and NewPoolStation) a request is a sequence of
//     phase sub-requests rather than a monolithic unit. Its prefill
//     runs on a prefill-pool station; the moment that prefill
//     completes, a kv-transfer event is scheduled, priced by the
//     prompt's KV blocks over the pool interconnect plus a latency
//     floor (TransferCost), and its expiry delivers the decode
//     sub-request as an arrival at a decode-pool station picked by the
//     RouteTransfer callback. Aggregated stations (RoleBoth, the
//     default) never see the event kind and their event sequence is
//     bit-for-bit what it was before pool roles existed.
//
// # Determinism contract
//
// Ties at equal timestamps break deterministically: arrivals at one
// instant are processed in trace order (the sort is stable), a
// scale-tick always precedes the arrival that triggered it, kv-transfer
// deliveries tied with trace arrivals at one instant are delivered
// after them — ordered among themselves by (delivery time, request ID),
// with no scale-tick of their own (the fleet scales on external
// arrivals, not internal hand-offs) — and a station's window-exhausted
// event at time t runs after every arrival and delivery at t (so
// admission sees the newly routed request, exactly as a time-ordered
// queue with arrival-first tie-breaking would order them). The
// completion ledger is sorted by (finish time, request ID) before
// aggregation, so Stats never depend on which station's events
// happened to be appended first.
//
// # Parallelism
//
// Stations interact only at arrival instants (routing and scale
// decisions read queue lengths across stations); between two
// consecutive arrival times every station evolves independently. The
// kernel exploits this with a conservative time-window barrier: all
// station events strictly before the next arrival run concurrently on
// persistent worker goroutines (Config.Parallelism ≥ 2), then the
// kernel joins and processes the arrival serially. Because each
// station's trajectory is a pure function of its own state and the
// barrier time, Stats are byte-identical at any Parallelism — the
// property tests assert serial == parallel == Stepped to the last
// bit.
//
// Disaggregated fleets add a second interaction channel: kv-transfer
// deliveries, whose instants are not in the trace. The barrier stays
// conservative by never extending past the transfer horizon — the
// earliest instant any not-yet-generated transfer could deliver
// (every awake prefill station's next event time plus the
// interconnect latency floor, see transferHorizon). Decode stations'
// coalesced windows need no bound of their own: a delivery cuts the
// receiving station's open window when it is enqueued, serially on
// the kernel's goroutine. Transfers generated inside a barrier are
// parked on their station (Station.xfers) and merged into the
// kernel's pending queue serially after the join, keeping station
// advances share-nothing.
//
// # Performance notes
//
// The kernel's steady state allocates (near) nothing per event; a
// policy layer built on top must not break the invariants that make
// that true:
//
//   - Request records are free-listed per station: a runReq (with its
//     RequestStats embedded by value) is recycled at completion, at
//     preemption, and — on prefill stations — at hand-off. A pointer
//     into a station's running set is therefore only valid until the
//     request finishes — nothing outside the station may retain one.
//     RequestStats cross the API boundary by value (ledger, Sink),
//     never by pointer. Phase sub-requests obey the same rule: the
//     prefill sub-request's record goes straight back on its
//     station's free list when the transfer is scheduled (the
//     transfer record carries the lifecycle by value), and the decode
//     sub-request draws a fresh record from the decode station's
//     slab. A policy layer must never thread a record across the
//     pool boundary.
//   - A coalesced window is cut only by a delivery to its own
//     station, so under dense fleet-wide arrivals a window still runs
//     to its last step in one event and pays one MaxExtendSteps bound
//     plus one Extend per running sequence. The open window is
//     station state between events (Station.win), committed at its
//     last step's start or at a cut. Its step costs are summed once,
//     when it opens; only a cut walks them again.
//   - The kernel tracks awake stations (nextAt ≥ 0, plus — on
//     streaming runs — stations with unflushed completions)
//     incrementally, so barriers cost O(awake), not O(stations), and
//     long-retired autoscaler stations stop being scanned entirely.
//     Stations are woken only via the kernel (routing an arrival);
//     writing Station.nextAt from outside would desynchronise the
//     awake set.
//   - Completion buffers drain through a cursor (finHead), not by
//     re-copying the tail; flush order stays (finish time, request
//     ID) because per-station appends are already in non-decreasing
//     finish order.
//   - A Kernel can recycle its slices and station shells (free lists
//     included) across runs via Reuse/Release (see Scratch) — sweeps
//     use this so per-point setup stops allocating once the first
//     point has warmed the arena.
package des

import (
	"errors"
	"fmt"
	"math"
	"slices"
	"sort"

	"llmbench/internal/engine"
	"llmbench/internal/kvcache"
	"llmbench/internal/workload"
)

// Config parameterises a kernel run. The scheduling knobs apply to
// every station; routing and scaling policy live in the callbacks.
type Config struct {
	// MaxBatch caps each station's concurrent running set.
	MaxBatch int

	// ChunkedPrefill enables Dynamic-SplitFuse-style admission:
	// prompts prefill in PrefillChunk-token slices fused into decode
	// iterations instead of one batched admission prefill.
	ChunkedPrefill bool
	// PrefillChunk is the slice size in tokens (default 512).
	PrefillChunk int

	// Static selects pre-Orca static batching: a station collects up
	// to MaxBatch arrived requests (skipping any whose full
	// input+output reservation does not fit — admission scans past
	// blocked requests instead of head-blocking), runs the batch to
	// completion padded to its longest prompt and generation, then
	// repeats. Admission happens only at batch boundaries, so the
	// whole batch run is a single window-exhausted event that no
	// arrival can cut, and the policy never preempts or extends a
	// reservation. ChunkedPrefill and Preemptive do not apply to
	// static stations; Stepped is a no-op for them (the batch run has
	// no intermediate state to step through).
	Static bool

	// Preemptive selects the single-replica scheduler's bookkeeping:
	// every decode step extends its sequence's KV reservation —
	// including the completing step — and an out-of-memory extension
	// evicts the sequence and requeues it (recompute-on-resume)
	// instead of failing the run. Non-preemptive stations treat a
	// completing sequence as not growing its reservation and surface
	// ErrOutOfMemory as a hard error.
	Preemptive bool

	// Stepped disables iteration coalescing, advancing one decode
	// iteration per window-exhausted event — the O(output tokens)
	// reference path the coalesced fast-forward is tested against.
	// Output is byte-identical either way; Stepped only costs time.
	Stepped bool

	// Parallelism ≥ 2 advances stations on that many persistent
	// worker goroutines between arrival barriers; values ≤ 1 advance
	// them serially. Stats are byte-identical at any setting.
	Parallelism int

	// Transfer prices kv-transfer events between a prefill pool and a
	// decode pool. Required — and validated — as soon as any station
	// has RolePrefill; ignored by aggregated fleets.
	Transfer TransferCost
}

// ErrKernelReused is returned by Run when the kernel has already run:
// a second Run would silently reuse dirty station state. Build a
// fresh kernel per run (recycling the old one's arena via
// Release/Reuse if setup cost matters).
var ErrKernelReused = errors.New("des: Kernel.Run called twice (kernels are single-use)")

// Kernel drives stations over a trace. Build one with New, add
// stations with NewStation (also legal mid-run, from a ScaleTick
// handler), set the policy callbacks, then Run.
type Kernel struct {
	// Route picks the station for an arriving request. nil routes
	// everything to station 0 (the single-replica scheduler).
	Route func(now float64) *Station
	// ScaleTick, when non-nil, fires immediately before each arrival
	// is routed — the autoscaler's hook for adding and retiring
	// stations. An error aborts the run.
	ScaleTick func(now float64) error
	// RouteTransfer picks the decode-pool station for an expiring
	// kv-transfer, exactly as Route picks a station for a trace
	// arrival. Required as soon as any station has RolePrefill.
	RouteTransfer func(now float64) *Station
	// Sink, when non-nil, receives each completed request's lifecycle
	// incrementally instead of the kernel retaining a ledger:
	// Result.Finished stays empty and per-station completion buffers
	// are drained at every arrival barrier, so memory is bounded by
	// in-flight work rather than trace length. Completions are
	// delivered in the same global (finish time, request ID) order
	// Result.Finished would have — the concatenation of the per-barrier
	// flushes is exactly the sorted ledger, because once every station
	// has advanced to barrier t any future completion finishes at or
	// after t, and completions tied at one instant always flush
	// together. Called on the kernel's goroutine, never concurrently.
	Sink func(RequestStats)

	cfg      Config
	ran      bool
	stations []*Station
	due      []int          // reused per-barrier due-station index buffer
	awake    []int          // stations with pending work (see advanceAll)
	flushBuf []RequestStats // reused Sink merge buffer
	scratch  *Scratch       // arena to Release into, when recycling
	workers  *stationWorkers

	// Disaggregation state. pending[phead:] is the kv-transfer
	// delivery queue, sorted by (delivery time, request ID) with the
	// same cursor-and-compact discipline as station queues. hasPrefill
	// gates all of it: an aggregated fleet never touches these fields.
	pending    []transfer
	phead      int
	hasPrefill bool
	minXfer    float64 // Transfer.LatencyS, the lookahead floor
}

// New creates an empty kernel.
func New(cfg Config) *Kernel { return &Kernel{cfg: cfg} }

// NewStation adds a station owning the given engine and allocator.
// The allocator must be private to the station; the engine may be
// shared (engines are immutable and concurrency-safe).
func (k *Kernel) NewStation(eng *engine.Engine, alloc kvcache.Allocator) *Station {
	var s *Station
	if sc := k.scratch; sc != nil && len(sc.stations) > 0 {
		s = sc.stations[len(sc.stations)-1]
		sc.stations = sc.stations[:len(sc.stations)-1]
		s.reset()
	} else {
		s = &Station{}
	}
	s.ID = len(k.stations)
	s.Engine, s.Alloc = eng, alloc
	// Assert the allocator's prefix-cache view once, here, so the
	// admission hot loops test a cached field instead of repeating the
	// interface assertion per request.
	s.disc, _ = alloc.(kvcache.PrefillDiscounter)
	s.cfg = k.cfg
	s.nextAt = -1
	k.stations = append(k.stations, s)
	return s
}

// NewPoolStation adds a station with a pool role for a disaggregated
// topology. NewStation is NewPoolStation with RoleBoth: aggregated
// stations run both phases and never generate or receive kv-transfer
// events.
func (k *Kernel) NewPoolStation(eng *engine.Engine, alloc kvcache.Allocator, role Role) *Station {
	s := k.NewStation(eng, alloc)
	s.role = role
	if role == RolePrefill {
		k.hasPrefill = true
	}
	return s
}

// Stations returns the live station list (including retired ones), in
// creation order.
func (k *Kernel) Stations() []*Station { return k.stations }

// EventCounts tallies a run's window-exhausted work across every
// station. The counts describe how the kernel got to its Result, not
// the Result itself — a Stepped run and a coalesced run agree on
// DecodeSteps but not on Windows — so they live on the Kernel.
type EventCounts struct {
	// Windows counts coalesced decode windows opened; always zero in
	// Stepped mode.
	Windows int
	// DecodeSteps counts decode iterations executed, coalesced or
	// stepped.
	DecodeSteps int
	// Cuts counts open windows cut short by a delivery to their
	// station.
	Cuts int
}

// Counts reports the kernel's event counts; read it after Run.
func (k *Kernel) Counts() EventCounts {
	var c EventCounts
	for _, s := range k.stations {
		c.Windows += s.windows
		c.DecodeSteps += s.steps
		c.Cuts += s.cuts
	}
	return c
}

// StationResult summarises one station after Run.
type StationResult struct {
	Completed int
	BusyS     float64 // time spent executing iterations
	Retired   bool
	// Transferred counts prefill sub-requests this station handed to
	// the decode pool. Always zero off the prefill pool; prefill
	// stations in turn record no Completed (only the decode phase
	// finishes a request).
	Transferred int
	// PrefixHitTokens and PromptTokens report the station's
	// prefix-cache hit rate: prompt tokens admitted and the subset
	// served from the cache (kvcache.PrefillDiscounter). Both zero on
	// plain allocators.
	PrefixHitTokens int
	PromptTokens    int
}

// Result is a completed kernel run.
type Result struct {
	// Finished holds every completed request, sorted by (finish time,
	// request ID) — the representation-independent order both the
	// stepped and coalesced paths agree on byte-for-byte. Empty when a
	// Sink streamed the completions out instead.
	Finished []RequestStats
	// Completed counts completed requests — the completeness signal
	// that remains valid when a Sink leaves Finished empty.
	Completed int
	// MakespanS is the end of the last completed work. The event
	// clock cannot serve here: a window-exhausted event starts before
	// the work it prices ends, and a coalesced event starts a whole
	// window earlier than a stepped one — completion times are what
	// both paths share.
	MakespanS   float64
	Preemptions int
	// MaxIterationS is the longest single scheduler iteration across
	// all stations — the worst token-level stall any running request
	// experienced.
	MaxIterationS float64
	// PrefixHitTokens and PromptTokens total the per-station
	// prefix-cache counters; PrefixHitTokens/PromptTokens is the
	// fleet's cache hit rate. Both zero on plain allocators.
	PrefixHitTokens int
	PromptTokens    int
	// PerStation reports each station's share, in creation order.
	PerStation []StationResult
}

// wake puts an idle station's next event at the current instant and
// registers it in the awake set (once — a streaming station can
// already be lingering there with unflushed completions).
func (k *Kernel) wake(s *Station, t float64) {
	if s.nextAt >= 0 {
		return
	}
	s.nextAt = t
	if !s.awake {
		s.awake = true
		k.awake = append(k.awake, s.ID)
	}
}

// Run delivers the trace through the policy callbacks and drains
// every station. It returns ErrKernelReused when called a second
// time: stations carry run state, so a kernel is single-use.
func (k *Kernel) Run(reqs []workload.Request) (Result, error) {
	if k.ran {
		return Result{}, ErrKernelReused
	}
	k.ran = true
	if len(k.stations) == 0 {
		return Result{}, errors.New("des: no stations")
	}
	if k.cfg.MaxBatch < 1 {
		return Result{}, errors.New("des: MaxBatch must be ≥ 1")
	}
	if len(reqs) == 0 {
		return Result{}, errors.New("des: empty trace")
	}
	for _, s := range k.stations {
		if s.Engine == nil || s.Alloc == nil {
			return Result{}, fmt.Errorf("des: station %d incomplete", s.ID)
		}
	}
	if k.hasPrefill {
		// Pool roles ride the plain continuous admission path: static
		// batching has no per-iteration decode events for the decode
		// pool, chunked prefill would interleave hand-offs mid-prompt,
		// and preemption would requeue a decode sub-request whose
		// prefill ran elsewhere. All three are rejected rather than
		// silently mis-simulated.
		if k.cfg.Static || k.cfg.ChunkedPrefill || k.cfg.Preemptive {
			return Result{}, errors.New("des: pool roles (disaggregation) require plain continuous scheduling (no Static, ChunkedPrefill, or Preemptive)")
		}
		if err := k.cfg.Transfer.Validate(); err != nil {
			return Result{}, err
		}
		if k.RouteTransfer == nil {
			return Result{}, errors.New("des: prefill stations require a RouteTransfer callback")
		}
		k.minXfer = k.cfg.Transfer.LatencyS
	}
	route := k.Route
	if route == nil {
		route = func(float64) *Station { return k.stations[0] }
	}
	if k.cfg.Parallelism >= 2 {
		k.startWorkers(k.cfg.Parallelism)
		defer k.stopWorkers()
	}

	// Arrivals at equal timestamps keep trace order: stable sort, and
	// the delivery loop below drains every arrival at one instant
	// before any station event at that instant runs. Already-ordered
	// traces (recorded replays, generator output) are aliased rather
	// than copied — the kernel never mutates the slice — so day-scale
	// replays do not pay an O(n) copy per point.
	ordered := reqs
	if !sort.SliceIsSorted(reqs, func(i, j int) bool { return reqs[i].Arrival < reqs[j].Arrival }) {
		ordered = make([]workload.Request, len(reqs))
		copy(ordered, reqs)
		sort.SliceStable(ordered, func(i, j int) bool { return ordered[i].Arrival < ordered[j].Arrival })
	}
	for _, r := range ordered {
		if math.IsNaN(r.Arrival) || math.IsInf(r.Arrival, 0) {
			// A NaN arrival would never compare equal to the barrier
			// time and the delivery loop would spin forever.
			return Result{}, fmt.Errorf("des: request %d has non-finite arrival %v", r.ID, r.Arrival)
		}
	}

	for i := 0; ; {
		// The next delivery instant: the earlier of the next trace
		// arrival and the earliest pending kv-transfer. Ties go to the
		// arrival — both deliver at t below, arrivals first.
		t := math.Inf(1)
		if i < len(ordered) {
			t = ordered[i].Arrival
		}
		if k.phead < len(k.pending) && k.pending[k.phead].at < t {
			t = k.pending[k.phead].at
		}
		// Conservative time-window barrier: every station event
		// strictly before the next delivery is independent of it. In a
		// disaggregated fleet the barrier additionally stops at the
		// transfer horizon — a prefill event inside the window could
		// generate a delivery earlier than t.
		bound := t
		if k.hasPrefill {
			if h := k.transferHorizon(); h < bound {
				bound = h
			}
		}
		if err := k.advanceAll(bound); err != nil {
			return Result{}, err
		}
		if k.hasPrefill {
			k.collectTransfers()
		}
		if k.Sink != nil {
			k.flush(bound)
		}
		if bound < t {
			// Horizon-limited barrier: at least one prefill event ran
			// (the horizon sits strictly past some station's nextAt),
			// possibly scheduling deliveries before t. Re-derive.
			continue
		}
		if math.IsInf(t, 1) {
			break
		}
		for i < len(ordered) && ordered[i].Arrival == t {
			if k.ScaleTick != nil {
				if err := k.ScaleTick(t); err != nil {
					return Result{}, err
				}
			}
			s := route(t)
			if s == nil {
				return Result{}, errors.New("des: router returned no station")
			}
			k.deliver(s, queued{req: ordered[i]}, t)
			i++
		}
		for k.phead < len(k.pending) && k.pending[k.phead].at == t {
			x := k.pending[k.phead]
			k.phead++
			if k.phead == len(k.pending) {
				k.pending, k.phead = k.pending[:0], 0
			}
			s := k.RouteTransfer(t)
			if s == nil {
				return Result{}, errors.New("des: transfer router returned no station")
			}
			k.deliver(s, queued{req: x.req, decode: true, carry: x.stats}, t)
		}
	}

	return k.collect(), nil
}

// deliver hands a routed arrival or kv-transfer to its station at t:
// an idle station wakes at t, and a station inside an open coalesced
// window cuts it at the first step boundary at or after t, where the
// request can be admitted.
func (k *Kernel) deliver(s *Station, q queued, t float64) {
	s.enqueue(q)
	k.wake(s, t)
	s.cut(t)
}

// flush streams every completion that can no longer be reordered out
// to the Sink: after all stations have advanced to the barrier, any
// future completion finishes at or after it, so completions strictly
// before the barrier are final. Each station's buffer is appended in
// non-decreasing finish order (finish records at monotone event end
// times), so the final prefix is a cursor advance (finHead) — the
// unflushed suffix is never re-copied — and only awake stations are
// scanned (advanceAll keeps a station registered until its buffer is
// drained). The merged batch is sorted by (finish time, request ID)
// before delivery, making the concatenated flushes exactly the order
// Result.Finished would have. Runs on the kernel's goroutine between
// barriers, when stations are quiescent — correct at any Parallelism.
func (k *Kernel) flush(barrier float64) {
	buf := k.flushBuf[:0]
	for _, i := range k.awake {
		s := k.stations[i]
		n := s.finHead
		for n < len(s.finished) && s.finished[n].Finished < barrier {
			n++
		}
		if n == s.finHead {
			continue
		}
		buf = append(buf, s.finished[s.finHead:n]...)
		s.finHead = n
		if s.finHead == len(s.finished) {
			s.finished = s.finished[:0]
			s.finHead = 0
		}
	}
	k.flushBuf = buf
	if len(buf) == 0 {
		return
	}
	// Most barriers flush a single completion; the sort's setup cost
	// is worth skipping a million times a day.
	if len(buf) > 1 {
		SortByCompletion(buf)
	}
	for _, r := range buf {
		k.Sink(r)
	}
}

// advanceAll runs every due station's events up to (strictly before)
// the barrier, serially or on the persistent workers. Stations touch
// only their own state and the engine's concurrency-safe memo tables,
// so the two modes are
// byte-identical; error selection is by lowest (event time, station
// ID), a total order that cannot depend on scheduling. Only awake
// stations are examined: the set holds exactly the stations with a
// pending event (nextAt ≥ 0) — plus, on streaming runs, stations
// whose completion buffer is not yet drained — so a barrier costs
// O(awake), and idle or retired stations are not rescanned a million
// times.
func (k *Kernel) advanceAll(barrier float64) error {
	stations := k.stations
	// Fan out only the stations with due work: under dense arrivals
	// most barriers wake one or two stations (a coalesced window ends
	// at or after the arrival that cut it), and waking workers for
	// idle stations would cost more than it buys. The post-trace
	// drain (barrier = +Inf) is where every station is due at once —
	// and where the big windows make goroutines pay.
	k.due = k.due[:0]
	for _, i := range k.awake {
		if s := stations[i]; s.nextAt >= 0 && s.nextAt < barrier {
			k.due = append(k.due, i)
		}
	}
	if k.workers != nil && len(k.due) >= 2 {
		k.workers.run(k, barrier)
	} else {
		for _, i := range k.due {
			stations[i].advance(barrier)
		}
	}
	// Drop settled stations from the awake set: idle (a streaming
	// station lingers until its completions flush) and not errored —
	// an errored station must stay visible to the selection below,
	// which only examines this barrier's due list; errors are only
	// set during advance, so the earliest error is always due here.
	w := k.awake[:0]
	for _, i := range k.awake {
		s := stations[i]
		if s.nextAt >= 0 || s.err != nil || (k.Sink != nil && len(s.finished) > s.finHead) {
			w = append(w, i)
		} else {
			s.awake = false
		}
	}
	k.awake = w
	var firstErr error
	at, atID := math.Inf(1), -1
	for _, i := range k.due {
		s := stations[i]
		if s.err != nil && (firstErr == nil || s.errAt < at || (s.errAt == at && s.ID < atID)) {
			firstErr, at, atID = s.err, s.errAt, s.ID
		}
	}
	return firstErr
}

// collect merges the per-station ledgers into a Result.
func (k *Kernel) collect() Result {
	total := 0
	for _, s := range k.stations {
		total += len(s.finished) - s.finHead
	}
	finished := make([]RequestStats, 0, total)
	for _, s := range k.stations {
		finished = append(finished, s.finished[s.finHead:]...)
	}
	SortByCompletion(finished)
	res := Result{Finished: finished}
	for _, s := range k.stations {
		res.Completed += s.done
		if s.lastDone > res.MakespanS {
			res.MakespanS = s.lastDone
		}
		if s.maxIter > res.MaxIterationS {
			res.MaxIterationS = s.maxIter
		}
		res.Preemptions += s.preempts
		res.PrefixHitTokens += s.hitToks
		res.PromptTokens += s.promptToks
		res.PerStation = append(res.PerStation, StationResult{
			Completed: s.done, BusyS: s.busy, Retired: s.Retired,
			Transferred:     s.transferred,
			PrefixHitTokens: s.hitToks,
			PromptTokens:    s.promptToks,
		})
	}
	return res
}

// SortByCompletion puts finished requests in completion order with a
// request-ID tie-break. Stations append completions in event order,
// which depends on how many iterations each event carries — a
// coalesced window surfaces its completions when the window ends, a
// stepped run interleaves them with other stations' events — so the
// raw append order is representation-dependent. Completion times are
// not: sorting on them makes Stats (including the float summation
// order inside sched.Summarize) identical for every kernel mode.
// (finish time, request ID) is a total order — IDs are unique — so
// the unstable, allocation-free sort is still deterministic.
func SortByCompletion(done []RequestStats) {
	slices.SortFunc(done, func(a, b RequestStats) int {
		switch {
		case a.Finished < b.Finished:
			return -1
		case a.Finished > b.Finished:
			return 1
		case a.ID < b.ID:
			return -1
		case a.ID > b.ID:
			return 1
		}
		return 0
	})
}

// RequestStats records one request's lifecycle. (internal/sched
// aliases this type; it predates the kernel.)
type RequestStats struct {
	ID        int
	Input     int
	Output    int
	Arrival   float64
	Started   float64 // when prefill began
	FirstTok  float64 // when the first output token appeared
	Finished  float64
	Preempted int // times this request was evicted and restarted
	// TransferS is the kv-transfer delay between the prefill and
	// decode phases in a disaggregated topology: the time the
	// request's KV blocks spent on the interconnect. Zero on
	// aggregated stations, where no hand-off exists.
	TransferS float64
}

// Latency is the request's end-to-end time.
func (r RequestStats) Latency() float64 { return r.Finished - r.Arrival }

// QueueDelay is the time spent waiting before prefill.
func (r RequestStats) QueueDelay() float64 { return r.Started - r.Arrival }
