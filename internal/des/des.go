// Package des is the discrete-event serving kernel shared by every
// serving simulator in the repository: the cluster router and the
// autoscaler (internal/cluster) are thin policy layers over the one
// event loop defined here, and a single-replica run is a fleet of one
// station.
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
//     (kvcache.Allocator.MaxExtendSteps). A coalesced window opens
//     whole and applies nothing until its last step starts: that
//     instant is its event time, and the event commits every step,
//     completions included.
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
//     runs on a prefill-pool station, admitted and charged as one
//     batched prefill exactly as an aggregated station admits it; the
//     moment that batch completes, the station keeps nothing (it
//     never decodes) and a kv-transfer event is scheduled, priced by the
//     prompt's KV blocks over the pool interconnect plus a latency
//     floor (TransferCost), and its expiry delivers the decode
//     sub-request as an arrival at a decode-pool station picked by the
//     RouteTransfer callback. Aggregated stations (RoleBoth, the
//     default) never see the event kind and their event sequence is
//     bit-for-bit what it was before pool roles existed.
//
// # Event order
//
// The kernel is one serial event loop. Every station has a leaf in a
// winner tree indexed by station ID (see eventTree), keyed by its next
// event time, with idle stations at +Inf; the root is the least (next
// event time, station ID). The next delivery instant t is the earlier
// of the next trace arrival and the earliest pending kv-transfer. The
// loop runs the root's event while the root is before t, one at a time
// in (time, ID) order, and recomputes t after each (a prefill event
// can schedule a delivery earlier than it). Then it delivers at t, in
// this tie order:
//
//  1. scale-tick, fired immediately before each trace arrival;
//  2. trace arrivals at t, in trace order (the arrival sort is stable);
//  3. kv-transfer deliveries at t, ordered by request ID, with no
//     scale-tick of their own (the fleet scales on external arrivals,
//     not internal hand-offs);
//  4. station events at t, which run after every delivery at t, so
//     admission sees the newly routed request, exactly as a
//     time-ordered queue with arrival-first tie-breaking would order
//     them.
//
// Waking an idle station, a cut, each station event and each lazy
// re-key (see Window keys) re-key the station's leaf and replay its
// path to the root: one set, whichever way the key moved. A station
// that goes idle keys +Inf. Run returns the first error in this order:
// among station events, the one with the lowest (event time, station
// ID). Each completion is inserted into the kernel's completion buffer
// at its (finish time, request ID) position, so Stats never depend on
// which station's events happened to record first.
//
// # Window keys
//
// A window is priced by one engine.DecodeStepVec call when it opens,
// after the allocator's MaxExtendSteps bound: its costs are the
// engine's memo cells, not a copy, read with the batch master's floor
// and rising certificate. A station holds no other price state.
//
// A coalesced window's event time is the start of its last step, the
// left-to-right float64 sum of every step cost before it. Summing that
// chain when the window opens would add each step about twice, because
// most windows are cut about halfway. So a window opens unsummed. The
// station keeps a priced cursor that carries two float chains: the
// next step's start (wt, with the previous start in wp) and busy with
// the steps summed so far applied. It does not carry maxIter. A commit
// folds maxIter from the committed costs, and when the engine's rising
// certificate (engine.StepVec.Rise) shows the window's costs are
// nondecreasing from its start context, it reads the longest step off
// the last committed cost. Max is exact and independent of order, so
// that equals a running max. Until the cursor reaches the last step,
// the event key is a lower bound on the last step's start. With r
// steps unsummed, the cursor at wt and every cost at least the floor
// read with the window's costs (engine.StepVec.Floor), the key is
//
//	max(wt, (wt + r·floor)·(1 − (r+8)·2⁻⁵²))
//
// Each of the r additions rounds down by at most a factor (1 − 2⁻⁵³),
// so the true sum is at least (wt + r·floor)·(1 − r·2⁻⁵³). The key
// takes twice that margin, plus slack for its own three roundings.
//
// A lazy key never runs an event. When the tree's root has a lazy key
// below the next delivery t, Run advances its cursor to the first step
// start at or after t, or to the last step, which makes the key exact.
// Then it re-keys the station (EventCounts.Rekeys). Only exact keys
// run, and a lazy key is never later than the true time, so station
// events run in exactly the (time, ID) order of eagerly summed keys.
// A cut commits from the cursor: at it, or after summing on past t. A
// delivery can land before the cursor only when a prefill event
// schedules a kv-transfer after the kernel advanced the cursor for a
// later delivery. The cut then rewinds and sums again from the
// window's start. Every step is added in step order, and the full
// commit adds the last step to the cursor's sums. So every timestamp,
// busy total, maxIter and output is bit-identical to summing the whole
// window when it opens. A cut can move a key later, past its lower
// bound; the tree re-keys a station the same way in either direction.
//
// # KV pressure
//
// A continuous station extends each running sequence's KV
// reservation on every decode step, the completing step included.
// When the pool runs dry, an aggregated station (RoleBoth) preempts:
// it evicts the sequence and requeues it at the tail of its own queue,
// to be recomputed from its prompt (vLLM-style recompute preemption).
// Two rules keep that from looping forever. A sequence that overflows
// the pool while it runs alone would overflow it on every recompute,
// so it fails the run with kvcache.ErrOutOfMemory. And once a request
// is evicted twice with no completion on the station in between, the
// station admits only into an empty running set, one request at a
// time, until its next completion. The running set then only shrinks,
// so some request completes or one runs alone, and a lone request
// completes or fails.
//
// A decode-pool station (RoleDecode) cannot recompute a prompt that
// was prefilled on another station, so it fails the run with
// kvcache.ErrOutOfMemory instead.
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
//     RequestStats leave the kernel by value in the ledger; the Sink
//     gets a pointer into the kernel's completion buffer that is valid
//     only for the call, never one into a request record. Phase
//     sub-requests obey the same rule: the prefill sub-request's
//     record goes straight back on its station's free list when the
//     transfer is scheduled (the transfer record carries the lifecycle
//     by value), and the decode sub-request draws a fresh record from
//     the decode station's slab. A policy layer must never thread a
//     record across the pool boundary.
//   - A coalesced window is cut only by a delivery to its own
//     station, so under dense fleet-wide arrivals a window still runs
//     to its last step in one event and pays one MaxExtendSteps bound
//     plus one Extend per running sequence. The open window is
//     station state between events (Station.win), committed at its
//     last step's start or at a cut. Its step costs are summed only as
//     far as the cursor must go (see Window keys), so each committed
//     step is added about once (EventCounts.Priced).
//   - The event queue is a winner tree over every station (eventTree):
//     a re-key replays one leaf-to-root path, comparing against each
//     level's sibling with a conditional move instead of a branch, so
//     an event, a lazy re-key or a delivery costs O(log stations)
//     whatever the data, and nothing is ever scanned. Idle and
//     retired stations keep a leaf at +Inf, which never wins while any
//     station has work. Stations are woken only via the kernel
//     (routing a delivery); writing Station.nextAt from outside would
//     desynchronise the tree.
//   - Routing state is one dense Gauge per station (Kernel.Gauges,
//     indexed by station ID), so a router's scan reads one contiguous
//     slice instead of each station, its queue and its allocator. Each
//     gauge changes only where what it summarises changes: Load rises
//     at each delivery and falls at each completion (finish) and each
//     prefill hand-off (handoff); a preemption requeue moves a request
//     from the running set to the queue and changes nothing. The
//     prefix fields (Hot, Restorable, Pending) are copied at the end of
//     a station event, and only on stations whose allocator has a
//     prefix view (asserted once at NewStation): admission (Alloc),
//     releases (Free) and prefill slices, the only moves of those
//     numbers, all happen inside an event, and each sets the station's
//     moved flag, so an event that made none of them (opening a
//     window, say) copies nothing.
//     Station.PendingPrefillTokens is a counter kept at chunked
//     admission and at each slice, not a scan.
//     Station.Outstanding still counts the queue and running set; it
//     is the reference the gauge tests check Load against.
//   - Completions collect in one kernel buffer kept in completion
//     order as they arrive: each is inserted by a short backward scan
//     (see record), so nothing is sorted. A streamed run flushes the
//     buffer's final prefix only once it grows past a fixed batch (and
//     once at drain), not at every delivery.
//   - A Kernel can recycle its slices and station shells (free lists
//     included) across runs via Reuse/Release (see Scratch) — sweeps
//     use this so per-point setup stops allocating once the first
//     point has warmed the arena. A caller that drops the ledger hands
//     it back too (Scratch.Recycle), so the next run records into it.
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
	// reservation. ChunkedPrefill does not apply to static stations;
	// Stepped is a no-op for them (the batch run has no intermediate
	// state to step through).
	Static bool

	// Stepped disables iteration coalescing, advancing one decode
	// iteration per window-exhausted event — the O(output tokens)
	// reference path the coalesced fast-forward is tested against.
	// Output is byte-identical either way; Stepped only costs time.
	Stepped bool

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

// ErrNegativeArrival is returned by Run when a request arrives before
// time 0. Trace time starts at 0, and the kernel reserves negative
// event times for idle stations.
var ErrNegativeArrival = errors.New("des: negative arrival time")

// Kernel drives stations over a trace. Build one with New, add
// stations with NewStation (also legal mid-run, from a ScaleTick
// handler), set the policy callbacks, then Run.
type Kernel struct {
	// Route picks the station for an arriving request. nil routes
	// everything to station 0.
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
	// Result.Finished stays empty and completions are handed out in
	// batches, so memory is bounded by in-flight work rather than
	// trace length. Completions are delivered in the same global
	// (finish time, request ID) order Result.Finished would have (see
	// flush). Called on the kernel's goroutine, with a pointer into the
	// kernel's completion buffer that is valid only during the call:
	// copy the record to keep it.
	Sink func(*RequestStats)

	// audit, when non-nil, runs after every station event and every
	// delivery. Tests set it (export_test.go) to check the gauges
	// against the stations they summarise; it stays nil otherwise.
	audit func()

	cfg      Config
	ran      bool
	stations []*Station
	gauges   []Gauge        // one per station, indexed by ID (see Gauges)
	tree     eventTree      // every station's next event (see eventTree)
	done     []RequestStats // completions not yet flushed, in completion order
	flushAt  int            // len(done) that triggers the next flush
	scratch  *Scratch       // arena to Release into, when recycling

	// arrivals and transfers count deliveries, scaleTicks ScaleTick
	// calls, rekeys lazy window re-keys (see EventCounts).
	arrivals, transfers, scaleTicks, rekeys int

	// Disaggregation state. pending[phead:] is the kv-transfer
	// delivery queue, sorted by (delivery time, request ID) with the
	// same cursor-and-compact discipline as station queues; it stays
	// empty in an aggregated fleet. hasPrefill gates Run's
	// disaggregation checks.
	pending    []transfer
	phead      int
	hasPrefill bool
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
	s.k = k
	s.Engine, s.Alloc = eng, alloc
	// Assert the allocator's prefix-cache view once, here, so the
	// admission hot loops test a cached field instead of repeating the
	// interface assertion per request.
	s.disc, _ = alloc.(kvcache.PrefillDiscounter)
	s.pv, _ = alloc.(prefixView)
	s.cfg = k.cfg
	s.nextAt = -1
	k.stations = append(k.stations, s)
	k.gauges = append(k.gauges, Gauge{})
	k.tree.grow(len(k.stations))
	if s.pv != nil {
		s.publish()
	}
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

// Stations returns every station the kernel holds, in creation order,
// including any a scaling policy has stopped routing to.
func (k *Kernel) Stations() []*Station { return k.stations }

// Gauge is the routing state of one station: what the routing and
// scaling policies read at each delivery, kept current by the kernel
// so that a policy scans one dense slice (Kernel.Gauges) instead of
// each station, its queue and its allocator.
type Gauge struct {
	// Load is the station's queued plus running requests
	// (Station.Outstanding).
	Load int
	// Hot and Restorable are the allocator's prefix view
	// (HotPrefixTokens and RestorablePrefixTokens, which
	// kvcache.PrefixPaged and kvcache.Tiered have): shared-prefix tokens
	// resident on the device and tokens demoted to a host tier. Pending is the station's
	// prefill backlog (Station.PendingPrefillTokens). All three stay 0
	// on a station whose allocator has no prefix view.
	Hot, Restorable, Pending int
}

// Gauges returns every station's gauge, indexed by station ID. The
// kernel owns the slice: callers only read it, and read it afresh at
// each routing or scaling call, because NewStation may grow it.
func (k *Kernel) Gauges() []Gauge { return k.gauges }

// EventCounts tallies a run's events across every station. The
// counts describe how the kernel got to its Result, not the Result
// itself — a Stepped run and a coalesced run agree on DecodeSteps but
// not on Windows — so they live on the Kernel.
type EventCounts struct {
	// Arrivals counts trace arrivals delivered; Transfers counts
	// kv-transfer deliveries to the decode pool.
	Arrivals, Transfers int
	// ScaleTicks counts ScaleTick calls: one per arrival when a
	// handler is set, zero otherwise.
	ScaleTicks int
	// Events counts station (window-exhausted) events run: stepped
	// iterations, window opens and commits, static batches and
	// admission-only events.
	Events int
	// Windows counts coalesced decode windows opened; always zero in
	// Stepped mode.
	Windows int
	// DecodeSteps counts decode iterations executed, coalesced or
	// stepped.
	DecodeSteps int
	// Cuts counts open windows cut short by a delivery to their
	// station.
	Cuts int
	// Completions counts completed requests.
	Completions int
	// Priced counts window step costs added to a station clock: each
	// committed window step once, plus any steps summed again when a
	// delivery lands before a window's priced cursor.
	Priced int
	// Rekeys counts lazy re-keys: event-tree roots whose window key
	// was a lower bound below the next delivery, advanced without
	// running an event.
	Rekeys int
}

// Counts reports the kernel's event counts; read it after Run.
func (k *Kernel) Counts() EventCounts {
	c := EventCounts{Arrivals: k.arrivals, Transfers: k.transfers, ScaleTicks: k.scaleTicks, Rekeys: k.rekeys}
	for _, s := range k.stations {
		c.Events += s.events
		c.Windows += s.windows
		c.DecodeSteps += s.steps
		c.Cuts += s.cuts
		c.Completions += s.done
		c.Priced += s.priced
	}
	return c
}

// StationResult summarises one station after Run.
type StationResult struct {
	Completed int
	BusyS     float64 // time spent executing iterations
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
	// Finished holds every completed request, in (finish time,
	// request ID) order — the representation-independent order both the
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
		// pool, and chunked prefill would interleave hand-offs
		// mid-prompt. Both are rejected rather than silently
		// mis-simulated.
		if k.cfg.Static || k.cfg.ChunkedPrefill {
			return Result{}, errors.New("des: pool roles (disaggregation) require plain continuous scheduling (no Static or ChunkedPrefill)")
		}
		if err := k.cfg.Transfer.Validate(); err != nil {
			return Result{}, err
		}
		if k.RouteTransfer == nil {
			return Result{}, errors.New("des: prefill stations require a RouteTransfer callback")
		}
	}
	route := k.Route
	if route == nil {
		route = func(float64) *Station { return k.stations[0] }
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
			// A NaN arrival would never compare equal to the delivery
			// instant and the delivery loop would spin forever.
			return Result{}, fmt.Errorf("des: request %d has non-finite arrival %v", r.ID, r.Arrival)
		}
		if r.Arrival < 0 {
			// A station woken at a negative time would read as idle
			// (nextAt < 0) and drop off the event queue with work left.
			// −0 passes: it keys as +0 (treeKey).
			return Result{}, fmt.Errorf("%w: request %d arrives at %v", ErrNegativeArrival, r.ID, r.Arrival)
		}
	}

	if k.Sink == nil {
		// The ledger holds every request once, and leaves with the
		// Result: size it once, unless a ledger recycled through the
		// arena (Scratch.Recycle) is already large enough.
		k.done = slices.Grow(k.done[:0], len(reqs))
	}
	k.flushAt = flushBatch
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
		// Every station event strictly before t, in (time, ID) order. A
		// prefill event may schedule a kv-transfer earlier than t, so t
		// is recomputed after each event.
		for at, id := k.tree.root(); at < t; at, id = k.tree.root() {
			s := k.stations[id]
			if s.lazy() {
				// A lower-bound key: price the window up to t (or its
				// last step, which makes the key exact) and re-key.
				s.advance(t)
				k.rekeys++
				k.tree.set(id, s.nextAt)
				continue
			}
			if err := s.event(); err != nil {
				return Result{}, err
			}
			if s.pv != nil && s.moved {
				s.publish()
			}
			k.tree.set(id, s.nextAt)
			if k.audit != nil {
				k.audit()
			}
			if k.phead < len(k.pending) && k.pending[k.phead].at < t {
				t = k.pending[k.phead].at
			}
		}
		if k.Sink != nil && len(k.done) >= k.flushAt {
			k.flush(t)
		}
		if math.IsInf(t, 1) {
			break
		}
		for i < len(ordered) && ordered[i].Arrival == t {
			if k.ScaleTick != nil {
				k.scaleTicks++
				if err := k.ScaleTick(t); err != nil {
					return Result{}, err
				}
			}
			s := route(t)
			if s == nil {
				return Result{}, errors.New("des: router returned no station")
			}
			if err := k.deliver(s, &ordered[i], nil, t); err != nil {
				return Result{}, err
			}
			if k.audit != nil {
				k.audit()
			}
			k.arrivals++
			i++
		}
		for k.phead < len(k.pending) && k.pending[k.phead].at == t {
			// x stays valid until deliver has copied it: only
			// insertPending writes pending's entries, from a prefill
			// station's event, and neither RouteTransfer nor deliver
			// runs one before enqueue copies x into the queue.
			x := &k.pending[k.phead]
			k.phead++
			if k.phead == len(k.pending) {
				k.pending, k.phead = k.pending[:0], 0
			}
			s := k.RouteTransfer(t)
			if s == nil {
				return Result{}, errors.New("des: transfer router returned no station")
			}
			if err := k.deliver(s, &x.req, &x.stats, t); err != nil {
				return Result{}, err
			}
			if k.audit != nil {
				k.audit()
			}
			k.transfers++
		}
	}
	if k.Sink != nil {
		k.flush(math.Inf(1))
	}
	return k.collect(), nil
}

// deliver hands a routed arrival or kv-transfer to its station at t:
// an idle station wakes at t, and a station inside an open coalesced
// window cuts it at the first step boundary at or after t, where the
// request can be admitted. carry is a kv-transfer's lifecycle so far,
// nil for a trace arrival; both are copied into the station's queue
// before anything else runs. The cut boundary precedes the window's
// last step but may follow its lower-bound key; one set re-keys the
// station either way. The station's load rises by one; a cut moves no
// other gauge (it completes nothing and only Extends, see cut).
func (k *Kernel) deliver(s *Station, req *workload.Request, carry *RequestStats, t float64) error {
	s.enqueue(req, carry)
	k.gauges[s.ID].Load++
	var err error
	if s.nextAt < 0 {
		s.nextAt = t
	} else {
		err = s.cut(t)
	}
	k.tree.set(s.ID, s.nextAt)
	return err
}

// flushBatch is how many completions the Sink buffer gathers beyond
// its carried-over tail before it is flushed.
const flushBatch = 1024

// record inserts a completion into the buffer at its (finish time,
// request ID) position, so the buffer is always in completion order.
// Stations append completions in event order, which depends on how
// many iterations each event carries — a coalesced window surfaces its
// completions when the window ends, a stepped run interleaves them
// with other stations' events — so the raw append order is
// representation-dependent. Completion times are not: ordering on them
// makes Stats (including the float summation order inside
// sched.Summarize) identical for every kernel mode. (finish time,
// request ID) is a total order — IDs are unique — so the position is
// unique too.
//
// The insert scans back from the tail. A completion recorded at kernel
// time T finishes at the end of the iteration that starts at T (a
// static batch at T itself), and every completion already buffered
// finished by the end of an iteration that started at or before T. So
// only completions less than one iteration after T can follow it: the
// scan is short.
func (k *Kernel) record(r *RequestStats) {
	done := append(k.done, RequestStats{})
	i := len(done) - 1
	for i > 0 && (done[i-1].Finished > r.Finished ||
		(done[i-1].Finished == r.Finished && done[i-1].ID > r.ID)) {
		done[i] = done[i-1]
		i--
	}
	done[i] = *r
	k.done = done
}

// flush streams every buffered completion that can no longer be
// reordered out to the Sink. It runs at delivery instant t, after
// every station event before t: any future completion finishes at or
// after t, so the buffered completions strictly before t are final,
// and completions tied at one instant always flush together. The
// buffer is in (finish time, request ID) order (record), so its final
// prefix is found by binary search and delivered, making the
// concatenated flushes exactly the order Result.Finished would have;
// the rest is carried to the next flush.
func (k *Kernel) flush(t float64) {
	buf := k.done
	n := sort.Search(len(buf), func(i int) bool { return buf[i].Finished >= t })
	for i := range buf[:n] {
		k.Sink(&buf[i])
	}
	k.done = buf[:copy(buf, buf[n:])]
	k.flushAt = len(k.done) + flushBatch
}

// collect assembles the Result. On ledgered runs the completion
// buffer, already in completion order (record), becomes
// Result.Finished; it leaves the kernel, so Release cannot recycle it
// under the caller.
func (k *Kernel) collect() Result {
	var res Result
	if k.Sink == nil {
		res.Finished, k.done = k.done, nil
	}
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
			Completed: s.done, BusyS: s.busy,
			Transferred:     s.transferred,
			PrefixHitTokens: s.hitToks,
			PromptTokens:    s.promptToks,
		})
	}
	return res
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
