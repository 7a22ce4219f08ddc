// Package cluster simulates a serving deployment: N independent
// engine replicas behind a request router — the deployment question
// the paper's data exists to answer, how many of which accelerator
// meet a target load (§VII: "the choice … should be tailored to
// specific user scenarios and infrastructure constraints"). A
// single-replica scheduler is a one-replica Serve.
//
// Every aggregated continuous replica preempts under KV pressure: a
// decode step that cannot extend its sequence's KV reservation evicts
// the sequence and requeues it for recompute (Stats.Preemptions). A
// request whose context overflows the pool even when it runs alone can
// never finish, so it fails the run with kvcache.ErrOutOfMemory. A
// decode-pool replica of a disaggregated fleet cannot recompute a
// prompt prefilled elsewhere, so its KV running dry fails the run
// with kvcache.ErrOutOfMemory. Static replicas reserve each request's
// full context up front and never preempt.
//
// Three routing policies are provided: round-robin,
// join-the-shortest-queue (least outstanding work) and prefix-cache
// affinity within a load window (Prefix). The fleet can
// additionally be disaggregated into a prefill pool and a decode pool
// (Config.PrefillReplicas): arrivals route within the prefill pool,
// and each completed prefill hands its KV blocks to a decode-pool
// replica via a priced kv-transfer event (Config.Transfer) — the
// routing policy then applies within each pool independently.
//
// The fleet is fixed unless Config.Autoscale is set: then it starts
// as Config.Replicas and grows under queue pressure and shrinks when
// replicas sit idle (autoscale.go), routing least-loaded.
//
// The event loop is the shared discrete-event kernel (internal/des):
// this package contributes only the routers and the autoscaler's
// scale-tick handler; the kernel owns arrival delivery, the
// coalesced-window advance, and the determinism contract, with Stats
// byte-identical between the coalesced and Stepped paths.
package cluster

import (
	"errors"
	"fmt"

	"llmbench/internal/des"
	"llmbench/internal/engine"
	"llmbench/internal/kvcache"
	"llmbench/internal/sched"
	"llmbench/internal/workload"
)

// Policy selects the router.
type Policy int

const (
	// RoundRobin cycles through replicas.
	RoundRobin Policy = iota
	// LeastLoaded joins the replica with the fewest outstanding
	// requests (queued + running).
	LeastLoaded
	// Prefix routes to the replica with the longest expected
	// prefix-cache hit for the incoming request — a replica whose
	// allocator holds the shared prefix hot (resident on the device)
	// beats one that must restore it from the host tier, which beats
	// one that must re-prefill it — considering only replicas within a
	// small load window of the least-loaded one, so affinity never
	// builds an unbounded queue on the warm replica. With plain
	// (prefix-blind) allocators it degrades to least-loaded.
	Prefix
)

func (p Policy) String() string {
	switch p {
	case RoundRobin:
		return "round-robin"
	case LeastLoaded:
		return "least-loaded"
	case Prefix:
		return "prefix"
	}
	return fmt.Sprintf("policy(%d)", int(p))
}

// Replica is one serving instance.
type Replica struct {
	Engine *engine.Engine
	Alloc  kvcache.Allocator
}

// Config parameterises a cluster simulation. Continuous aggregated
// replicas preempt and recompute when their KV pool runs dry, unless
// a request overflows the pool alone; decode-pool replicas
// (PrefillReplicas > 0) fail the run instead.
type Config struct {
	// Replicas is the fleet: fixed, or with Autoscale set the initial
	// fleet and the floor scale-downs never go below.
	Replicas []Replica
	Policy   Policy
	MaxBatch int // per replica

	// Autoscale, when non-nil, makes the fleet dynamic: replicas built
	// by Autoscale.Factory join under queue pressure, up to
	// Autoscale.Max live at once, and empty replicas retire when the
	// rest run comfortably. The autoscaler routes least-loaded, so it
	// requires Policy LeastLoaded, and it requires an aggregated fleet
	// (PrefillReplicas 0). Nil means a fixed fleet.
	Autoscale *Autoscale

	// PrefillReplicas > 0 splits the fleet into a prefill pool (the
	// first PrefillReplicas replicas) and a decode pool (the rest):
	// prefill/decode disaggregation. Trace arrivals route into the
	// prefill pool and completed prefills hand their KV blocks to the
	// decode pool via priced kv-transfer events (Transfer); the Policy
	// applies within each pool independently. Requires
	// 1 ≤ PrefillReplicas < len(Replicas) and a valid Transfer;
	// incompatible with Static (the decode pool needs iteration-level
	// admission for hand-offs). Zero means aggregated: every replica
	// runs both phases.
	PrefillReplicas int
	// Transfer prices the prefill→decode KV hand-off; required (and
	// validated) when PrefillReplicas > 0, ignored otherwise.
	Transfer des.TransferCost

	// Static runs every replica with pre-Orca static batching
	// (des.Config.Static): collect a batch, run it to completion,
	// repeat. The router and autoscaler drive static replicas exactly
	// like continuous ones — only the per-station admission policy
	// changes.
	Static bool

	// ChunkedPrefill runs every replica with Dynamic-SplitFuse-style
	// admission (des.Config.ChunkedPrefill): prompts prefill in
	// PrefillChunk-token slices fused into decode iterations, so a
	// long admission prefill never stalls the replica's running
	// requests — the pairing that makes prefix-affinity routing
	// (Policy Prefix) worthwhile, since arrivals steered to a warm
	// replica admit behind at most one slice instead of a whole
	// prompt. Incompatible with Static (no iteration-level admission
	// to fuse into) and with disaggregation (the prefill pool hands
	// off whole prompts).
	ChunkedPrefill bool
	// PrefillChunk is the slice size in tokens (0 means 512; negative
	// values are rejected).
	PrefillChunk int

	// Deprecated: ignored; the kernel is serial.
	Parallelism int

	// Stepped disables iteration coalescing (see internal/des): one
	// decode iteration per simulator event instead of fast-forwarding
	// identical iterations between state changes. Output is
	// byte-identical either way; the flag exists as the reference path
	// for the equivalence tests.
	Stepped bool

	// Streaming aggregates completions incrementally (des.Kernel.Sink
	// into a sched.StreamAggregator) instead of retaining the
	// per-request ledger: O(1) stats memory for million-request traces.
	// Non-percentile aggregates are byte-identical to the exact path;
	// percentiles are P² sketch estimates (see the accuracy contract in
	// internal/sched/stream.go) and Stats.Requests is nil.
	Streaming bool

	// Scratch, when non-nil, recycles kernel slices and station shells
	// (request free lists included) across runs — see des.Scratch.
	// Results are byte-identical with or without it; sweeps pass one
	// per worker so per-point setup stops allocating.
	Scratch *des.Scratch

	// Counts, when non-nil, receives the kernel's event counts
	// (des.Kernel.Counts) once the kernel run returns without error.
	Counts *des.EventCounts
}

// Stats aggregates the run; PerReplica reports each replica's share,
// retired autoscaled replicas included, in creation order.
type Stats struct {
	sched.Stats
	PerReplica []ReplicaStats
	// ScaleEvents is the autoscaler's capacity trajectory and
	// PeakReplicas its live-replica high-water mark; both are zero on
	// fixed fleets.
	ScaleEvents  []ScaleEvent
	PeakReplicas int
}

// ReplicaStats summarises one replica.
type ReplicaStats struct {
	Completed int
	BusyS     float64 // time spent executing iterations
	Util      float64 // BusyS / makespan
	// Transferred counts prefill sub-requests handed to the decode
	// pool; non-zero only on prefill-pool replicas, whose Completed is
	// in turn always zero (requests finish on the decode pool).
	Transferred int
}

// Serve routes the trace across the replicas and runs to completion.
// With cfg.Autoscale set the fleet grows and shrinks under load,
// starting from cfg.Replicas.
func Serve(cfg Config, reqs []workload.Request) (Stats, error) {
	if err := cfg.validate(reqs); err != nil {
		return Stats{}, err
	}
	k := des.New(des.Config{
		MaxBatch:       cfg.MaxBatch,
		ChunkedPrefill: cfg.ChunkedPrefill,
		PrefillChunk:   cfg.PrefillChunk,
		Static:         cfg.Static,
		Stepped:        cfg.Stepped,
		Transfer:       cfg.Transfer,
	})
	k.Reuse(cfg.Scratch)
	defer k.Release()
	stations := make([]*des.Station, len(cfg.Replicas))
	var sc *scaler
	if cfg.PrefillReplicas > 0 {
		for i, r := range cfg.Replicas {
			role := des.RolePrefill
			if i >= cfg.PrefillReplicas {
				role = des.RoleDecode
			}
			stations[i] = k.NewPoolStation(r.Engine, r.Alloc, role)
		}
		// Arrivals route within the prefill pool, kv-transfer
		// deliveries within the decode pool — each with its own router
		// state, under the one configured policy.
		k.Route = poolRouter(cfg, k, stations[:cfg.PrefillReplicas])
		k.RouteTransfer = poolRouter(cfg, k, stations[cfg.PrefillReplicas:])
	} else {
		for i, r := range cfg.Replicas {
			stations[i] = k.NewStation(r.Engine, r.Alloc)
		}
		if cfg.Autoscale != nil {
			sc = installScaler(k, *cfg.Autoscale, stations)
		} else {
			k.Route = poolRouter(cfg, k, stations)
		}
	}
	var agg *sched.StreamAggregator
	if cfg.Streaming {
		stream := sched.NewStreamAggregator()
		agg = stream
		k.Sink = func(r *des.RequestStats) { stream.Observe(*r) }
	}
	res, err := k.Run(reqs)
	if err != nil {
		return Stats{}, fmt.Errorf("cluster: %w", err)
	}
	if cfg.Counts != nil {
		*cfg.Counts = k.Counts()
	}
	if res.Completed != len(reqs) {
		return Stats{}, fmt.Errorf("cluster: only %d of %d requests completed", res.Completed, len(reqs))
	}
	stats, err := sched.ResultStats(res, agg)
	if err != nil {
		return Stats{}, err
	}
	out := Stats{Stats: stats}
	for _, ps := range res.PerStation {
		out.PerReplica = append(out.PerReplica, ReplicaStats{
			Completed:   ps.Completed,
			BusyS:       ps.BusyS,
			Util:        ps.BusyS / res.MakespanS,
			Transferred: ps.Transferred,
		})
	}
	if sc != nil {
		out.ScaleEvents, out.PeakReplicas = sc.events, sc.peak
	}
	return out, nil
}

// validate rejects configurations the kernel cannot serve.
func (cfg *Config) validate(reqs []workload.Request) error {
	if len(cfg.Replicas) == 0 {
		return errors.New("cluster: no replicas")
	}
	if cfg.MaxBatch < 1 {
		return errors.New("cluster: MaxBatch must be ≥ 1")
	}
	if len(reqs) == 0 {
		return errors.New("cluster: empty trace")
	}
	if cfg.PrefillChunk < 0 {
		return fmt.Errorf("cluster: negative PrefillChunk %d", cfg.PrefillChunk)
	}
	if cfg.ChunkedPrefill && cfg.Static {
		return errors.New("cluster: chunked prefill does not compose with static batching (no iteration-level admission to fuse slices into)")
	}
	for i, r := range cfg.Replicas {
		if r.Engine == nil || r.Alloc == nil {
			return fmt.Errorf("cluster: replica %d incomplete", i)
		}
	}
	if cfg.Autoscale != nil {
		if err := cfg.Autoscale.validate(cfg); err != nil {
			return err
		}
	}
	if cfg.PrefillReplicas > 0 {
		if cfg.ChunkedPrefill {
			return errors.New("cluster: chunked prefill does not compose with disaggregation (the prefill pool hands off whole prompts)")
		}
		if cfg.PrefillReplicas >= len(cfg.Replicas) {
			return fmt.Errorf("cluster: PrefillReplicas %d leaves no decode replicas (fleet of %d)",
				cfg.PrefillReplicas, len(cfg.Replicas))
		}
		if cfg.Static {
			return errors.New("cluster: static batching does not compose with disaggregation (the decode pool needs iteration-level admission)")
		}
		if err := cfg.Transfer.Validate(); err != nil {
			return fmt.Errorf("cluster: %w", err)
		}
	}
	return nil
}

// poolRouter builds the routing closure over one station group. It
// reads no station state: each policy scans the kernel's dense
// per-station gauges (des.Kernel.Gauges), one record per station
// holding its load and, on prefix-aware allocators, its prefix
// residency and prefill backlog, over the group's station IDs, which
// are fixed when the router is built. Round-robin cycles the group;
// least-loaded joins the first member with the fewest outstanding
// requests (pickLeast); prefix joins the member with the longest
// expected prefix-cache hit among those within a load window of the
// least-loaded (pickPrefix). The aggregated fleet is one group spanning
// every station, and a disaggregated fleet builds one router per pool.
func poolRouter(cfg Config, k *des.Kernel, group []*des.Station) func(now float64) *des.Station {
	ids := make([]int, len(group))
	for i, s := range group {
		ids[i] = s.ID
	}
	switch cfg.Policy {
	case RoundRobin:
		rr := 0
		return func(float64) *des.Station {
			s := group[rr%len(group)]
			rr++
			return s
		}
	case Prefix:
		// The load window: affinity may steer an arrival to a replica up
		// to a quarter of the batch cap busier than the least-loaded one.
		// A cache hit admits nearly for free in either admission mode (its
		// prefix tokens are excluded from the admission prefill, and in
		// chunked mode its suffix is one fused slice), so the window
		// concentrates hits without queueing tail latency; wider windows
		// pile the warm set so deep that batched decode gives back more
		// than the skipped prefill saved.
		slack := max(cfg.MaxBatch/4, 1)
		return func(float64) *des.Station { return group[pickPrefix(k.Gauges(), ids, slack)] }
	}
	return func(float64) *des.Station { return group[pickLeast(k.Gauges(), ids)] }
}

// pickLeast returns the position in ids of the first station with the
// lowest load. The least-loaded router and the autoscaler's router
// share it; ids must not be empty.
func pickLeast(g []des.Gauge, ids []int) int {
	best, bestLoad := 0, g[ids[0]].Load
	for i, id := range ids[1:] {
		if l := g[id].Load; l < bestLoad {
			best, bestLoad = i+1, l
		}
	}
	return best
}

// pickPrefix returns the position in ids of the prefix router's pick:
// cache affinity bounded by load. Among the stations within slack of
// the minimum load, hot prefixes (no cost) beat restorable ones
// (host-link cost only), which beat cold stations; ties go to the
// lighter station, then to ids order. ids must not be empty.
//
// The pick is one comparison per station. A station in the window
// ranks by the key score·(slack+1) + (minLoad+slack − Load): its load
// sits in [minLoad, minLoad+slack], so the second term lies in
// [0, slack] and orders equal scores lightest first without reaching
// the next score. A station outside the window keys −1, below every
// station in it. The first station with the highest key wins, which is
// the order above. Scores are prefix-token counts, bounded by a
// device's KV pool, so the key stays far inside the int range.
func pickPrefix(g []des.Gauge, ids []int, slack int) int {
	minLoad := g[ids[0]].Load
	for _, id := range ids[1:] {
		minLoad = min(minLoad, g[id].Load)
	}
	best, bestKey := 0, -1
	for i, id := range ids {
		x := &g[id]
		// Hot blocks count double, demoted ones once — a hit is free, a
		// restore costs only the host link. A station whose prefill
		// backlog rivals its hot count is still materializing that
		// prefix (blocks score hot the moment they allocate, a full
		// prompt before any of it is computed): score it cold, because
		// arrivals steered there ride every establishment slice through
		// inflated iterations. They go to an established station when one
		// is in the window, and otherwise start a second establishment —
		// which widens the warm set and runs clean instead of piling onto
		// the first. A station without a prefix view has all three
		// gauges at zero, so it scores cold.
		hot := x.Hot
		if 2*x.Pending >= hot {
			hot = 0
		}
		key := (2*hot+x.Restorable)*(slack+1) + minLoad + slack - x.Load
		if x.Load > minLoad+slack {
			key = -1
		}
		if key > bestKey {
			best, bestKey = i, key
		}
	}
	return best
}
