package llmbench

import (
	"errors"
	"fmt"
	"math"
	"runtime"
	"strconv"
	"strings"
	"sync"

	"llmbench/internal/cluster"
	"llmbench/internal/des"
	"llmbench/internal/engine"
	"llmbench/internal/kvcache"
	"llmbench/internal/pool"
	"llmbench/internal/workload"
)

// ServePolicy selects the batching, routing, and capacity strategy of
// one serving-sweep point. The zero value is the common production
// baseline: continuous batching, round-robin routing, fixed fleet.
type ServePolicy struct {
	// Static runs pre-Orca static batching instead of continuous
	// batching (§IV-A1): each replica collects a batch, runs it to
	// completion, and repeats. Static batching is a station policy on
	// the shared DES kernel, so it composes with every routing and
	// capacity option — multi-replica fleets, least-loaded routing,
	// and autoscaling drive static replicas exactly like continuous
	// ones.
	Static bool
	// LeastLoaded routes to the replica with the fewest outstanding
	// requests instead of cycling round-robin.
	LeastLoaded bool
	// Prefix routes prefix-aware (cluster.Prefix): among replicas
	// within a load window of the least-loaded, pick the one with the
	// longest expected prefix-cache hit — hot prefixes beat
	// host-tier-restorable ones beat cold replicas. With prefix-blind
	// allocators (no PrefixShares axis) it degrades to least-loaded.
	// Mutually exclusive with LeastLoaded and Autoscale.
	Prefix bool
	// Autoscale grows the fleet from 1 replica up to the point's
	// replica count under queue pressure instead of holding it fixed
	// (see internal/cluster); the point's Replicas value becomes the
	// capacity ceiling. The autoscaler always routes least-loaded, so
	// LeastLoaded changes only the policy's name when Autoscale is
	// set, and Prefix is rejected (ErrPrefixAutoscale).
	Autoscale bool

	// PrefillPool and DecodePool select the serving topology. Both
	// zero — the default — is the aggregated topology: every replica
	// runs both request phases. Both positive is prefill/decode
	// disaggregation with pools in that ratio: a point's fleet of
	// Replicas splits into Replicas×P/(P+D) prefill and the rest
	// decode replicas (Replicas must divide evenly by P+D, or the
	// point fails with Err), prefills hand their KV to the decode pool
	// over the device interconnect (priced per hw.InterconnectGBs and
	// InterconnectLatencyUS; see des.TransferCost), and the routing
	// policy applies within each pool. Disaggregation composes with
	// LeastLoaded but not with Static or Autoscale.
	PrefillPool int
	DecodePool  int
}

// Disagg reports whether the policy selects the disaggregated
// topology (a non-zero pool split).
func (p ServePolicy) Disagg() bool { return p.PrefillPool != 0 || p.DecodePool != 0 }

func (p ServePolicy) String() string {
	batching := "continuous"
	if p.Static {
		batching = "static"
	}
	topo := ""
	if p.Disagg() {
		topo = fmt.Sprintf("/disagg/%d:%d", p.PrefillPool, p.DecodePool)
	}
	switch {
	case p.Autoscale && p.LeastLoaded:
		// The autoscaler always routes least-loaded; the flag is
		// spelled out only so the round-trip holds.
		return batching + "/ll/auto" + topo
	case p.Autoscale:
		return batching + "/auto" + topo
	case p.Prefix:
		return batching + "/prefix" + topo
	case p.LeastLoaded:
		return batching + "/ll" + topo
	}
	return batching + "/rr" + topo
}

// ErrPrefixAutoscale rejects a policy that asks for prefix routing on
// an autoscaled fleet: the autoscaler always routes least-loaded, so
// the Prefix flag would be silently ignored.
var ErrPrefixAutoscale = errors.New("llmbench: prefix routing does not compose with autoscaling (the autoscaler routes least-loaded)")

// validate rejects policy combinations the simulators do not support.
// ParseServePolicy applies it at parse time and resolveServeAxes at
// sweep time, so a programmatically built grid fails identically to a
// flag-parsed one.
func (p ServePolicy) validate() error {
	if p.Prefix && p.LeastLoaded {
		return errors.New("llmbench: Prefix and LeastLoaded are mutually exclusive routing policies")
	}
	if p.Prefix && p.Autoscale {
		return ErrPrefixAutoscale
	}
	if !p.Disagg() {
		return nil
	}
	if p.PrefillPool < 1 || p.DecodePool < 1 {
		return fmt.Errorf("llmbench: disagg pool split %d:%d must have two positive shares", p.PrefillPool, p.DecodePool)
	}
	if p.Static {
		return errors.New("llmbench: static batching does not compose with disaggregation (the decode pool needs iteration-level admission)")
	}
	if p.Autoscale {
		return errors.New("llmbench: autoscaling does not compose with disaggregation (pool splits are fixed per point)")
	}
	return nil
}

// ParseServePolicy parses the textual policy form ServePolicy.String
// produces — tokens separated by '/' or ':' drawn from
// {continuous|static, rr|round-robin, ll|least-loaded, prefix,
// auto|autoscale, aggregated, disagg/<p>:<d>} — e.g. "continuous/ll",
// "continuous/prefix", "static:rr",
// "disagg/1:3", "continuous/rr/disagg/2:6". Later tokens override
// earlier ones; "disagg" consumes the next two tokens as its positive
// pool shares. Round-trip holds: ParseServePolicy(p.String()) == p
// for every valid policy.
func ParseServePolicy(s string) (ServePolicy, error) {
	var p ServePolicy
	if strings.TrimSpace(s) == "" {
		return p, fmt.Errorf("llmbench: empty serve policy %q", s)
	}
	// Split on both separators but keep empty tokens: "continuous:" is
	// a typo worth rejecting, not trailing noise worth dropping.
	toks := strings.Split(strings.ReplaceAll(s, ":", "/"), "/")
	for i := 0; i < len(toks); i++ {
		switch tok := strings.TrimSpace(toks[i]); tok {
		case "continuous":
			p.Static = false
		case "static":
			p.Static = true
		case "rr", "round-robin":
			p.LeastLoaded, p.Prefix = false, false
		case "ll", "least-loaded":
			p.LeastLoaded, p.Prefix = true, false
		case "prefix":
			p.Prefix, p.LeastLoaded = true, false
		case "auto", "autoscale":
			p.Autoscale = true
		case "aggregated":
			p.PrefillPool, p.DecodePool = 0, 0
		case "disagg":
			if i+2 >= len(toks) {
				return p, fmt.Errorf("llmbench: policy %q: disagg needs a <prefill>:<decode> pool split (e.g. disagg/1:3)", s)
			}
			pre, err1 := strconv.Atoi(strings.TrimSpace(toks[i+1]))
			dec, err2 := strconv.Atoi(strings.TrimSpace(toks[i+2]))
			if err1 != nil || err2 != nil || pre < 1 || dec < 1 {
				return p, fmt.Errorf("llmbench: policy %q: malformed disagg pool split %q:%q (want two positive integers, e.g. disagg/1:3)",
					s, toks[i+1], toks[i+2])
			}
			p.PrefillPool, p.DecodePool = pre, dec
			i += 2
		default:
			return p, fmt.Errorf("llmbench: policy %q: unknown token %q (want continuous|static, rr|ll|prefix, auto, aggregated, or disagg/<p>:<d>)", s, tok)
		}
	}
	if err := p.validate(); err != nil {
		return p, fmt.Errorf("policy %q: %w", s, err)
	}
	return p, nil
}

// LengthMix is one entry of the trace-shape axis: the input/output
// length medians of a ChatTrace-backed point (lognormal with heavy
// tails; see workload.ChatTraceConfig).
type LengthMix struct {
	Input  int // median prompt tokens
	Output int // median generated tokens
}

// ServeGrid enumerates the points of a serving-capacity sweep. Rates
// is required; Replicas, MaxBatches, and Policies default to the base
// configuration's single value. Devices, Frameworks, and Schemes are
// the same configuration axes Grid has, resolving one cached engine
// per combination.
//
// Axes nest in a fixed order — Devices outermost, then Frameworks,
// Schemes, Policies, Replicas, MaxBatches, PrefixShares, BurstFactors,
// LengthMixes, and Rates innermost — so output is deterministic, and
// scanning one configuration's rate ladder (the capacity question)
// reads contiguously.
type ServeGrid struct {
	// Rates is the arrival-rate axis in requests/s. Required on
	// synthesized grids; every value must be positive and finite. On
	// trace-replay grids (Trace set) an empty Rates axis replays the
	// trace once at its native rate, and a non-empty one rescales the
	// recorded arrival offsets to each value (workload.ScaleToRate) —
	// order, lengths, and burst shape preserved — turning the axis
	// into a what-if intensity ladder over recorded traffic.
	Rates []float64

	// Trace, when non-empty, replays a recorded trace (see ReadTrace)
	// at every point instead of synthesizing traffic: all points share
	// the identical arrival process, so the policy/replica/batch axes
	// compare on exactly the traffic that was recorded. Incompatible
	// with the trace-shape axes (BurstFactors, LengthMixes) — the
	// recorded trace *is* the shape — and the base config's
	// Requests/InputMean/OutputMean are ignored. Replay points report
	// BurstFactor 0 and a zero Mix.
	Trace []TraceRequest
	// Replicas is the fleet-size axis (capacity ceiling for Autoscale
	// policies). Empty means the base config's Replicas (minimum 1).
	Replicas []int
	// MaxBatches is the per-replica concurrency-cap axis. Empty means
	// the base config's MaxBatch.
	MaxBatches []int
	// Policies is the batching/routing/autoscale axis. Empty means the
	// zero ServePolicy (continuous batching, round-robin, fixed fleet).
	Policies []ServePolicy

	// BurstFactors and LengthMixes are the trace-shape axes. Setting
	// either switches every point's trace from the base config's plain
	// Poisson process to workload.ChatTrace: a rate-preserving
	// two-state MMPP (bursts at rate×factor, calm at rate/factor) with
	// heavy-tailed lognormal lengths — the traffic the autoscale
	// policy exists for. Points at one (burst, mix, rate) position
	// share a single arrival process, and distinct positions draw from
	// isolated seed streams, so every other axis compares like for
	// like on identical traffic.
	//
	// BurstFactors values must be ≥ 1 and finite (1 = no bursts);
	// empty means {1} when LengthMixes is set. LengthMixes entries are
	// the lognormal length medians; empty means one entry at the base
	// config's InputMean/OutputMean. Generated lengths clamp to
	// [16, 8192]; a mix ChatTrace rejects (medians below 16) fails
	// its points individually, not the sweep.
	BurstFactors []float64
	LengthMixes  []LengthMix

	// PrefixShares is the shared-prefix trace-shape axis: each value
	// in [0, 1) is the fraction of a point's median prompt served by
	// one fleet-wide shared system prompt
	// (workload.ChatTraceConfig.PrefixTokens). A non-zero share gives
	// every replica a tiered prefix-sharing allocator (GPU
	// PrefixPaged + CPU host tier; see ServeSweepConfig.HostKVGiB)
	// regardless of routing policy, so the Policies axis compares
	// rr/ll/prefix on identical caches. Setting the axis switches the
	// trace generator to ChatTrace like the other trace-shape axes;
	// empty means {0} (no shared prefix, plain allocators). A share
	// whose remaining per-request median falls below ChatTrace's floor
	// (16 tokens) fails its points individually.
	PrefixShares []float64

	// Configuration axes, identical to Grid: each (device, framework,
	// scheme) combination resolves one engine through the shared
	// engine cache; a combination that fails to build marks its
	// points' Err instead of aborting the sweep.
	Devices    []string
	Frameworks []string
	Schemes    []Scheme

	// Parallelism bounds the sweep's worker count; values below 1
	// mean GOMAXPROCS. Workers beyond one per point advance each
	// point's replicas on goroutines instead (see internal/des).
	// Results are ordered by grid position regardless, so output is
	// byte-identical at any setting.
	Parallelism int
}

// ServeSweepConfig is the base serving configuration a ServeGrid
// varies: the system under test, the trace shape, and the defaults
// for every axis the grid leaves unset.
type ServeSweepConfig struct {
	System System

	// Replicas and MaxBatch are the per-point defaults when the
	// grid's Replicas/MaxBatches axes are empty. Replicas below 1
	// means 1; MaxBatch must be ≥ 1 if the MaxBatches axis is unset.
	Replicas int
	MaxBatch int

	// KVBudgetGiB is the per-replica paged-KV pool size; 0 sizes it
	// from the device's free memory after weights. Negative budgets
	// are rejected.
	KVBudgetGiB float64

	// HostKVGiB is the per-replica CPU-tier capacity for shared-prefix
	// points (ServeGrid.PrefixShares): demoted prefix blocks park
	// there and restore over the device's host link instead of
	// re-prefilling. 0 mirrors the device KV budget; negative, NaN,
	// and infinite values are rejected. Ignored without a prefix
	// share.
	HostKVGiB float64

	// ChunkedPrefill runs every replica with Dynamic-SplitFuse-style
	// admission (cluster.Config.ChunkedPrefill): prompts prefill in
	// PrefillChunk-token slices fused into decode iterations. The
	// pairing that lets prefix-affinity routing concentrate arrivals
	// on warm replicas without queueing them behind whole admission
	// prefills. Static or disaggregated policy entries reject it per
	// point.
	ChunkedPrefill bool
	// PrefillChunk is the slice size in tokens (default 512).
	PrefillChunk int

	// Trace parameters. Every point generates a private trace whose
	// seed is derived from Seed and the point's position on the
	// trace-shape axes (burst factor, length mix, rate) — points with
	// one trace shape share one arrival process, so the replica,
	// batch, and policy axes compare like for like. InputMean and
	// OutputMean are the Poisson means, and double as the default
	// length-mix medians when the grid's trace axes are set.
	Seed       uint64
	Requests   int
	InputMean  int
	OutputMean int

	// BurstLenS is the mean burst dwell time for trace-axis
	// (ChatTrace) points; 0 means the generator default (5 s).
	// Ignored on plain Poisson grids.
	BurstLenS float64

	// Sigma is the lognormal length spread for trace-axis (ChatTrace)
	// points; 0 means the default 0.7 (public chat datasets' heavy
	// tails). Lower values model templated traffic — batch extraction,
	// classification over a shared system prompt — whose tight output
	// tail lets prefill costs, and so prefix-cache routing, dominate
	// the tail percentiles. Ignored on plain Poisson grids.
	Sigma float64

	// LeanStats drops the per-request ledger (Stats.Requests) from
	// every returned point, shrinking a big grid's memory footprint by
	// ~100× when only the aggregates matter. Every aggregate —
	// percentiles, means, throughput, per-replica shares — is
	// unchanged.
	LeanStats bool

	// StreamStats goes further than LeanStats: completions are
	// aggregated incrementally (P² percentile sketches; see
	// internal/sched/stream.go) instead of ledgered and sorted, so a
	// point's stats memory is O(1) in trace length — the mode for
	// million-request replays. Non-percentile aggregates are
	// byte-identical to the exact path; percentiles carry the sketch's
	// documented ≤ 1% relative error. Implies LeanStats.
	StreamStats bool

	// Autoscale tuning for Policies with Autoscale set. Zero values
	// mean UpOutstanding = 2×MaxBatch, DownIdleS = 3s, CooldownS = 1s
	// (the dashboard's defaults).
	UpOutstanding int
	DownIdleS     float64
	CooldownS     float64
}

// ReplicaStats re-exports the cluster's per-replica summary.
type ReplicaStats = cluster.ReplicaStats

// ServeSweepPoint is one serving-grid point's outcome. The
// configuration fields record the effective values (identical to the
// base config where the corresponding axis is unset). Err records
// points that fail individually — a combination that cannot build, a
// fleet the workload overruns — without aborting the rest of the
// sweep.
type ServeSweepPoint struct {
	Device    string
	Framework string
	Scheme    Scheme
	Policy    ServePolicy
	Replicas  int
	MaxBatch  int
	// BurstFactor and Mix record the point's trace shape: on plain
	// Poisson grids BurstFactor is 0 and Mix echoes the base config's
	// means; on grids with trace axes they are the ChatTrace burst
	// factor and lognormal length medians.
	BurstFactor float64
	Mix         LengthMix
	// PrefixShare is the point's shared-prefix fraction (ServeGrid.
	// PrefixShares); 0 on grids without the axis.
	PrefixShare float64
	Rate        float64

	Stats ServeStats
	// PerReplica carries each replica's share (static points
	// included — static batching runs on the same cluster kernel).
	PerReplica []ReplicaStats
	// PeakReplicas is the autoscaler's high-water mark (0 for
	// fixed-fleet points).
	PeakReplicas int
	Err          error
}

// serveAxes is the resolved, validated axis set of one ServeSweep.
type serveAxes struct {
	policies   []ServePolicy
	replicas   []int
	maxBatches []int
	shares     []float64
	bursts     []float64
	mixes      []LengthMix
	rates      []float64
	// chat records that the grid set a trace-shape axis, switching
	// every point's trace generator from PoissonTrace to ChatTrace.
	chat bool
	// replay holds the recorded trace on trace-replay grids (nil
	// otherwise): points rescale it to their rate instead of
	// synthesizing arrivals.
	replay []workload.Request
}

func (a serveAxes) perCombo() int {
	return len(a.policies) * len(a.replicas) * len(a.maxBatches) *
		len(a.shares) * len(a.bursts) * len(a.mixes) * len(a.rates)
}

func resolveServeAxes(cfg ServeSweepConfig, grid ServeGrid) (serveAxes, error) {
	a := serveAxes{
		policies:   grid.Policies,
		replicas:   grid.Replicas,
		maxBatches: grid.MaxBatches,
		shares:     grid.PrefixShares,
		bursts:     grid.BurstFactors,
		mixes:      grid.LengthMixes,
		rates:      grid.Rates,
		chat:       len(grid.BurstFactors) > 0 || len(grid.LengthMixes) > 0 || len(grid.PrefixShares) > 0,
		replay:     grid.Trace,
	}
	if len(a.replay) > 0 {
		if a.chat {
			return a, errors.New("llmbench: Trace replay is incompatible with the trace-shape axes (BurstFactors, LengthMixes, PrefixShares) — the recorded trace is the shape")
		}
		if err := workload.ValidateTrace(a.replay); err != nil {
			return a, fmt.Errorf("llmbench: %w", err)
		}
		if len(a.rates) == 0 {
			// Replay once at the trace's own intensity; instantaneous
			// single-burst traces have no native rate, so they need an
			// explicit Rates axis.
			native, err := workload.NativeRate(a.replay)
			if err != nil {
				return a, fmt.Errorf("llmbench: %w (set Rates to replay it at explicit intensities)", err)
			}
			a.rates = []float64{native}
		}
	}
	if len(a.rates) == 0 {
		return a, errors.New("llmbench: empty serve grid (no rates)")
	}
	for _, r := range a.rates {
		if !(r > 0) || math.IsInf(r, 0) {
			return a, fmt.Errorf("llmbench: arrival rate %v must be positive and finite", r)
		}
	}
	if len(a.replicas) == 0 {
		a.replicas = []int{max1(cfg.Replicas)}
	}
	for _, n := range a.replicas {
		if n < 1 {
			return a, fmt.Errorf("llmbench: replica count %d must be ≥ 1", n)
		}
	}
	if len(a.maxBatches) == 0 {
		if cfg.MaxBatch < 1 {
			return a, errors.New("llmbench: MaxBatch must be ≥ 1 when the MaxBatches axis is unset")
		}
		a.maxBatches = []int{cfg.MaxBatch}
	}
	for _, b := range a.maxBatches {
		if b < 1 {
			return a, fmt.Errorf("llmbench: max batch %d must be ≥ 1", b)
		}
	}
	if len(a.policies) == 0 {
		a.policies = []ServePolicy{{}}
	}
	for _, p := range a.policies {
		if err := p.validate(); err != nil {
			return a, err
		}
	}
	if len(a.shares) == 0 {
		a.shares = []float64{0}
	}
	for _, s := range a.shares {
		if !(s >= 0) || s >= 1 || math.IsNaN(s) {
			return a, fmt.Errorf("llmbench: prefix share %v must be in [0, 1)", s)
		}
	}
	if len(a.bursts) == 0 {
		a.bursts = []float64{1}
	}
	for _, b := range a.bursts {
		if !(b >= 1) || math.IsInf(b, 0) {
			return a, fmt.Errorf("llmbench: burst factor %v must be ≥ 1 and finite", b)
		}
	}
	if len(a.mixes) == 0 {
		if len(a.replay) > 0 {
			// Replay points carry no synthesized length mix; the single
			// zero entry keeps the axis arithmetic uniform and reports
			// as a zero Mix on every point.
			a.mixes = []LengthMix{{}}
		} else {
			a.mixes = []LengthMix{{Input: cfg.InputMean, Output: cfg.OutputMean}}
		}
	}
	if len(a.replay) == 0 {
		for _, m := range a.mixes {
			// Positive medians are a grid error; ChatTrace's stricter
			// floor (≥ 16) surfaces per point so one bad mix cannot abort
			// the rest of the sweep.
			if m.Input < 1 || m.Output < 1 {
				return a, fmt.Errorf("llmbench: length mix %+v must have positive medians", m)
			}
		}
	}
	if err := validateKVBudget(cfg.KVBudgetGiB); err != nil {
		return a, err
	}
	if err := validateKVBudget(cfg.HostKVGiB); err != nil {
		return a, err
	}
	// Replay grids take their request count and lengths from the
	// recorded trace; the synthesis parameters are ignored.
	if len(a.replay) == 0 && (cfg.Requests < 1 || cfg.InputMean < 1 || cfg.OutputMean < 1) {
		return a, fmt.Errorf("llmbench: bad serve trace shape (requests %d, input %d, output %d)",
			cfg.Requests, cfg.InputMean, cfg.OutputMean)
	}
	// Negative tuning values would otherwise fail every autoscale
	// point individually (via cluster.Autoscale.validate) or be
	// silently replaced by the trace generator's default (BurstLenS):
	// fail the whole call up front like every other base-config field.
	if cfg.UpOutstanding < 0 || cfg.DownIdleS < 0 || cfg.CooldownS < 0 || cfg.BurstLenS < 0 || cfg.Sigma < 0 {
		return a, fmt.Errorf("llmbench: negative serve tuning (UpOutstanding %d, DownIdleS %v, CooldownS %v, BurstLenS %v, Sigma %v)",
			cfg.UpOutstanding, cfg.DownIdleS, cfg.CooldownS, cfg.BurstLenS, cfg.Sigma)
	}
	return a, nil
}

// ServeSweep evaluates a serving-capacity grid — arrival rate ×
// replicas × max batch × policy × trace shape, across the same
// device/framework/scheme configuration axes Sweep has —
// concurrently. It is the serving analogue of Sweep: engines are
// built once per configuration combination through the shared engine
// cache, every point runs an independent simulation on a private
// trace and private KV allocators, and the returned slice is ordered
// by grid position (Devices ▸ Frameworks ▸ Schemes ▸ Policies ▸
// Replicas ▸ MaxBatches ▸ PrefixShares ▸ BurstFactors ▸ LengthMixes ▸
// Rates) — never by completion — so output is byte-identical at any
// Parallelism.
//
// A one-position grid is a single deployment simulation: the point
// gets the whole worker budget for its replicas.
//
// An invalid grid or trace shape fails the whole call. A combination
// that fails to build fails only its own points through
// ServeSweepPoint.Err, unless every combination fails, which fails
// the call with all distinct build errors joined.
func ServeSweep(cfg ServeSweepConfig, grid ServeGrid) ([]ServeSweepPoint, error) {
	axes, err := resolveServeAxes(cfg, grid)
	if err != nil {
		return nil, err
	}
	combos := comboSystems(cfg.System, grid.Devices, grid.Frameworks, grid.Schemes)

	// Resolve every combination's engine and KV budget up front
	// (serially — the builds go through the shared cache), so point
	// workers only run simulations.
	type comboEnv struct {
		eng    *engine.Engine
		budget float64
	}
	engines := make([]comboEnv, len(combos))
	buildErrs := make([]error, len(combos))
	failed := 0
	for i, c := range combos {
		eng, err := CachedEngine(c)
		if err == nil {
			var budget float64
			budget, err = servingKVBudget(c, cfg.KVBudgetGiB)
			engines[i] = comboEnv{eng: eng, budget: budget}
		}
		if buildErrs[i] = err; err != nil {
			failed++
		}
	}
	if failed == len(combos) {
		return nil, joinBuildErrors(buildErrs)
	}

	perCombo := axes.perCombo()
	nRep := len(axes.replicas)
	nMB := len(axes.maxBatches)
	nShare := len(axes.shares)
	nBurst := len(axes.bursts)
	nMix := len(axes.mixes)
	nRate := len(axes.rates)
	out := make([]ServeSweepPoint, len(combos)*perCombo)
	// Workers a point-level pool cannot use go to the kernels: a
	// one-point sweep runs its replicas on every worker. Values ≤ 1 run
	// serially, and kernel Stats are byte-identical at any setting.
	workers := grid.Parallelism
	if workers < 1 {
		workers = runtime.GOMAXPROCS(0)
	}
	kernelPar := workers / len(out)
	_ = pool.ForEach(len(out), grid.Parallelism, func(i int) error {
		combo := i / perCombo
		rest := i % perCombo
		pol := axes.policies[rest/(nRep*nMB*nShare*nBurst*nMix*nRate)]
		rest %= nRep * nMB * nShare * nBurst * nMix * nRate
		reps := axes.replicas[rest/(nMB*nShare*nBurst*nMix*nRate)]
		rest %= nMB * nShare * nBurst * nMix * nRate
		maxBatch := axes.maxBatches[rest/(nShare*nBurst*nMix*nRate)]
		rest %= nShare * nBurst * nMix * nRate
		shareIdx := rest / (nBurst * nMix * nRate)
		rest %= nBurst * nMix * nRate
		burstIdx := rest / (nMix * nRate)
		rest %= nMix * nRate
		mixIdx := rest / nRate
		rateIdx := rest % nRate
		c := combos[combo]
		p := ServeSweepPoint{
			Device: c.Device, Framework: c.Framework,
			Scheme:   Scheme{Weights: c.Weights, KV: c.KV},
			Policy:   pol,
			Replicas: reps, MaxBatch: maxBatch,
			Mix:         axes.mixes[mixIdx],
			PrefixShare: axes.shares[shareIdx],
			Rate:        axes.rates[rateIdx],
		}
		if axes.chat {
			p.BurstFactor = axes.bursts[burstIdx]
		}
		if buildErrs[combo] != nil {
			p.Err = buildErrs[combo]
		} else {
			// Points sharing a trace-shape position share one arrival
			// process; distinct positions draw from isolated seed
			// streams. On plain Poisson grids this degenerates to the
			// original per-rate seeding, keeping existing sweeps
			// byte-identical.
			traceIdx := ((shareIdx*nBurst+burstIdx)*nMix+mixIdx)*nRate + rateIdx
			runServePoint(&p, c, engines[combo].eng, engines[combo].budget, cfg, axes, traceIdx, kernelPar)
		}
		if cfg.LeanStats || cfg.StreamStats {
			p.Stats.Requests = nil
		}
		out[i] = p
		return nil
	})
	return out, nil
}

// pointTrace generates one grid point's private arrival trace from
// its resolved shape (p.BurstFactor, p.Mix, p.Rate): the base
// config's plain Poisson process on shape-less grids, ChatTrace's
// bursty heavy-tailed traffic when a trace axis is set. A shape
// ChatTrace rejects (medians below its floor) is the caller's
// per-point error.
func (a serveAxes) pointTrace(cfg ServeSweepConfig, p *ServeSweepPoint, traceIdx int) ([]workload.Request, error) {
	if len(a.replay) > 0 {
		// Replay grids rescale the one recorded trace to the point's
		// rate; scaling to the native rate aliases the shared slice
		// (the kernel never mutates a sorted trace), so concurrent
		// points are safe.
		return workload.ScaleToRate(a.replay, p.Rate)
	}
	seed := cfg.Seed + uint64(traceIdx)
	if !a.chat {
		return workload.PoissonTrace(workload.TraceConfig{
			Seed: seed, Requests: cfg.Requests, RatePerSec: p.Rate,
			InputMean: p.Mix.Input, OutputMean: p.Mix.Output, LengthJitter: 0.3,
		})
	}
	// A shared-prefix point carves the prefix out of the prompt
	// median: PrefixTokens of every prompt are the fleet-wide system
	// prompt, and the lognormal draws model only the per-request
	// suffix — total prompt medians stay comparable across the
	// PrefixShares axis. A share leaving the suffix median under
	// ChatTrace's floor fails here, per point.
	ptoks := prefixTokensFor(p.PrefixShare, p.Mix.Input)
	sigma := cfg.Sigma
	if sigma == 0 {
		sigma = 0.7
	}
	return workload.ChatTrace(workload.ChatTraceConfig{
		Seed: seed, Requests: cfg.Requests, RatePerSec: p.Rate,
		BurstFactor: p.BurstFactor, BurstLenS: cfg.BurstLenS,
		InputMedian: p.Mix.Input - ptoks, OutputMedian: p.Mix.Output,
		PrefixTokens: ptoks,
		Sigma:        sigma, MaxLen: 8192,
	})
}

// prefixTokensFor resolves a point's shared-prefix length: the share
// of its median prompt, in whole tokens. Zero share — including every
// point of a grid without the PrefixShares axis — is zero tokens.
func prefixTokensFor(share float64, inputMedian int) int {
	return int(share * float64(inputMedian))
}

// kernelScratch recycles kernel arenas (station shells, free lists,
// event buffers — see des.Scratch) across the points of a sweep:
// each point checks one out for its run instead of re-paying kernel
// warm-up allocations a few thousand times per grid. Scratch contents
// never influence results (stations are fully reset on reuse), so
// swept grids stay byte-identical — the serial==parallel sweep
// determinism tests exercise exactly this path.
var kernelScratch = sync.Pool{New: func() any { return new(des.Scratch) }}

// runServePoint runs one grid point's simulation on par kernel
// goroutines, recording failures in p.Err. Each point owns its trace
// and allocators; the engine is shared (engines are immutable and
// concurrency-safe). Every fixed fleet — continuous or static — runs
// on the cluster kernel, so the full Policies × Replicas grid is
// served without per-point gaps.
func runServePoint(p *ServeSweepPoint, sys System, eng *engine.Engine, budget float64,
	cfg ServeSweepConfig, axes serveAxes, traceIdx, par int) {
	trace, err := axes.pointTrace(cfg, p, traceIdx)
	if err != nil {
		p.Err = err
		return
	}
	scratch := kernelScratch.Get().(*des.Scratch)
	defer kernelScratch.Put(scratch)
	// Shared-prefix points get tiered prefix-sharing allocators on
	// every replica regardless of routing policy, so the Policies axis
	// compares rr/ll/prefix routing on identical caches. Zero-share
	// points build the exact allocator non-prefix sweeps always had.
	newAlloc := func() (kvcache.Allocator, error) { return servingAlloc(sys, budget) }
	if ptoks := prefixTokensFor(p.PrefixShare, p.Mix.Input); ptoks > 0 {
		hostBudget := cfg.HostKVGiB * (1 << 30)
		if hostBudget == 0 {
			hostBudget = budget
		}
		newAlloc = func() (kvcache.Allocator, error) {
			return servingPrefixAlloc(sys, budget, hostBudget, ptoks)
		}
	}
	if p.Policy.Autoscale {
		upOut := cfg.UpOutstanding
		if upOut == 0 {
			upOut = 2 * p.MaxBatch
		}
		downIdle, cooldown := cfg.DownIdleS, cfg.CooldownS
		if downIdle == 0 {
			downIdle = 3
		}
		if cooldown == 0 {
			cooldown = 1
		}
		factory := func() (cluster.Replica, error) {
			alloc, err := newAlloc()
			if err != nil {
				return cluster.Replica{}, err
			}
			return cluster.Replica{Engine: eng, Alloc: alloc}, nil
		}
		auto, err := cluster.ServeAutoscale(
			cluster.Config{
				MaxBatch: p.MaxBatch, Static: p.Policy.Static,
				ChunkedPrefill: cfg.ChunkedPrefill, PrefillChunk: cfg.PrefillChunk,
				Parallelism: par, Streaming: cfg.StreamStats, Scratch: scratch,
			},
			cluster.Autoscale{
				Factory: factory, Min: 1, Max: p.Replicas,
				UpOutstanding: upOut, DownIdleS: downIdle, CooldownS: cooldown,
			}, trace)
		if err != nil {
			p.Err = err
			return
		}
		p.Stats = auto.Stats.Stats
		p.PerReplica = auto.PerReplica
		p.PeakReplicas = auto.PeakReplicas
		return
	}
	ccfg := cluster.Config{
		Policy: routePolicy(p.Policy), MaxBatch: p.MaxBatch,
		Static:         p.Policy.Static,
		ChunkedPrefill: cfg.ChunkedPrefill, PrefillChunk: cfg.PrefillChunk,
		Parallelism: par, Streaming: cfg.StreamStats, Scratch: scratch,
	}
	if p.Policy.Disagg() {
		// The policy's pool split is a ratio: the point's fleet must
		// divide evenly into PrefillPool+DecodePool shares. Priced
		// before allocators are built — the divisibility failure is the
		// common user error.
		share := p.Policy.PrefillPool + p.Policy.DecodePool
		if p.Replicas%share != 0 {
			p.Err = fmt.Errorf("llmbench: disagg split %d:%d needs a fleet divisible by %d (got %d replicas)",
				p.Policy.PrefillPool, p.Policy.DecodePool, share, p.Replicas)
			return
		}
		tc, err := transferCost(sys)
		if err != nil {
			p.Err = err
			return
		}
		ccfg.PrefillReplicas = p.Replicas / share * p.Policy.PrefillPool
		ccfg.Transfer = tc
	}
	replicas := make([]cluster.Replica, p.Replicas)
	for i := range replicas {
		alloc, err := newAlloc()
		if err != nil {
			p.Err = err
			return
		}
		replicas[i] = cluster.Replica{Engine: eng, Alloc: alloc}
	}
	ccfg.Replicas = replicas
	st, err := cluster.Serve(ccfg, trace)
	if err != nil {
		p.Err = err
		return
	}
	p.Stats = st.Stats
	p.PerReplica = st.PerReplica
}

func routePolicy(p ServePolicy) cluster.Policy {
	switch {
	case p.Prefix:
		return cluster.Prefix
	case p.LeastLoaded:
		return cluster.LeastLoaded
	}
	return cluster.RoundRobin
}

// KneePoint reports one serving configuration's knee: the highest
// swept arrival rate whose P99 latency met the SLO.
type KneePoint struct {
	Device    string
	Framework string
	Scheme    Scheme
	Policy    ServePolicy
	Replicas  int
	MaxBatch  int
	// BurstFactor, Mix, and PrefixShare identify the trace shape the
	// knee was measured under (see ServeSweepPoint).
	BurstFactor float64
	Mix         LengthMix
	PrefixShare float64

	// Met reports whether any swept rate satisfied the SLO; Rate and
	// Stats then describe the highest such rate.
	Met   bool
	Rate  float64
	Stats ServeStats
}

// Knees folds a ServeSweep result into per-configuration capacity
// knees: for every distinct (device, framework, scheme, policy,
// replicas, max batch, trace shape) configuration, the highest swept
// rate whose P99 latency is at most sloP99. Configurations appear in
// grid order; points with Err or non-finite stats never qualify —
// `NaN > slo` is false, so an unchecked degenerate point would count
// as SLO-compliant — but their configuration still appears (with Met
// false) so capacity gaps stay visible. A NaN, infinite, or
// non-positive SLO is rejected.
func Knees(pts []ServeSweepPoint, sloP99 float64) ([]KneePoint, error) {
	if !(sloP99 > 0) || math.IsInf(sloP99, 0) {
		return nil, fmt.Errorf("llmbench: P99 SLO %v must be positive and finite", sloP99)
	}
	type key struct {
		dev, fw  string
		scheme   Scheme
		policy   ServePolicy
		reps, mb int
		burst    float64
		mix      LengthMix
		share    float64
	}
	index := make(map[key]int)
	var out []KneePoint
	for _, p := range pts {
		k := key{p.Device, p.Framework, p.Scheme, p.Policy, p.Replicas, p.MaxBatch, p.BurstFactor, p.Mix, p.PrefixShare}
		i, ok := index[k]
		if !ok {
			i = len(out)
			index[k] = i
			out = append(out, KneePoint{
				Device: p.Device, Framework: p.Framework, Scheme: p.Scheme,
				Policy: p.Policy, Replicas: p.Replicas, MaxBatch: p.MaxBatch,
				BurstFactor: p.BurstFactor, Mix: p.Mix, PrefixShare: p.PrefixShare,
			})
		}
		if p.Err != nil || !finiteKneeStats(p.Stats) || p.Stats.P99Latency > sloP99 {
			continue
		}
		if !out[i].Met || p.Rate > out[i].Rate {
			out[i].Met = true
			out[i].Rate = p.Rate
			out[i].Stats = p.Stats
		}
	}
	return out, nil
}

// finiteKneeStats reports whether a point's SLO-relevant aggregates
// are finite — the guard that keeps degenerate points (never summed
// into stats, or overflowed) from qualifying as capacity knees.
func finiteKneeStats(s ServeStats) bool {
	return !math.IsNaN(s.P99Latency) && !math.IsInf(s.P99Latency, 0) &&
		!math.IsNaN(s.Throughput) && !math.IsInf(s.Throughput, 0)
}

// ServePointTrace synthesizes the arrival trace of a one-position
// serving grid — the trace every point of that sweep would run — so
// it can be recorded (WriteTrace) and later replayed byte-identically
// through any policy, replica, and batching configuration
// (ServeGrid.Trace). The grid must pin a single trace-shape position:
// exactly one rate and at most one burst factor and length mix;
// grids spanning several shapes have no single trace to record.
func ServePointTrace(cfg ServeSweepConfig, grid ServeGrid) ([]TraceRequest, error) {
	if len(grid.Trace) > 0 {
		return nil, errors.New("llmbench: grid already replays a trace; nothing to record")
	}
	axes, err := resolveServeAxes(cfg, grid)
	if err != nil {
		return nil, err
	}
	if n := len(axes.rates) * len(axes.bursts) * len(axes.mixes) * len(axes.shares); n != 1 {
		return nil, fmt.Errorf("llmbench: grid spans %d trace-shape positions (rates × bursts × mixes × prefix shares); recording needs exactly 1", n)
	}
	p := ServeSweepPoint{Rate: axes.rates[0], Mix: axes.mixes[0], PrefixShare: axes.shares[0]}
	if axes.chat {
		p.BurstFactor = axes.bursts[0]
	}
	return axes.pointTrace(cfg, &p, 0)
}
