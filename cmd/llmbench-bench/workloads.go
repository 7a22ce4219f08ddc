package main

import (
	"crypto/sha256"
	"fmt"
	"hash"

	"llmbench"
	"llmbench/internal/cluster"
	"llmbench/internal/des"
	"llmbench/internal/dtype"
	"llmbench/internal/hw"
	"llmbench/internal/kvcache"
	"llmbench/internal/model"
	"llmbench/internal/sched"
	"llmbench/internal/workload"
)

// workloadDef is one entry of the benchmark's workload table. setup
// does everything a run needs before the first simulated event — trace
// generation, engine resolution, fleet construction — with request
// counts divided by scale (1 in every benchmark run; the tests use
// 100). Request counts keep a child to a few seconds: host noise comes
// in bursts between children, so a 30-second run needs many of them
// for a steady median.
type workloadDef struct {
	name  string
	why   string
	setup func(seed uint64, scale int, sp *spans) (sim, error)
}

// sim is a set-up workload.
type sim interface {
	// arm builds a fresh fleet for the next run: private allocators,
	// wrapped for counting when tr is non-nil.
	arm(tr *tracer) error
	// run simulates the armed workload once.
	run(tr *tracer) (outcome, error)
	// probe returns the requests, system and batch cap the engine and
	// sched probes replay.
	probe() ([]workload.Request, llmbench.System, int)
}

// outcome is what one simulation produced. The fingerprint hashes
// every simulated statistic the run reports; host timings are never
// part of it.
type outcome struct {
	fingerprint string
	attempted   int // requests, or sweep points
	failed      int // requests not completed, or points with Err
	points      int // serving points simulated: 1 for a cluster run
	hitRate     float64
	preemptions int
}

var workloads = []workloadDef{
	{
		name: "chat-day",
		why:  "250k short chats on 32 replicas at 200 req/s: dense arrivals, so kernel barriers, the 32-way router scan and allocator churn dominate, with about one token per window",
		setup: func(seed uint64, scale int, sp *spans) (sim, error) {
			return newClusterSim(sp, llama8B, 32,
				cluster.Config{Policy: cluster.LeastLoaded, MaxBatch: 32, Streaming: true, Parallelism: 1},
				func() ([]workload.Request, error) {
					return workload.PoissonTrace(workload.TraceConfig{
						Seed: seed, Requests: 250_000 / scale, RatePerSec: 200,
						InputMean: 256, OutputMean: 64, LengthJitter: 0.3,
					})
				}, pagedAlloc(30))
		},
	},
	{
		name: "long-decode",
		why:  "sparse 256:1024 requests: long coalesced windows and long-context step vectors, and the only workload on the 2-worker parallel barrier path",
		setup: func(seed uint64, scale int, sp *spans) (sim, error) {
			return newClusterSim(sp, llama8B, 32,
				cluster.Config{Policy: cluster.LeastLoaded, MaxBatch: 16, Streaming: true, Parallelism: 2},
				func() ([]workload.Request, error) {
					return workload.PoissonTrace(workload.TraceConfig{
						Seed: seed, Requests: 100_000 / scale, RatePerSec: 8,
						InputMean: 256, OutputMean: 1024, LengthJitter: 0.3,
					})
				}, pagedAlloc(30))
		},
	},
	{
		name: "prefix-fleet",
		why:  "250k prompts sharing an 8028-token prefix on 16 tiered replicas: tier demote/restore, prefix routing and chunked admission, which chat-day bypasses",
		setup: func(seed uint64, scale int, sp *spans) (sim, error) {
			sys := llmbench.System{Model: "Mistral-7B", Device: "A100", Framework: "vLLM"}
			return newClusterSim(sp, sys, 16,
				cluster.Config{Policy: cluster.Prefix, MaxBatch: 32, ChunkedPrefill: true, Streaming: true, Parallelism: 1},
				func() ([]workload.Request, error) {
					return workload.ChatTrace(workload.ChatTraceConfig{
						Seed: seed, Requests: 250_000 / scale, RatePerSec: 36, BurstFactor: 1,
						InputMedian: 164, OutputMedian: 32, PrefixTokens: 8028, Sigma: 0.1, MaxLen: 8192,
					})
				}, tieredAlloc(8028, 0.05))
		},
	},
	{
		name:  "capacity-sweep",
		why:   "a 192-point ServeSweep with a cold engine memo, as a planner CLI call pays it: memo writes, kv-transfer, static stations and per-point setup",
		setup: setupSweep,
	},
}

func lookupWorkload(name string) (*workloadDef, error) {
	for i := range workloads {
		if workloads[i].name == name {
			return &workloads[i], nil
		}
	}
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return nil, fmt.Errorf("unknown workload %q (want one of %v)", name, names)
}

var llama8B = llmbench.System{Model: "LLaMA-3-8B", Device: "A100", Framework: "vLLM"}

// catalog resolves a system's model and device descriptions.
func catalog(sys llmbench.System) (*model.Config, *hw.Device, error) {
	m, err := model.Get(sys.Model)
	if err != nil {
		return nil, nil, err
	}
	d, err := hw.Get(sys.Device)
	return m, d, err
}

// kvBudget is the per-replica KV pool ServeSweep sizes when no budget
// is given: the device's usable memory after fp16 weights.
func kvBudget(m *model.Config, d *hw.Device) float64 {
	return d.MemBytes()*0.88 - m.WeightBytes(dtype.FP16)
}

type allocFactory func(m *model.Config, d *hw.Device) (kvcache.Allocator, error)

// pagedAlloc builds 16-token-block paged allocators of gib GiB.
func pagedAlloc(gib float64) allocFactory {
	return func(m *model.Config, _ *hw.Device) (kvcache.Allocator, error) {
		return kvcache.NewPaged(16, m.KVBytesPerToken(dtype.FP16), gib*(1<<30))
	}
}

// tieredAlloc builds the prefix-sharing device pool behind a host tier
// of hostGiB GiB, restored over the device's host link.
func tieredAlloc(prefixTokens int, hostGiB float64) allocFactory {
	return func(m *model.Config, d *hw.Device) (kvcache.Allocator, error) {
		gpu, err := kvcache.NewPrefixPaged(16, prefixTokens, m.KVBytesPerToken(dtype.FP16), kvBudget(m, d))
		if err != nil {
			return nil, err
		}
		link := kvcache.HostLink{GBPerS: d.HostLinkGBs, LatencyS: d.HostLinkLatencyUS * 1e-6}
		return kvcache.NewTiered(gpu, hostGiB*(1<<30), link)
	}
}

// clusterSim is one fixed fleet serving one generated trace.
type clusterSim struct {
	sys      llmbench.System
	model    *model.Config
	device   *hw.Device
	trace    []workload.Request
	cfg      cluster.Config // Replicas is filled by arm
	replicas int
	newAlloc allocFactory
	scratch  des.Scratch
}

func newClusterSim(sp *spans, sys llmbench.System, replicas int, cfg cluster.Config,
	gen func() ([]workload.Request, error), newAlloc allocFactory) (*clusterSim, error) {
	c := &clusterSim{sys: sys, cfg: cfg, replicas: replicas, newAlloc: newAlloc}
	var err error
	sp.begin("workload.gen")
	c.trace, err = gen()
	sp.end()
	if err != nil {
		return nil, err
	}
	sp.begin("engine.resolve")
	c.model, c.device, err = catalog(sys)
	if err == nil {
		_, err = llmbench.CachedEngine(sys)
	}
	sp.end()
	if err != nil {
		return nil, err
	}
	sp.begin("fleet.build")
	err = c.arm(nil)
	sp.end()
	return c, err
}

func (c *clusterSim) arm(tr *tracer) error {
	eng, err := llmbench.CachedEngine(c.sys)
	if err != nil {
		return err
	}
	reps := make([]cluster.Replica, c.replicas)
	for i := range reps {
		a, err := c.newAlloc(c.model, c.device)
		if err != nil {
			return err
		}
		reps[i] = cluster.Replica{Engine: eng, Alloc: tr.wrap(a)}
	}
	c.cfg.Replicas = reps
	c.cfg.Scratch = &c.scratch
	return nil
}

func (c *clusterSim) run(tr *tracer) (outcome, error) {
	st, err := tr.serve(c.cfg, c.trace)
	if err != nil {
		return outcome{}, err
	}
	h := sha256.New()
	hashStats(h, st.Stats, st.PerReplica)
	return outcome{
		fingerprint: fmt.Sprintf("%x", h.Sum(nil)),
		attempted:   len(c.trace),
		failed:      len(c.trace) - st.Completed,
		points:      1,
		hitRate:     st.CacheHitRate,
		preemptions: st.Preemptions,
	}, nil
}

func (c *clusterSim) probe() ([]workload.Request, llmbench.System, int) {
	return c.trace, c.sys, c.cfg.MaxBatch
}

// hashStats writes every simulated statistic the fingerprint covers
// as exact hex floats.
func hashStats(h hash.Hash, st sched.Stats, per []cluster.ReplicaStats) {
	fmt.Fprintf(h, "%d %x %x %x %x %x %x %d %x\n", st.Completed, st.Throughput,
		st.P50Latency, st.P95Latency, st.P99Latency, st.MeanQueueDelay, st.P99QueueDelay,
		st.Preemptions, st.CacheHitRate)
	for _, r := range per {
		fmt.Fprintf(h, "%d %x\n", r.Completed, r.BusyS)
	}
}

// --- capacity sweep ------------------------------------------------------

const sweepSLO = 8 // p99 latency limit in seconds for Knees

// The sweep grid: 4 devices × 3 policies × 2 fleet sizes × 4 rates,
// swept once per length mix — 192 points. Each mix is its own
// ServeSweep call with Poisson traces (uniform ±30% lengths): a grid
// LengthMixes axis would switch every point to heavy-tailed chat
// lengths, and the cold memo's extent, and with it run_s, alloc_mb and
// peak_rss_mb, would follow the longest lengths a seed happens to draw.
//
// The short-prompt mix goes first. The cold memo doubles a batch's step
// vector at every window that starts below the lowest context it has
// seen; swept after the long prompts, the short ones start a second
// run of such lows, and one cold sweep outgrew 2.6 GB of heap.
var (
	sweepDevices  = []string{"A100", "H100", "MI250", "Gaudi2"}
	sweepPolicies = []string{"ll", "ll:disagg/1:3", "static:ll"}
	sweepReplicas = []int{4, 8}
	sweepMixes    = []llmbench.LengthMix{{Input: 128, Output: 512}, {Input: 512, Output: 128}}
	sweepRates    = []float64{5, 10, 20, 30}
)

type sweepSim struct {
	cfg     llmbench.ServeSweepConfig // InputMean and OutputMean are set per mix
	grid    llmbench.ServeGrid
	traces  [][]workload.Request // per mix and rate, as ServeSweep generates them
	scratch des.Scratch
}

func setupSweep(seed uint64, scale int, sp *spans) (sim, error) {
	s := &sweepSim{
		cfg: llmbench.ServeSweepConfig{
			System:   llmbench.System{Model: "Mistral-7B", Device: "A100", Framework: "vLLM"},
			MaxBatch: 16, Seed: seed, Requests: max(1, 300/scale), LeanStats: true,
		},
		grid: llmbench.ServeGrid{
			Devices: sweepDevices, Replicas: sweepReplicas, Rates: sweepRates, Parallelism: 1,
		},
	}
	// Every device, policy and fleet size replays the same trace per
	// (mix, rate): the sweep seed offset by the rate's index, as
	// ServeSweep seeds each trace position. ServeSweep generates them
	// again inside the run; these feed the probes and the traced replay.
	sp.begin("workload.gen")
	for mi := range sweepMixes {
		for ri, rate := range sweepRates {
			cfg := s.mixConfig(mi)
			cfg.Seed += uint64(ri)
			reqs, err := llmbench.ServePointTrace(cfg, llmbench.ServeGrid{Rates: []float64{rate}})
			if err != nil {
				sp.end()
				return nil, err
			}
			s.traces = append(s.traces, reqs)
		}
	}
	sp.end()
	sp.begin("engine.resolve")
	defer sp.end()
	for _, p := range sweepPolicies {
		pol, err := llmbench.ParseServePolicy(p)
		if err != nil {
			return nil, err
		}
		s.grid.Policies = append(s.grid.Policies, pol)
	}
	for _, dev := range sweepDevices {
		sys := s.cfg.System
		sys.Device = dev
		if _, err := llmbench.CachedEngine(sys); err != nil {
			return nil, err
		}
	}
	return s, nil
}

// mixConfig is the sweep configuration of length mix mi.
func (s *sweepSim) mixConfig(mi int) llmbench.ServeSweepConfig {
	cfg := s.cfg
	cfg.InputMean, cfg.OutputMean = sweepMixes[mi].Input, sweepMixes[mi].Output
	return cfg
}

func (s *sweepSim) arm(*tracer) error { return nil }

// run is one ServeSweep call per mix, or with tr set the same grid
// replayed point by point through cluster.Serve with counting
// allocators — the only way to see the kvcache and cluster layers from
// outside ServeSweep. Both must fingerprint identically.
func (s *sweepSim) run(tr *tracer) (outcome, error) {
	var pts []llmbench.ServeSweepPoint
	for mi := range sweepMixes {
		var mixPts []llmbench.ServeSweepPoint
		var err error
		if tr == nil {
			mixPts, err = llmbench.ServeSweep(s.mixConfig(mi), s.grid)
		} else {
			mixPts, err = s.replay(tr, mi)
		}
		if err != nil {
			return outcome{}, err
		}
		pts = append(pts, mixPts...)
	}
	knees, err := llmbench.Knees(pts, sweepSLO)
	if err != nil {
		return outcome{}, err
	}
	h := sha256.New()
	o := outcome{attempted: len(pts), points: len(pts)}
	for _, p := range pts {
		fmt.Fprintf(h, "%s %s %d %d:%d %x err=%v\n", p.Device, p.Policy, p.Replicas, p.Mix.Input, p.Mix.Output, p.Rate, p.Err)
		hashStats(h, p.Stats, p.PerReplica)
		if p.Err != nil {
			o.failed++
		}
		o.hitRate += p.Stats.CacheHitRate / float64(len(pts))
		o.preemptions += p.Stats.Preemptions
	}
	for _, k := range knees {
		fmt.Fprintf(h, "knee %s %s %d %d:%d %t %x %x\n", k.Device, k.Policy, k.Replicas, k.Mix.Input, k.Mix.Output, k.Met, k.Rate, k.Stats.P99Latency)
	}
	o.fingerprint = fmt.Sprintf("%x", h.Sum(nil))
	return o, nil
}

// replay walks mix mi's grid in ServeSweep's order (devices ▸ policies
// ▸ replicas ▸ rates) and builds each point as ServeSweep does: the
// rate's trace, auto-sized paged allocators, least-loaded routing
// (every policy of this grid routes least-loaded), and the device
// interconnect for disaggregated pools.
func (s *sweepSim) replay(tr *tracer, mi int) ([]llmbench.ServeSweepPoint, error) {
	var pts []llmbench.ServeSweepPoint
	for _, dev := range sweepDevices {
		sys := s.cfg.System
		sys.Device = dev
		eng, err := llmbench.CachedEngine(sys)
		if err != nil {
			return nil, err
		}
		m, d, err := catalog(sys)
		if err != nil {
			return nil, err
		}
		for _, pol := range s.grid.Policies {
			for _, reps := range sweepReplicas {
				for ri, rate := range sweepRates {
					p := llmbench.ServeSweepPoint{
						Device: dev, Framework: sys.Framework, Policy: pol,
						Replicas: reps, MaxBatch: s.cfg.MaxBatch, Mix: sweepMixes[mi], Rate: rate,
					}
					reqs := s.traces[mi*len(sweepRates)+ri]
					ccfg := cluster.Config{
						Policy: cluster.LeastLoaded, MaxBatch: s.cfg.MaxBatch,
						Static: pol.Static, Scratch: &s.scratch,
					}
					if pol.Disagg() {
						ccfg.PrefillReplicas = reps / (pol.PrefillPool + pol.DecodePool) * pol.PrefillPool
						ccfg.Transfer = des.TransferCost{
							BlockTokens: 16, BytesPerToken: m.KVBytesPerToken(dtype.FP16),
							GBPerS: d.InterconnectGBs, LatencyS: d.InterconnectLatencyUS * 1e-6,
						}
					}
					for i := 0; i < reps; i++ {
						a, err := kvcache.NewPaged(16, m.KVBytesPerToken(dtype.FP16), kvBudget(m, d))
						if err != nil {
							return nil, err
						}
						ccfg.Replicas = append(ccfg.Replicas, cluster.Replica{Engine: eng, Alloc: tr.wrap(a)})
					}
					st, err := tr.serve(ccfg, reqs)
					if err != nil {
						p.Err = err
					} else {
						p.Stats, p.PerReplica = st.Stats, st.PerReplica
					}
					pts = append(pts, p)
				}
			}
		}
	}
	return pts, nil
}

// probe returns the grid's distinct traces, one per mix and rate.
func (s *sweepSim) probe() ([]workload.Request, llmbench.System, int) {
	var all []workload.Request
	for _, t := range s.traces {
		all = append(all, t...)
	}
	return all, s.cfg.System, s.cfg.MaxBatch
}
