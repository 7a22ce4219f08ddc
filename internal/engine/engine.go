// Package engine is the inference simulator at the heart of the
// reproduction: it combines an LLM architecture (internal/model), an
// accelerator roofline (internal/hw), a framework profile
// (internal/framework), a parallelism plan (internal/parallel), and a
// quantization scheme (internal/quant), and evaluates one benchmark
// point — batch size, input length, output length — into the paper's
// metrics: TTFT, inter-token latency (Eq. 1), end-to-end latency,
// throughput (Eq. 2), and average power.
//
// Prefill is modelled as one compute-heavy pass over the prompt;
// decode as out sequential steps whose weight traffic is
// batch-independent (the source of batch scaling) and whose KV traffic
// grows with context (the source of long-context slowdown). Every
// framework behaviour the paper discusses — GQA kernel quality, paged
// KV block overhead, batched-GEMM limits, pipeline bubbles, dataflow
// graph setup — enters as an explicit term.
//
// Each phase's roofline terms are defined once: prefillTerms for the
// prompt pass, stepTerms for a decode step (the eager full recompute
// when the KV cache is disabled). One combine step (phaseTerms.cost)
// applies the device overlap, the bound and the balance. Run prices
// through the memo tables below, Explain reports the same terms, and
// both start from one memory plan (memoryPlan), so Explain's totals
// equal Run's bit for bit.
//
// # Performance notes
//
// The step-cost memo (rangecost.go) is the pricing hot path of the
// serving kernel (internal/des), and its invariants are load-bearing
// for both speed and the serial==parallel==stepped byte-identity
// contract. Policy layers must not break them:
//
//   - Warm reads never lock. The memo tables live behind atomic
//     pointers; DecodeStepSeconds, DecodeStepVec, PrefillSeconds and
//     Run's decode fold on a cached key take no lock and allocate
//     nothing: a handful of atomic loads, plus the fold's additions.
//     Writers serialise on a small build mutex and re-check the table
//     before pricing, so no price is computed twice; prices are pure
//     values, so the tables are deterministic regardless of
//     interleaving.
//   - One priced table per batch. A step's seconds, balance·seconds
//     product and roofline bound are pure functions of (batch, ctx),
//     so one master vector per batch holds them all and is where Run
//     and the serving kernel price a decode step: each (batch, ctx) is
//     evaluated once per engine. DecodeStepVec returns a run of steps
//     as a subslice of it, capped at the run's length, and the serving
//     kernel sums a window straight from those cells; the master grows
//     in place by filling cells past the published count and
//     release-storing the new count. So StepVec.Seconds is shared
//     between every caller and must never be written.
//   - Run's decode phase folds from that table in step order
//     (decodeRange): Σseconds and Σbalance·seconds accumulate
//     left-to-right from the phase's own anchor over the master's
//     cells (never differenced from a shared prefix — that would
//     round differently), so E2E is byte-identical to summing
//     DecodeStepSeconds step by step. Any change to how the phase is
//     folded changes floating-point rounding and breaks the
//     equivalence suites here, in internal/sched, and in
//     internal/cluster.
//   - One prefill table. PrefillSeconds prices each (batch, input)
//     pair once per engine in its own lock-free grid; Run and the
//     serving kernel both read it.
package engine

import (
	"errors"
	"fmt"
	"math"
	"sync"
	"sync/atomic"

	"llmbench/internal/framework"
	"llmbench/internal/hw"
	"llmbench/internal/kvcache"
	"llmbench/internal/model"
	"llmbench/internal/parallel"
	"llmbench/internal/power"
	"llmbench/internal/quant"
	"llmbench/internal/roofline"
	"llmbench/internal/workload"
)

// usableMemFraction reserves headroom for the runtime, workspace
// buffers and fragmentation; serving stacks never use the full HBM.
const usableMemFraction = 0.88

// eagerPenalty is the kernel-efficiency loss of running without the
// KV cache: the no-cache path falls back to eager (non-graph,
// non-fused) execution, which is how the Fig. 2a ablation was run.
const eagerPenalty = 0.55

// ppSmallGEMMPenalty is the efficiency loss of per-stage GEMMs under
// pipeline parallelism (smaller matrices utilise the device worse);
// together with the fill bubble it reproduces Fig. 5a's TP ≈ 1.94× PP.
const ppSmallGEMMPenalty = 1.1

// ErrOOM marks configurations whose weights + KV cache + activations
// exceed device memory — the paper's Gaudi2 batch-32/64 failures and
// 70B-on-one-A100 exclusions.
var ErrOOM = errors.New("engine: model + KV cache exceed device memory")

// ErrUnsupportedBatch marks batch sizes the serving stack refuses
// (SN40L's hosted service limit, §VII-2).
var ErrUnsupportedBatch = errors.New("engine: batch size not supported by serving stack")

// Config assembles one benchmarkable system.
type Config struct {
	Model     *model.Config
	Device    *hw.Device
	Framework *framework.Profile
	Plan      parallel.Plan
	Scheme    quant.Scheme // zero value means fp16/fp16
	// KVBlockTokens overrides the framework's paged-KV block size
	// (Fig. 2b sweep). 0 uses the framework default.
	KVBlockTokens int
	// DisableKVCache recomputes attention every step (Fig. 2a
	// ablation).
	DisableKVCache bool
}

// Engine evaluates benchmark points for one configuration: Run for
// the paper's metrics, Explain for where the time goes, and the
// step-cost helpers for the serving kernel. An Engine's configuration
// is immutable after New and every method is safe for concurrent use:
// they only read the configuration, which is what lets sweeps share
// one engine across workers and cache engines by system
// (engine.Cached, llmbench.Sweep). The only mutable state is the pricing memo — one
// master step table per batch (rangecost.go) plus the prefill grid:
// lock-free tables whose readers never lock and whose writers
// serialise on buildMu — and deterministic either way, since a cached
// price is byte-identical to a recomputed one.
type Engine struct {
	cfg    Config
	link   parallel.Link
	effC   float64 // compute efficiency on this vendor
	effM   float64 // memory efficiency on this vendor
	peak   float64 // FLOP/s at the compute precision
	blkEff float64

	// buildMu serialises memo writers only; see rangecost.go.
	buildMu sync.Mutex
	vecs    costRow[stepVec] // per-batch master step tables, keyed batch-1
	// prefills memoises PrefillSeconds keyed (input, batch): rows by
	// prompt length keep each row as short as the batch cap, where
	// rows by batch would each span the whole input range.
	prefills costGrid[float64]
	// decodeEvals and prefillEvals count the decode steps and prefills
	// the memo fills price: one per priced cell. Explain's direct
	// pricing is not counted.
	decodeEvals, prefillEvals atomic.Int64
}

// New validates and builds an engine.
func New(cfg Config) (*Engine, error) {
	if cfg.Model == nil || cfg.Device == nil || cfg.Framework == nil {
		return nil, errors.New("engine: nil model, device, or framework")
	}
	if err := cfg.Model.Validate(); err != nil {
		return nil, err
	}
	if err := cfg.Device.Validate(); err != nil {
		return nil, err
	}
	if cfg.Plan == (parallel.Plan{}) {
		cfg.Plan = parallel.Single
	}
	if err := cfg.Plan.Validate(cfg.Model); err != nil {
		return nil, err
	}
	if cfg.Plan.Devices() > cfg.Device.DevicesPerNode {
		return nil, fmt.Errorf("engine: plan needs %d devices but a %s node has %d",
			cfg.Plan.Devices(), cfg.Device.Name, cfg.Device.DevicesPerNode)
	}
	if !cfg.Framework.SupportsDevice(cfg.Device) {
		return nil, fmt.Errorf("engine: %s does not run on %s (Table III)",
			cfg.Framework.Name, cfg.Device.Name)
	}
	if (cfg.Scheme == quant.Scheme{}) {
		cfg.Scheme = quant.FP16
	}
	if err := cfg.Scheme.SupportedOn(cfg.Device); err != nil {
		return nil, err
	}
	effC, effM, err := cfg.Framework.Eff(cfg.Device.Vendor)
	if err != nil {
		return nil, err
	}
	peak, err := cfg.Device.PeakFLOPS(cfg.Scheme.ComputeType())
	if err != nil {
		return nil, err
	}
	blk := 1.0
	if cfg.Framework.PagedKV {
		size := cfg.Framework.DefaultBlockSize
		if cfg.KVBlockTokens > 0 {
			size = cfg.KVBlockTokens
		}
		blk = kvcache.BlockEfficiency(size)
		if blk <= 0 {
			return nil, fmt.Errorf("engine: invalid KV block size %d", size)
		}
	} else if cfg.KVBlockTokens > 0 {
		return nil, fmt.Errorf("engine: %s does not page its KV cache", cfg.Framework.Name)
	}
	return &Engine{
		cfg: cfg,
		link: parallel.Link{
			BW:      cfg.Device.InterconnectGBs * 1e9,
			Latency: cfg.Device.InterconnectLatencyUS * 1e-6,
			Eff:     cfg.Framework.TPCommEff,
		},
		effC:   effC,
		effM:   effM,
		peak:   peak,
		blkEff: blk,
	}, nil
}

// Result is one benchmark point's outcome.
type Result struct {
	Spec workload.Spec

	TTFTSeconds float64 // time to first token (§III-5b)
	ITLSeconds  float64 // inter-token latency, Eq. (1)
	E2ESeconds  float64 // end-to-end latency
	Throughput  float64 // tokens/s, Eq. (2)

	DecodeBound roofline.Bound // binding resource of the decode phase

	AvgPowerWatts    float64 // per device
	TotalPowerWatts  float64 // whole plan
	TokensPerSecPerW float64 // vs total power
	EnergyJoules     float64

	// PeakMemBytes is the per-device high-water mark.
	PeakMemBytes float64
}

// effectiveParallelism returns the work division and a bubble
// inflation for the framework's multi-device mode.
func (e *Engine) effectiveParallelism(tokens int) (division, inflation float64) {
	p := e.cfg.Plan
	n := p.Devices()
	if n == 1 {
		return 1, 1
	}
	if e.cfg.Framework.Parallel == framework.LayerSplit {
		// llama.cpp: layers are spread over devices but a token visits
		// them sequentially — no latency win, only a small overlap
		// benefit at stage boundaries (Fig. 14's weak scaling).
		return 1 + 0.08*float64(n-1), 1
	}
	division = float64(n)
	inflation = p.PipelineInflation(tokens)
	if p.PP > 1 {
		inflation *= ppSmallGEMMPenalty
	}
	if p.EP > 1 {
		inflation *= p.EPImbalance(e.cfg.Model)
	}
	return division, inflation
}

// saturationStall is the MI250-style page-fault stall multiplier on
// memory time (§VI-2 / Fig. 17): beyond the saturation point the
// working set (batch × context) drives preemptive MMU stalls.
func (e *Engine) saturationStall(batch, ctx int) float64 {
	d := e.cfg.Device
	if d.SaturationBatch == 0 || batch <= d.SaturationBatch {
		return 1
	}
	pressure := float64(batch)*float64(ctx)/(float64(d.SaturationBatch)*1024) - 1
	if pressure <= 0 {
		return 1
	}
	return 1 + d.SaturationPenalty*pressure
}

// powerBalance converts a phase's roofline outcome into the balance
// input of the power model. Compute-bound phases floor at 0.75: the
// tensor cores — the dominant power draw — are saturated even while
// the memory system idles, which is why prefill is the hot phase in
// pynvml traces.
func powerBalance(r roofline.Result) float64 {
	if r.Bound == roofline.ComputeBound && r.Balance < 0.75 {
		return 0.75
	}
	return r.Balance
}

func (e *Engine) moEAffinity() float64 {
	if e.cfg.Model.FFN == model.MoE {
		return e.cfg.Framework.MoEAffinity
	}
	return 1
}

// overheads returns the per-iteration fixed cost in seconds.
func (e *Engine) overheads() float64 {
	fw := e.cfg.Framework
	layers := float64(e.cfg.Model.Layers)
	perDev := layers
	if fw.Parallel == framework.TensorParallel && e.cfg.Plan.PP > 1 {
		perDev = layers / float64(e.cfg.Plan.PP)
	}
	return (perDev*fw.LayerOverheadUS + fw.StepOverheadUS) * 1e-6
}

// comm prices one iteration's communication, honouring overlap.
func (e *Engine) comm(tokens int) float64 {
	if e.cfg.Plan.Devices() == 1 {
		return 0
	}
	if e.cfg.Framework.Parallel == framework.LayerSplit {
		// One boundary hand-off per device per step.
		n := e.cfg.Plan.Devices()
		vol := float64(tokens) * float64(e.cfg.Model.Hidden) * e.cfg.Scheme.KV.Bytes()
		return float64(n-1) * (vol/(e.link.BW*e.link.Eff) + e.link.Latency)
	}
	c := e.cfg.Plan.StepComm(e.cfg.Model, tokens, 2, e.link)
	return c * (1 - e.cfg.Framework.CommOverlap)
}

// kvStreamBW is the effective bandwidth of KV-cache reads.
func (e *Engine) kvStreamBW(division float64) float64 {
	return e.cfg.Device.MemBW() * e.effM * division * e.cfg.Framework.KVEff * e.blkEff
}

// kvWriteBW is the effective bandwidth of KV-cache writes.
func (e *Engine) kvWriteBW(division float64) float64 {
	return e.cfg.Device.MemBW() * e.effM * division
}

// weightStreamBW is the effective bandwidth of weight reads. MoE
// affinity also scales it: expert weight streaming is where MoE
// kernel quality shows (DS-MII's grouped-expert GEMMs vs vLLM's, the
// Fig. 12 gap).
func (e *Engine) weightStreamBW(division float64) float64 {
	return e.cfg.Device.MemBW() * e.effM * division * e.cfg.Framework.MemBoost * e.moEAffinity()
}

// logitsPenalty is the extra serial time of the unembedding GEMM for
// frameworks that run it outside their fused path (DS-MII, llama.cpp):
// the excess over running it at full kernel efficiency. It scales with
// vocabulary size — why large-vocab models (LLaMA-3, Qwen2) lose their
// GQA advantage under those frameworks (§VII-1).
func (e *Engine) logitsPenalty(batch int, div float64) float64 {
	le := e.cfg.Framework.LogitsEff
	if le >= 1 {
		return 0
	}
	flops := 2 * float64(e.cfg.Model.Hidden) * float64(e.cfg.Model.Vocab) * float64(batch)
	base := flops / (e.peak * e.effC * div)
	return base * (1/le - 1)
}

// kvTrafficFactor inflates stored-KV traffic for frameworks whose
// attention kernels do not (fully) exploit GQA.
func (e *Engine) kvTrafficFactor() float64 {
	group := e.cfg.Model.KVGroupRatio()
	return e.cfg.Framework.KVTrafficRatio(group) / group
}

// memoryPlan validates a benchmark point and plans its memory: the
// per-device peak footprint, and the waves the batch runs in with the
// batch of each wave. Run and Explain both start from it.
//
// Paged, continuously-batching frameworks size sequences at their
// *average* context (preempting the occasional overflow, as vLLM
// does); static paged frameworks size at peak; non-paged frameworks
// reserve the monolithic maximum — the fragmentation contrast of
// §IV-B2 that OOMs Gaudi2 at large batch. When the whole batch's KV
// does not fit at once, frameworks with iteration-level scheduling run
// the requests in sequential waves (vLLM preemption / TRT-LLM
// in-flight batching); static executors simply fail — the paper's
// Gaudi2 OOMs.
func (e *Engine) memoryPlan(spec workload.Spec) (peak float64, waves, batch int, err error) {
	if err := spec.Validate(); err != nil {
		return 0, 0, 0, err
	}
	if lim := e.cfg.Device.ServiceBatchLimit; lim > 0 && spec.Batch > lim {
		return 0, 0, 0, fmt.Errorf("%w: %d > %s limit %d",
			ErrUnsupportedBatch, spec.Batch, e.cfg.Device.Name, lim)
	}
	m, fw := e.cfg.Model, e.cfg.Framework
	weights := m.WeightBytes(e.cfg.Scheme.Weights) * e.cfg.Plan.WeightShare(m)

	var kvTokens int
	switch {
	case e.cfg.DisableKVCache:
		kvTokens = 0
	case fw.PagedKV && fw.ContinuousBatching:
		kvTokens = spec.Input + spec.Output/2
	case fw.ReserveMaxSeq:
		// Static monolithic reservation at the serving configuration's
		// maximum length (capped at 8K as deployments do) — the
		// fragmentation behind Gaudi2's large-batch OOMs.
		kvTokens = m.MaxSeq
		if kvTokens > 8192 {
			kvTokens = 8192
		}
		if lived := spec.Input + spec.Output; lived > kvTokens {
			kvTokens = lived
		}
	default:
		kvTokens = spec.Input + spec.Output
	}
	// Every scheme shards KV across all devices: TP by heads, PP by
	// layers, EP by running attention data-parallel over the batch
	// (the DeepSpeed-MoE layout).
	perSeqKV := float64(kvTokens) * m.KVBytesPerToken(e.cfg.Scheme.KV) /
		float64(e.cfg.Plan.Devices())
	actTokens := spec.Input
	if fw.ReserveMaxSeq {
		// Static HPU graphs also pre-allocate activation workspace for
		// their compiled shapes, not just the live prompt.
		actTokens = kvTokens
		if actTokens > 2048 {
			actTokens = 2048
		}
	}
	perSeqAct := m.ActivationBytes(1, actTokens) / float64(e.cfg.Plan.Devices())

	usable := e.cfg.Device.MemBytes() * usableMemFraction
	avail := usable - weights
	perSeq := perSeqKV + perSeqAct
	if avail <= 0 || avail < perSeq {
		need := weights + perSeq
		return need, 0, 0, fmt.Errorf("%w: need %.1f GiB of %.1f GiB usable on %s (%s)",
			ErrOOM, need/(1<<30), usable/(1<<30), e.cfg.Device.Name, e.cfg.Plan)
	}
	conc := min(int(avail/perSeq), spec.Batch)
	peak = weights + float64(conc)*perSeq
	if conc == spec.Batch {
		return peak, 1, spec.Batch, nil
	}
	if !fw.BatchWaves {
		return peak, 0, 0, fmt.Errorf(
			"%w: only %d of %d sequences fit on %s (%s) and %s cannot schedule waves",
			ErrOOM, conc, spec.Batch, e.cfg.Device.Name, e.cfg.Plan, fw.Name)
	}
	waves = (spec.Batch + conc - 1) / conc
	return peak, waves, (spec.Batch + waves - 1) / waves, nil
}

// phaseTerms are one phase's roofline terms — the split the paper
// explains each result by (§III-5, §VII). prefillTerms and stepTerms
// define them once per phase; cost combines them into the phase's
// price, and Explain reports them.
type phaseTerms struct {
	compute float64 // compute wall: FLOPs / effective FLOP/s
	// Memory streams in seconds, before the saturation stall.
	weight, kvRead, kvWrite float64
	stall                   float64 // saturation stall on the memory wall
	infl                    float64 // parallelism inflation of the overlapped walls
	overlap                 float64 // device engine overlap; 0 for eager execution
	// Additive serial terms.
	overhead, comm, setup, logits float64
}

// cost combines a phase's terms: the memory wall is the stalled sum of
// the streams, the device overlaps the shorter wall under the longer,
// and the serial terms add on. The order of the additions is part of
// the byte-identity contract.
func (p phaseTerms) cost() roofline.Result {
	mem := (p.weight + p.kvRead + p.kvWrite) * p.stall
	long := math.Max(p.compute, mem)
	short := math.Min(p.compute, mem)
	t := long
	if p.overlap > 0 {
		t = math.Max(long-short*p.overlap, 0.6*long)
	}
	t = t*p.infl + p.overhead + p.comm + p.setup + p.logits
	bound := roofline.ComputeBound
	if mem > p.compute {
		bound = roofline.MemoryBound
	}
	balance := 0.0
	if long > 0 {
		balance = short / long
	}
	return roofline.Result{Seconds: t, Bound: bound, ComputeTime: p.compute, MemoryTime: mem, Balance: balance}
}

// prefillTerms are the prompt pass's terms: one compute-heavy pass
// over batch prompts of input tokens, one weight sweep, and KV written
// for the whole prompt.
func (e *Engine) prefillTerms(batch, input int) phaseTerms {
	m := e.cfg.Model
	tokens := batch * input
	div, infl := e.effectiveParallelism(tokens)
	return phaseTerms{
		compute:  float64(batch) * m.PrefillFLOPs(input) / (e.peak * e.effC * div * e.moEAffinity()),
		weight:   m.DecodeWeightBytes(tokens, e.cfg.Scheme.Weights) / e.weightStreamBW(div),
		kvWrite:  m.KVCacheBytes(batch, input, e.cfg.Scheme.KV) / e.kvWriteBW(div),
		stall:    e.saturationStall(batch, input),
		infl:     infl,
		overlap:  e.cfg.Device.OverlapFactor,
		overhead: e.overheads(),
		comm:     e.comm(tokens),
		setup:    float64(batch) * e.cfg.Framework.PrefillPerSeqMS * 1e-3,
	}
}

// stepTerms are one decode step's terms at context ctx.
func (e *Engine) stepTerms(batch, ctx int) phaseTerms {
	m, fw := e.cfg.Model, e.cfg.Framework
	div, infl := e.effectiveParallelism(batch)
	if e.cfg.DisableKVCache {
		// Without a KV cache every step re-runs the full forward pass
		// over the whole context (§IV-B1 / Fig. 2a), eagerly — no
		// graphs, no fused attention — so both rooflines are derated by
		// eagerPenalty and the device overlap does not apply.
		return phaseTerms{
			compute:  float64(batch) * m.PrefillFLOPs(ctx) / (e.peak * e.effC * eagerPenalty * div * e.moEAffinity()),
			weight:   m.DecodeWeightBytes(batch*ctx, e.cfg.Scheme.Weights) / (e.weightStreamBW(div) * eagerPenalty),
			stall:    1,
			infl:     infl,
			overhead: e.overheads(),
			comm:     e.comm(batch),
		}
	}
	restreams := 1.0
	if fw.GEMMBatchCap > 0 && batch > fw.GEMMBatchCap {
		restreams = math.Ceil(float64(batch) / float64(fw.GEMMBatchCap))
	}
	return phaseTerms{
		compute:  float64(batch) * m.DecodeFLOPsPerToken(ctx) / (e.peak * e.effC * div * e.moEAffinity()),
		weight:   m.DecodeWeightBytes(batch, e.cfg.Scheme.Weights) * restreams / e.weightStreamBW(div),
		kvRead:   float64(batch) * float64(ctx) * m.KVBytesPerToken(e.cfg.Scheme.KV) * e.kvTrafficFactor() / e.kvStreamBW(div),
		kvWrite:  m.DecodeKVWriteBytes(batch, e.cfg.Scheme.KV) / e.kvWriteBW(div),
		stall:    e.saturationStall(batch, ctx),
		infl:     infl,
		overlap:  e.cfg.Device.OverlapFactor,
		overhead: e.overheads(),
		comm:     e.comm(batch),
		logits:   e.logitsPenalty(batch, div),
	}
}

// Run evaluates one benchmark point.
func (e *Engine) Run(spec workload.Spec) (Result, error) {
	peakMem, waves, batch, err := e.memoryPlan(spec)
	if err != nil {
		return Result{PeakMemBytes: peakMem}, err
	}

	ttft, err := e.PrefillSeconds(batch, spec.Input)
	if err != nil {
		return Result{}, err
	}

	// The whole decode phase is one range of identical-batch steps at
	// contexts Input+1 … Input+Output-1, folded from the batch's master
	// table in step order.
	decode, balSec, bound := e.decodeRange(batch, spec.Input+1, spec.Output-1)
	e2e := float64(waves) * (ttft + decode)

	itl := 0.0
	if spec.Output > 1 {
		// Paper Eq. (1).
		itl = (e2e - ttft) / (float64(spec.Batch) * float64(spec.Output-1))
	}
	throughput := spec.TotalTokens() / e2e // Paper Eq. (2)

	balance := 0.0
	if decode > 0 {
		balance = balSec / decode
	}
	occupancy := math.Min(1, float64(batch)/64)
	util := power.Utilization(balance, occupancy, e.effC)
	watts, err := power.Draw(e.cfg.Device, util)
	if err != nil {
		return Result{}, err
	}
	total := watts * float64(e.cfg.Plan.Devices())

	return Result{
		Spec:             spec,
		TTFTSeconds:      ttft,
		ITLSeconds:       itl,
		E2ESeconds:       e2e,
		Throughput:       throughput,
		DecodeBound:      bound,
		AvgPowerWatts:    watts,
		TotalPowerWatts:  total,
		TokensPerSecPerW: power.TokensPerSecondPerWatt(throughput, total),
		EnergyJoules:     power.Energy(total, e2e),
		PeakMemBytes:     peakMem,
	}, nil
}

// PrefillSeconds is the cost of prefilling a batch of prompts: Run's
// TTFT and the serving kernel's admission charge. Each
// (batch, input) pair is priced once per engine, under the build
// mutex, and memoised; warm reads are lock-free.
func (e *Engine) PrefillSeconds(batch, input int) (float64, error) {
	if batch < 1 || input < 1 {
		return 0, errors.New("engine: non-positive batch or input")
	}
	if c := e.prefills.get(input-1, batch-1); c != nil {
		return *c, nil
	}
	e.buildMu.Lock()
	defer e.buildMu.Unlock()
	if c := e.prefills.get(input-1, batch-1); c != nil {
		return *c, nil // a racer priced it first
	}
	e.prefillEvals.Add(1)
	sec := e.prefillTerms(batch, input).cost().Seconds
	e.prefills.put(input-1, batch-1, &sec)
	return sec, nil
}

// DecodeStepSeconds is the cost of one decode step at a given batch
// size and context: the serving kernel's stepped iterations and the
// speculative-decoding study read it. It is one cell of the batch's
// master table, priced on first use; warm reads are a few atomic
// loads.
func (e *Engine) DecodeStepSeconds(batch, ctx int) (float64, error) {
	if batch < 1 || ctx < 1 {
		return 0, errors.New("engine: non-positive batch or context")
	}
	v := e.masterFor(batch, ctx, ctx)
	return v.seconds[ctx-v.base], nil
}
