// Package llmbench is a Go reproduction of "LLM-Inference-Bench:
// Inference Benchmarking of Large Language Models on AI Accelerators"
// (Chitty-Venkata et al., SC 2024).
//
// Since the paper's testbed — NVIDIA A100/H100/GH200, AMD
// MI250/MI300X, Habana Gaudi2, SambaNova SN40L — is not reproducible
// in software, the library rebuilds the system under study as a
// calibrated, mechanism-level simulator (see DESIGN.md) and reruns the
// paper's entire evaluation on it: every figure and table has a
// corresponding experiment and benchmark.
//
// Quick start:
//
//	res, err := llmbench.Run(llmbench.System{
//	    Model: "LLaMA-3-8B", Device: "A100", Framework: "vLLM",
//	}, llmbench.Workload{Batch: 16, Input: 1024, Output: 1024})
//
// Grids of points — the shape of every figure in the paper — go
// through Sweep, which builds the engine once, fans the points out
// over a bounded worker pool, and returns them in grid order:
//
//	pts, err := llmbench.Sweep(sys, llmbench.Grid{
//	    Batches: []int{1, 16, 32, 64}, Lengths: []int{128, 1024},
//	})
//
// Serving-capacity grids — arrival rate × replica count × scheduling
// policy, the questions a deployment planner asks of the continuous-
// batching and cluster simulators — go through ServeSweep, with Knees
// folding the result into each configuration's highest SLO-compliant
// rate:
//
//	pts, err := llmbench.ServeSweep(llmbench.ServeSweepConfig{
//	    System: sys, MaxBatch: 32,
//	    Requests: 200, InputMean: 512, OutputMean: 128,
//	}, llmbench.ServeGrid{
//	    Rates:    []float64{5, 10, 20, 40},
//	    Replicas: []int{1, 2, 4},
//	})
//	knees := llmbench.Knees(pts, 6.0 /* p99 SLO seconds */)
//
// All fan-out APIs (Sweep, ServeSweep, RunExperiments, Report,
// VerifyAnchors) are deterministic: results are ordered by
// submission, never by completion, so parallel output is
// byte-identical to serial output. Engines are immutable once built
// and shared through a cache keyed by System.
//
// Deeper control — quantization schemes, parallelism plans, paged-KV
// block sizes, serving traces — is available through the same System
// struct; the internal packages hold the mechanism implementations.
package llmbench

import (
	"errors"
	"fmt"
	"io"
	"math"

	"llmbench/internal/des"
	"llmbench/internal/engine"
	"llmbench/internal/experiments"
	"llmbench/internal/framework"
	"llmbench/internal/hw"
	"llmbench/internal/kvcache"
	"llmbench/internal/model"
	"llmbench/internal/parallel"
	"llmbench/internal/perplexity"
	"llmbench/internal/quant"
	"llmbench/internal/sched"
	"llmbench/internal/workload"

	"llmbench/internal/dtype"
)

// System names one benchmarkable configuration. Model, Device, and
// Framework are catalog names (see Models, Devices, Frameworks).
type System struct {
	Model     string
	Device    string
	Framework string

	// Parallelism degrees; zero values mean 1, negative ones are
	// rejected.
	TP, PP, EP int

	// Weights and KV are precision names ("fp16", "fp8", "int8", …);
	// empty means fp16.
	Weights string
	KV      string

	// KVBlockTokens overrides the paged-KV block size (0 = framework
	// default; negative is rejected). DisableKVCache reruns the full
	// context every step.
	KVBlockTokens  int
	DisableKVCache bool
}

// Workload is one benchmark point: Batch sequences of Input prompt
// tokens generating Output tokens each.
type Workload struct {
	Batch  int
	Input  int
	Output int
}

// Result re-exports the engine's per-point metrics.
type Result = engine.Result

// systemConfig resolves a System's catalog names into an engine
// configuration. Catalog getters return canonical pointers, so two
// resolutions of equivalent Systems compare equal — the property the
// engine-layer cache keys on.
func systemConfig(sys System) (engine.Config, error) {
	m, err := model.Get(sys.Model)
	if err != nil {
		return engine.Config{}, err
	}
	d, err := hw.Get(sys.Device)
	if err != nil {
		return engine.Config{}, err
	}
	fw, err := framework.Get(sys.Framework)
	if err != nil {
		return engine.Config{}, err
	}
	for _, f := range []struct {
		name string
		v    int
	}{{"TP", sys.TP}, {"PP", sys.PP}, {"EP", sys.EP}, {"KVBlockTokens", sys.KVBlockTokens}} {
		if f.v < 0 {
			return engine.Config{}, fmt.Errorf("llmbench: negative System.%s %d", f.name, f.v)
		}
	}
	plan := parallel.Plan{TP: max1(sys.TP), PP: max1(sys.PP), EP: max1(sys.EP)}
	scheme := quant.FP16
	if sys.Weights != "" {
		w, err := dtype.Parse(sys.Weights)
		if err != nil {
			return engine.Config{}, err
		}
		scheme.Weights = w
	}
	if sys.KV != "" {
		kv, err := dtype.Parse(sys.KV)
		if err != nil {
			return engine.Config{}, err
		}
		scheme.KV = kv
	}
	return engine.Config{
		Model:          m,
		Device:         d,
		Framework:      fw,
		Plan:           plan,
		Scheme:         scheme,
		KVBlockTokens:  sys.KVBlockTokens,
		DisableKVCache: sys.DisableKVCache,
	}, nil
}

// NewEngine builds a private simulator instance for a System (not
// shared through the engine cache; see CachedEngine).
func NewEngine(sys System) (*engine.Engine, error) {
	cfg, err := systemConfig(sys)
	if err != nil {
		return nil, err
	}
	return engine.New(cfg)
}

func max1(v int) int {
	if v < 1 {
		return 1
	}
	return v
}

// Run evaluates one benchmark point through the shared engine cache:
// repeated calls for one System reuse its engine.
func Run(sys System, w Workload) (Result, error) {
	eng, err := CachedEngine(sys)
	if err != nil {
		return Result{}, err
	}
	return eng.Run(workload.Spec{Batch: w.Batch, Input: w.Input, Output: w.Output})
}

// Breakdown re-exports the engine's time attribution (see Explain).
type Breakdown = engine.Breakdown

// Explain evaluates one benchmark point and attributes its time to
// mechanisms: compute vs memory walls, weight vs KV streams,
// communication, overheads, setup — the quantities the paper's
// analysis sections reason about.
func Explain(sys System, w Workload) (*Breakdown, error) {
	eng, err := CachedEngine(sys)
	if err != nil {
		return nil, err
	}
	return eng.Explain(workload.Spec{Batch: w.Batch, Input: w.Input, Output: w.Output})
}

// Models lists the model catalog (Table I plus the scatter models).
func Models() []string { return model.Names() }

// Devices lists the accelerator catalog (Table II).
func Devices() []string { return hw.Names() }

// Frameworks lists the framework catalog (Table III plus vendor
// stacks).
func Frameworks() []string { return framework.Names() }

// ExperimentInfo describes one reproducible paper artifact.
type ExperimentInfo struct {
	ID       string
	Title    string
	Workload string
	Modules  []string
}

// Experiments lists every reproduced figure and table in paper order.
func Experiments() []ExperimentInfo {
	all := experiments.All()
	out := make([]ExperimentInfo, len(all))
	for i, e := range all {
		out[i] = ExperimentInfo{ID: e.ID, Title: e.Title, Workload: e.Workload, Modules: e.Modules}
	}
	return out
}

// ExperimentResult is a rendered experiment.
type ExperimentResult struct {
	ID       string
	Markdown string
	CSV      string // empty for tables
}

// RunExperiment regenerates one figure or table by ID (e.g. "fig6",
// "tab2").
func RunExperiment(id string) (*ExperimentResult, error) {
	res, err := RunExperiments([]string{id}, 1)
	if err != nil {
		return nil, err
	}
	return &res[0], nil
}

// RunExperiments regenerates the given figures and tables
// concurrently on at most parallelism workers (values below 1 mean
// GOMAXPROCS). Results come back in the order of ids regardless of
// completion order.
//
// On failure the error belongs to the earliest failing id; results
// for every id before it are still returned, and every entry from
// the failing id on is zero (empty ID) — even where a later
// experiment happened to finish — so the failure path is as
// deterministic as the success path.
func RunExperiments(ids []string, parallelism int) ([]ExperimentResult, error) {
	outs, err := experiments.RunExperiments(ids, parallelism)
	if err != nil {
		err = fmt.Errorf("llmbench: %w", err)
		if outs == nil {
			return nil, err
		}
	}
	res := make([]ExperimentResult, len(outs))
	for i, out := range outs {
		if out == nil {
			// The earliest failure: everything before it is complete
			// (the pool dispatches in index order); everything after
			// is scheduling-dependent, so drop it.
			break
		}
		res[i] = ExperimentResult{ID: ids[i], Markdown: out.Markdown()}
		if out.Figure != nil {
			res[i].CSV = out.Figure.CSV()
		}
	}
	return res, err
}

// Report renders the paper-vs-measured anchor table (the `llmbench
// report` output) by regenerating the relevant figures on parallelism
// workers; values below 1 mean GOMAXPROCS. The table is byte-identical
// at any parallelism.
func Report(parallelism int) (string, error) {
	return experiments.ReportMarkdown(parallelism)
}

// Anchor re-exports one paper-vs-measured comparison row.
type Anchor = experiments.AnchorRow

// VerifyAnchors regenerates the anchor figures on parallelism workers
// (values below 1 mean GOMAXPROCS) and returns each paper claim with
// its measured value and whether the shape holds — the CI check behind
// `llmbench verify`.
func VerifyAnchors(parallelism int) ([]Anchor, error) {
	return experiments.Report(parallelism)
}

// Perplexity evaluates the named model's perplexity on the synthetic
// LongBench-like corpus (the quality axis of Figs. 10/29).
func Perplexity(modelName string) (float64, error) {
	ev, err := perplexity.NewEvaluator()
	if err != nil {
		return 0, err
	}
	return ev.ModelPerplexity(modelName)
}

// ServeStats re-exports the scheduler's summary.
type ServeStats = sched.Stats

// RequestStats re-exports one request's lifecycle entry
// (ServeStats.Requests).
type RequestStats = sched.RequestStats

// TraceRequest re-exports one arrival of a serving trace: an offset
// in seconds since trace start plus prompt and generation lengths.
type TraceRequest = workload.Request

// TraceMeta re-exports the descriptive header of a trace file.
type TraceMeta = workload.TraceMeta

// WriteTrace records a serving trace in the versioned llmbench-trace
// file format (see TRACES.md): replaying a recorded trace through any
// policy, replica count, and batching configuration is deterministic
// to the bit. The trace is validated before anything is written.
func WriteTrace(w io.Writer, reqs []TraceRequest, meta TraceMeta) error {
	return workload.Record(w, reqs, meta)
}

// ReadTrace replays a trace file written by WriteTrace (or any
// producer of the documented format) back into request order, with
// IDs assigned by row.
func ReadTrace(r io.Reader) ([]TraceRequest, TraceMeta, error) {
	return workload.Replay(r)
}

// validateKVBudget rejects negative, NaN, and infinite KV budgets
// rather than silently falling through to auto-sizing (or, for +Inf,
// overflowing the allocator's block count). Shared by the per-replica
// budget resolution and ServeSweep's up-front grid validation.
func validateKVBudget(budgetGiB float64) error {
	if budgetGiB < 0 || math.IsNaN(budgetGiB) || math.IsInf(budgetGiB, 0) {
		return fmt.Errorf("llmbench: invalid KV budget %v GiB (want a finite value ≥ 0)", budgetGiB)
	}
	return nil
}

// servingKVBudget resolves the paged-KV pool size for one replica:
// the explicit budget when given, otherwise the device's free memory
// after fp16 weights.
func servingKVBudget(sys System, budgetGiB float64) (float64, error) {
	if err := validateKVBudget(budgetGiB); err != nil {
		return 0, err
	}
	if budget := budgetGiB * (1 << 30); budget > 0 {
		return budget, nil
	}
	m, err := model.Get(sys.Model)
	if err != nil {
		return 0, err
	}
	d, err := hw.Get(sys.Device)
	if err != nil {
		return 0, err
	}
	free := d.MemBytes()*0.88 - m.WeightBytes(dtype.FP16)
	if free <= 0 {
		return 0, fmt.Errorf("llmbench: %s does not fit on %s for serving", sys.Model, sys.Device)
	}
	return free, nil
}

// servingAlloc builds one replica's private paged-KV allocator.
func servingAlloc(sys System, budget float64) (kvcache.Allocator, error) {
	m, err := model.Get(sys.Model)
	if err != nil {
		return nil, err
	}
	return kvcache.NewPaged(16, m.KVBytesPerToken(dtype.FP16), budget)
}

// ErrHostLink marks a device whose device↔host link description
// cannot price tier restores: zero, negative, NaN, or infinite
// bandwidth or latency would produce Inf/NaN restore times in the
// admission path. Prefix-share sweep points surface it per point
// (ServeSweepPoint.Err).
var ErrHostLink = errors.New("llmbench: invalid device host link for kv-tier pricing")

// hostLinkFor validates the resolved device's host-link fields and
// builds the restore pricing; the split mirrors transferCostFor so
// the validation is testable against fabricated devices.
func hostLinkFor(devName string, d *hw.Device) (kvcache.HostLink, error) {
	if !(d.HostLinkGBs > 0) || math.IsInf(d.HostLinkGBs, 0) {
		return kvcache.HostLink{}, fmt.Errorf("%w: %s HostLinkGBs %v (want positive and finite)",
			ErrHostLink, devName, d.HostLinkGBs)
	}
	if !(d.HostLinkLatencyUS > 0) || math.IsInf(d.HostLinkLatencyUS, 0) {
		return kvcache.HostLink{}, fmt.Errorf("%w: %s HostLinkLatencyUS %v (want positive and finite)",
			ErrHostLink, devName, d.HostLinkLatencyUS)
	}
	return kvcache.HostLink{
		GBPerS:   d.HostLinkGBs,
		LatencyS: d.HostLinkLatencyUS * 1e-6,
	}, nil
}

// servingPrefixAlloc builds one replica's tiered prefix-sharing
// allocator for shared-prefix serving points: a PrefixPaged device
// pool fronting a host tier sized by hostBudget bytes, with restores
// priced over the device's host link. A prefix shorter than one
// 16-token block shares nothing, so the plain paged allocator is used
// (keeping those points byte-identical to non-prefix runs).
func servingPrefixAlloc(sys System, budget, hostBudget float64, prefixTokens int) (kvcache.Allocator, error) {
	m, err := model.Get(sys.Model)
	if err != nil {
		return nil, err
	}
	if prefixTokens < 16 {
		return kvcache.NewPaged(16, m.KVBytesPerToken(dtype.FP16), budget)
	}
	d, err := hw.Get(sys.Device)
	if err != nil {
		return nil, err
	}
	link, err := hostLinkFor(sys.Device, d)
	if err != nil {
		return nil, err
	}
	gpu, err := kvcache.NewPrefixPaged(16, prefixTokens, m.KVBytesPerToken(dtype.FP16), budget)
	if err != nil {
		return nil, err
	}
	return kvcache.NewTiered(gpu, hostBudget, link)
}

// ErrInterconnect marks a device whose interconnect description
// cannot price kv-transfers: zero, negative, NaN, or infinite
// bandwidth or latency would produce Inf/NaN transfer times that
// sail past Knees' SLO check as "fast" points. Disaggregated sweep
// points surface it per point (ServeSweepPoint.Err).
var ErrInterconnect = errors.New("llmbench: invalid device interconnect for kv-transfer pricing")

// transferCost prices the prefill→decode KV hand-off for a system:
// the prompt's KV in whole paged blocks (the serving allocator's
// 16-token blocks at fp16) over the device's peer interconnect.
func transferCost(sys System) (des.TransferCost, error) {
	m, err := model.Get(sys.Model)
	if err != nil {
		return des.TransferCost{}, err
	}
	d, err := hw.Get(sys.Device)
	if err != nil {
		return des.TransferCost{}, err
	}
	return transferCostFor(sys.Device, m, d)
}

// transferCostFor validates the resolved device's interconnect fields
// and builds the pricing; split from transferCost so the validation is
// testable against fabricated device descriptions.
func transferCostFor(devName string, m *model.Config, d *hw.Device) (des.TransferCost, error) {
	if !(d.InterconnectGBs > 0) || math.IsInf(d.InterconnectGBs, 0) {
		return des.TransferCost{}, fmt.Errorf("%w: %s InterconnectGBs %v (want positive and finite)",
			ErrInterconnect, devName, d.InterconnectGBs)
	}
	if !(d.InterconnectLatencyUS > 0) || math.IsInf(d.InterconnectLatencyUS, 0) {
		return des.TransferCost{}, fmt.Errorf("%w: %s InterconnectLatencyUS %v (want positive and finite)",
			ErrInterconnect, devName, d.InterconnectLatencyUS)
	}
	return des.TransferCost{
		BlockTokens:   16,
		BytesPerToken: m.KVBytesPerToken(dtype.FP16),
		GBPerS:        d.InterconnectGBs,
		LatencyS:      d.InterconnectLatencyUS * 1e-6,
	}, nil
}
