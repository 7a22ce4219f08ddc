// Package sched simulates online serving with the two batch-scheduling
// strategies the paper contrasts (§IV-A1): Orca-style continuous
// batching — "new requests of variable length can be processed without
// waiting for the previous batch to be finished" — and traditional
// static batching, which drains a whole batch before admitting more.
//
// The simulation is mechanistic: requests arrive on a trace, occupy
// real KV-cache blocks from internal/kvcache, advance token by token
// at per-iteration costs priced by the engine, and are preempted when
// the cache runs out.
//
// Both schedulers are policy layers over the shared discrete-event
// kernel (internal/des): sched contributes the admission policy —
// iteration-level FIFO admission with chunked prefill and
// evict-and-requeue on KV pressure for Continuous, batch-boundary
// collect-and-run-to-completion for Static (des.Config.Static) —
// while the kernel owns the event loop, the coalesced-window advance,
// and the determinism contract — coalesced, stepped, serial, and
// parallel runs produce byte-identical Stats. Static sharing the
// kernel is what lets the cluster router and autoscaler
// (internal/cluster) drive static replicas exactly like continuous
// ones. See the internal/des package documentation for the event
// model.
package sched

import (
	"errors"
	"fmt"
	"sort"

	"llmbench/internal/des"
	"llmbench/internal/engine"
	"llmbench/internal/kvcache"
	"llmbench/internal/workload"
)

// Policy selects the batching strategy.
type Policy int

const (
	// Continuous admits requests at iteration granularity (vLLM,
	// TRT-LLM, DS-MII).
	Continuous Policy = iota
	// Static collects a batch, runs it to completion, then repeats
	// (pre-Orca serving).
	Static
)

func (p Policy) String() string {
	if p == Continuous {
		return "continuous"
	}
	return "static"
}

// Config parameterises a serving simulation.
type Config struct {
	Engine   *engine.Engine
	Policy   Policy
	MaxBatch int // concurrency cap per iteration
	// Alloc is the KV allocator used for admission control and
	// preemption. Required.
	Alloc kvcache.Allocator

	// ChunkedPrefill enables Dynamic-SplitFuse-style scheduling
	// (DS-MII, §V-3): prompts are prefilled in PrefillChunk-token
	// slices fused into decode iterations, so running requests keep
	// generating instead of stalling behind a long admission prefill.
	ChunkedPrefill bool
	// PrefillChunk is the slice size in tokens (default 512).
	PrefillChunk int

	// Stepped disables iteration coalescing, advancing the simulation
	// one decode iteration per scheduler event — the O(output tokens)
	// reference path the coalesced fast-forward is tested against.
	// Output is byte-identical either way; Stepped only costs time.
	Stepped bool

	// Streaming aggregates completions incrementally through a
	// StreamAggregator instead of retaining the per-request ledger:
	// O(1) stats memory for million-request traces. Non-percentile
	// aggregates are byte-identical to the exact path; percentiles are
	// P² sketch estimates (see the accuracy contract in stream.go) and
	// Stats.Requests is nil.
	Streaming bool

	// Scratch, when non-nil, recycles kernel slices and station shells
	// (request free lists included) across runs — see des.Scratch.
	// Results are byte-identical with or without it; sweeps pass one
	// per worker so per-point setup stops allocating.
	Scratch *des.Scratch
}

// RequestStats records one request's lifecycle. It is the kernel's
// ledger entry type (internal/des), re-exported for API stability.
type RequestStats = des.RequestStats

// Stats summarises a serving run. All percentile fields use the
// lower-index convention: the p-quantile of n sorted samples is the
// value at index int((n-1)*p), with no interpolation between ranks.
// The streaming aggregator (stream.go) estimates the same quantiles
// with P² sketches and is tested against this convention.
type Stats struct {
	Completed   int
	MakespanS   float64
	Throughput  float64 // total (in+out) tokens per second, Eq. (2) spirit
	MeanLatency float64
	P50Latency  float64
	P95Latency  float64
	P99Latency  float64
	MeanTTFT    float64
	// Queue-delay percentiles: time spent waiting before prefill —
	// the admission pressure the latency percentiles alone hide.
	MeanQueueDelay float64
	P50QueueDelay  float64
	P95QueueDelay  float64
	P99QueueDelay  float64
	// MeanTransferDelay is the mean prefill→decode kv-transfer delay
	// per completed request — the interconnect time disaggregated
	// topologies pay that aggregated fleets do not. Always zero for
	// aggregated runs.
	MeanTransferDelay float64
	Preemptions       int
	// MaxIterationS is the longest single scheduler iteration — the
	// worst token-level stall a running request experienced. Chunked
	// prefill exists to bound it (§V-3).
	MaxIterationS float64
	// CacheHitRate is the fraction of admitted prompt tokens served
	// from the prefix cache (kvcache.PrefillDiscounter) instead of
	// prefilled — the capacity multiplier shared system prompts buy.
	// Zero on plain allocators.
	CacheHitRate float64
	Requests     []RequestStats
}

// Serve runs the trace to completion and returns statistics.
func Serve(cfg Config, reqs []workload.Request) (Stats, error) {
	if cfg.Engine == nil || cfg.Alloc == nil {
		return Stats{}, errors.New("sched: nil engine or allocator")
	}
	if cfg.MaxBatch < 1 {
		return Stats{}, errors.New("sched: MaxBatch must be ≥ 1")
	}
	if len(reqs) == 0 {
		return Stats{}, errors.New("sched: empty trace")
	}
	if cfg.Policy != Continuous && cfg.Policy != Static {
		return Stats{}, fmt.Errorf("sched: unknown policy %d", cfg.Policy)
	}
	// Both policies are station policies on the shared kernel: the
	// continuous scheduler contributes preemptive iteration-level
	// admission, the static one batch-boundary admission with
	// run-to-completion windows (des.Config.Static).
	k := des.New(des.Config{
		MaxBatch:       cfg.MaxBatch,
		ChunkedPrefill: cfg.ChunkedPrefill,
		PrefillChunk:   cfg.PrefillChunk,
		Static:         cfg.Policy == Static,
		Preemptive:     cfg.Policy == Continuous,
		Stepped:        cfg.Stepped,
	})
	k.Reuse(cfg.Scratch)
	defer k.Release()
	k.NewStation(cfg.Engine, cfg.Alloc)
	var agg Aggregator
	if cfg.Streaming {
		stream := NewStreamAggregator()
		agg = stream
		k.Sink = stream.Observe
	}
	res, err := k.Run(reqs)
	if err != nil {
		return Stats{}, fmt.Errorf("sched: %w", err)
	}
	return ResultStats(res, agg)
}

// ResultStats turns a kernel result into Stats — the one summary step
// behind Serve and the cluster simulators (internal/cluster). agg,
// when non-nil, is the streaming aggregator that consumed the
// completions through the kernel's Sink; otherwise the result's ledger
// is summarised.
func ResultStats(res des.Result, agg Aggregator) (Stats, error) {
	var stats Stats
	var err error
	if agg != nil {
		stats, err = agg.Stats(res.MakespanS, res.Preemptions)
	} else {
		stats, err = Summarize(res.Finished, res.MakespanS, res.Preemptions)
	}
	if err != nil {
		return Stats{}, err
	}
	stats.MaxIterationS = res.MaxIterationS
	if res.PromptTokens > 0 {
		stats.CacheHitRate = float64(res.PrefixHitTokens) / float64(res.PromptTokens)
	}
	return stats, nil
}

// Summarize aggregates completed request lifecycles into Stats. It is
// the single summary implementation behind both the single-replica
// scheduler and the cluster simulators (internal/cluster).
func Summarize(done []RequestStats, makespan float64, preemptions int) (Stats, error) {
	// Validate before allocating or sorting: a bad makespan used to be
	// caught only after two O(n log n) sorts of day-scale slices. The
	// negated comparison also rejects NaN, which `makespan <= 0` let
	// through.
	if len(done) == 0 {
		return Stats{}, errors.New("sched: no requests completed")
	}
	if !(makespan > 0) {
		return Stats{}, errors.New("sched: zero makespan")
	}
	var tokens, latSum, ttftSum, qdSum, xferSum float64
	lats := make([]float64, len(done))
	qds := make([]float64, len(done))
	for i, r := range done {
		lats[i] = r.Latency()
		latSum += lats[i]
		qds[i] = r.QueueDelay()
		qdSum += qds[i]
		ttftSum += r.FirstTok - r.Arrival
		xferSum += r.TransferS
		tokens += float64(r.Input + r.Output)
	}
	sort.Float64s(lats)
	sort.Float64s(qds)
	return Stats{
		Completed:         len(done),
		MakespanS:         makespan,
		Throughput:        tokens / makespan,
		MeanLatency:       latSum / float64(len(done)),
		P50Latency:        percentile(lats, 0.50),
		P95Latency:        percentile(lats, 0.95),
		P99Latency:        percentile(lats, 0.99),
		MeanTTFT:          ttftSum / float64(len(done)),
		MeanQueueDelay:    qdSum / float64(len(done)),
		P50QueueDelay:     percentile(qds, 0.50),
		P95QueueDelay:     percentile(qds, 0.95),
		P99QueueDelay:     percentile(qds, 0.99),
		MeanTransferDelay: xferSum / float64(len(done)),
		Preemptions:       preemptions,
		Requests:          done,
	}, nil
}

// percentile reads the p-quantile of a sorted sample with the
// lower-index convention the original P99 used, so existing numbers
// are unchanged.
func percentile(sorted []float64, p float64) float64 {
	return sorted[int(float64(len(sorted)-1)*p)]
}
