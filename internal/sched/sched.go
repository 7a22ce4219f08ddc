// Package sched summarises serving runs: Stats and its lower-index
// percentile convention, Summarize over a completed-request ledger,
// ResultStats over a kernel result, and the streaming P² aggregator
// (stream.go) for traces too long to keep a ledger of. The serving
// simulation itself — continuous and static batching (§IV-A1), paged
// KV under a live scheduler with preemption (§IV-B2), routing and
// autoscaling — runs on the discrete-event kernel (internal/des)
// through internal/cluster; a single-replica run is a one-replica
// cluster.Serve.
package sched

import (
	"errors"
	"sort"

	"llmbench/internal/des"
)

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

// ResultStats turns a kernel result into Stats — the one summary step
// behind the cluster simulators (internal/cluster). agg,
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
// the single summary implementation behind the cluster simulators
// (internal/cluster).
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
