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
	"math"
	"math/bits"
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
// behind the cluster simulators (internal/cluster). agg, when non-nil,
// is the streaming aggregator that consumed the completions through
// the kernel's Sink; nil summarises the result's ledger.
func ResultStats(res des.Result, agg *StreamAggregator) (Stats, error) {
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
// (internal/cluster). Its percentiles are read by selection, not by
// sorting (see percentiles): the same values a full sort would put at
// the three lower-index positions, bit for bit.
func Summarize(done []RequestStats, makespan float64, preemptions int) (Stats, error) {
	// Validate before allocating: the negated comparison also rejects
	// NaN, which `makespan <= 0` let through.
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
	st := Stats{
		Completed:         len(done),
		MakespanS:         makespan,
		Throughput:        tokens / makespan,
		MeanLatency:       latSum / float64(len(done)),
		MeanTTFT:          ttftSum / float64(len(done)),
		MeanQueueDelay:    qdSum / float64(len(done)),
		MeanTransferDelay: xferSum / float64(len(done)),
		Preemptions:       preemptions,
		Requests:          done,
	}
	st.P50Latency, st.P95Latency, st.P99Latency = percentiles(lats)
	st.P50QueueDelay, st.P95QueueDelay, st.P99QueueDelay = percentiles(qds)
	return st, nil
}

// percentiles returns the P50, P95 and P99 of xs under the lower-index
// convention (see Stats), reordering xs. Each is selected in place,
// the next one from the slice above the last, so the three cost O(n)
// expected instead of a full sort's O(n log n). Selection finds the
// value a full sort would put at an index, and values that compare
// equal are then identical bits, so every percentile is bit-identical
// to sort.Float64s followed by an index. Two inputs break that
// premise: NaNs, which sort.Float64s orders first, and a mix of −0 and
// +0, which compare equal but differ in sign. There the answer depends
// on how the sort arranged the ties, so xs is sorted as before.
func percentiles(xs []float64) (p50, p95, p99 float64) {
	last := float64(len(xs) - 1)
	i50, i95, i99 := int(last*0.50), int(last*0.95), int(last*0.99)
	if !selectable(xs) {
		sort.Float64s(xs)
		return xs[i50], xs[i95], xs[i99]
	}
	selectKth(xs, i50)
	selectKth(xs[i50:], i95-i50)
	selectKth(xs[i95:], i99-i95)
	return xs[i50], xs[i95], xs[i99]
}

// selectable reports whether values of xs that compare equal are
// identical bits: no NaN, and not both signs of zero.
func selectable(xs []float64) bool {
	var neg, pos bool
	for _, x := range xs {
		switch {
		case x != x:
			return false
		case x == 0 && math.Signbit(x):
			neg = true
		case x == 0:
			pos = true
		}
	}
	return !(neg && pos)
}

// selectKth reorders xs (no NaNs) so that xs[k] holds the value a full
// sort would put there, with no larger value before it and no smaller
// one after. It narrows a window around k by three-way partitions, so
// runs of equal values cost one pass, on the median of three
// pseudo-randomly placed values, so no ordered pattern (sorted,
// reversed, organ-pipe) keeps picking bad pivots. The window left is
// sorted: a short one, or one that survived 2·log2(n) partitions,
// which bounds any input at O(n log n).
func selectKth(xs []float64, k int) {
	lo, hi := 0, len(xs)
	rnd := uint64(len(xs))*0x9e3779b97f4a7c15 | 1
	for budget := 2 * bits.Len(uint(len(xs))); hi-lo > 12 && budget > 0; budget-- {
		var at [3]float64
		for j := range at {
			rnd ^= rnd << 13 // xorshift64
			rnd ^= rnd >> 7
			rnd ^= rnd << 17
			at[j] = xs[lo+int(rnd%uint64(hi-lo))]
		}
		pivot := median3(at[0], at[1], at[2])
		// xs[lo:lt] < pivot, xs[lt:i] == pivot, xs[gt:hi] > pivot.
		lt, i, gt := lo, lo, hi
		for i < gt {
			switch x := xs[i]; {
			case x < pivot:
				xs[lt], xs[i] = x, xs[lt]
				lt++
				i++
			case x > pivot:
				gt--
				xs[i], xs[gt] = xs[gt], x
			default:
				i++
			}
		}
		switch {
		case k < lt:
			hi = lt
		case k >= gt:
			lo = gt
		default:
			return
		}
	}
	sort.Float64s(xs[lo:hi])
}

// median3 returns the median of three values.
func median3(a, b, c float64) float64 {
	if a > b {
		a, b = b, a
	}
	if b > c {
		b = c
	}
	if a > b {
		return a
	}
	return b
}
