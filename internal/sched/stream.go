package sched

// Streaming aggregation for day-scale serving runs: a
// StreamAggregator consumes completed request lifecycles one at a
// time, in the global (finish time, request ID) order the kernel's
// completion hand-off delivers (des.Kernel.Sink), so a million-request
// point needs no per-request ledger. It estimates percentiles with P²
// sketches in O(1) memory; the exact path is Summarize over the
// ledger, which sorts it all.
//
// # Accuracy contract
//
// Because a StreamAggregator observes completions in exactly the
// order Summarize iterates the completion-sorted ledger, every
// non-percentile aggregate (Completed, Throughput, MeanLatency,
// MeanTTFT, MeanQueueDelay, MeanTransferDelay, Preemptions,
// MakespanS) is byte-identical
// to the exact path — identical float additions in identical order.
// The percentile fields are sketch estimates: within 1% relative
// error of Summarize's lower-index percentiles on the property-test
// distributions at day-scale sample sizes — ≥ 20k completions, the
// regime the mode exists for; exponential inter-arrival latencies,
// lognormal chat lengths, and DES-shaped latency/queue-delay samples
// (see TestP2QuantileAccuracy and
// TestStreamAggregatorMatchesSummarize) — and exact for runs of five
// or fewer completions. Small heavy-tailed runs can drift further (a
// 2k-sample lognormal P99 has only ~20 tail observations); prefer the
// exact path when the trace is small enough to ledger.

import (
	"errors"
	"math"
)

// StreamAggregator folds completions into running sums and P²
// percentile sketches: O(1) memory regardless of request count. See
// the package section above for the accuracy contract.
type StreamAggregator struct {
	n       int
	tokens  float64
	latSum  float64
	ttftSum float64
	qdSum   float64
	xferSum float64
	lat     [3]P2Quantile // P50, P95, P99 latency
	qd      [3]P2Quantile // P50, P95, P99 queue delay
}

// NewStreamAggregator returns an empty streaming aggregator.
func NewStreamAggregator() *StreamAggregator {
	a := &StreamAggregator{}
	for i, p := range [3]float64{0.50, 0.95, 0.99} {
		a.lat[i].Init(p)
		a.qd[i].Init(p)
	}
	return a
}

// Observe folds one completion into the running aggregates. It is
// called once per completion, in (finish time, request ID) order.
func (a *StreamAggregator) Observe(r RequestStats) {
	a.n++
	lat := r.Latency()
	a.latSum += lat
	qd := r.QueueDelay()
	a.qdSum += qd
	a.ttftSum += r.FirstTok - r.Arrival
	a.xferSum += r.TransferS
	a.tokens += float64(r.Input + r.Output)
	for i := range a.lat {
		a.lat[i].Observe(lat)
		a.qd[i].Observe(qd)
	}
}

// Stats finalizes the aggregates. The validation mirrors Summarize:
// no completions and non-positive makespans are errors.
func (a *StreamAggregator) Stats(makespan float64, preemptions int) (Stats, error) {
	if a.n == 0 {
		return Stats{}, errors.New("sched: no requests completed")
	}
	if !(makespan > 0) {
		return Stats{}, errors.New("sched: zero makespan")
	}
	return Stats{
		Completed:         a.n,
		MakespanS:         makespan,
		Throughput:        a.tokens / makespan,
		MeanLatency:       a.latSum / float64(a.n),
		P50Latency:        a.lat[0].Value(),
		P95Latency:        a.lat[1].Value(),
		P99Latency:        a.lat[2].Value(),
		MeanTTFT:          a.ttftSum / float64(a.n),
		MeanQueueDelay:    a.qdSum / float64(a.n),
		P50QueueDelay:     a.qd[0].Value(),
		P95QueueDelay:     a.qd[1].Value(),
		P99QueueDelay:     a.qd[2].Value(),
		MeanTransferDelay: a.xferSum / float64(a.n),
		Preemptions:       preemptions,
	}, nil
}

// P2Quantile is the P² online quantile estimator (Jain & Chlamtac,
// CACM 1985): five markers track the running p-quantile of a stream
// in constant memory, adjusting marker heights by piecewise-parabolic
// interpolation as observations arrive. No dependencies, no sampling,
// deterministic for a given observation sequence. The first five
// observations are stored directly, so Value is exact (lower-index
// convention, matching Summarize) until the sketch
// activates.
type P2Quantile struct {
	p    float64
	n    int        // observations so far
	q    [5]float64 // marker heights
	pos  [5]float64 // marker positions (1-based observation counts)
	want [5]float64 // desired marker positions
	inc  [5]float64 // desired-position increments per observation
	// sorted records that the markers are non-decreasing and NaN-free,
	// which makes Observe's branch-light cell count exact. Only NaN,
	// infinite or near-overflow samples can break it; the cell search
	// then takes over.
	sorted bool
}

// Init configures the estimator for quantile p ∈ (0, 1). The zero
// value is unusable; call Init (or build via NewStreamAggregator).
func (s *P2Quantile) Init(p float64) {
	*s = P2Quantile{p: p}
	s.inc = [5]float64{0, p / 2, p, (1 + p) / 2, 1}
}

// Observe folds one sample into the estimate.
func (s *P2Quantile) Observe(x float64) {
	if s.n < 5 {
		// Collect the first five samples, keeping them sorted.
		i := s.n
		for i > 0 && s.q[i-1] > x {
			s.q[i] = s.q[i-1]
			i--
		}
		s.q[i] = x
		s.n++
		if s.n == 5 {
			s.pos = [5]float64{1, 2, 3, 4, 5}
			p := s.p
			s.want = [5]float64{1, 1 + 2*p, 1 + 4*p, 3 + 2*p, 5}
			// A NaN among the first five leaves the collection out of
			// order, as it compares false in the insertion.
			s.sorted = s.q[0] <= s.q[1] && s.q[1] <= s.q[2] && s.q[2] <= s.q[3] && s.q[3] <= s.q[4]
		}
		return
	}
	s.n++
	// Extend the extreme markers and move every marker above x's cell
	// one position up.
	if s.sorted {
		// x < q[i] holds exactly for the markers above x's cell, and a
		// NaN lands in the last cell, as it compares false everywhere.
		if x < s.q[0] {
			s.q[0] = x
		}
		if x >= s.q[4] {
			s.q[4] = x
		}
		s.pos[1] += b2f(x < s.q[1])
		s.pos[2] += b2f(x < s.q[2])
		s.pos[3] += b2f(x < s.q[3])
	} else {
		s.searchCell(x)
	}
	s.pos[4]++
	// Only the interior markers' desired positions are ever read.
	s.want[1] += s.inc[1]
	s.want[2] += s.inc[2]
	s.want[3] += s.inc[3]
	// Adjust the interior markers toward their desired positions.
	for i := 1; i <= 3; i++ {
		d := s.want[i] - s.pos[i]
		if d >= 1 && s.pos[i+1]-s.pos[i] > 1 {
			s.move(i, 1)
		} else if d <= -1 && s.pos[i-1]-s.pos[i] < -1 {
			s.move(i, -1)
		}
	}
}

// b2f is 1 for true and 0 for false, selected without a branch.
func b2f(b bool) float64 {
	i := 0
	if b {
		i = 1
	}
	return float64(i)
}

// searchCell is the cell search for markers that are out of order
// (see sorted): extend an extreme marker, or else find the first
// interior marker above x, and move the interior markers above x's
// cell one position up.
func (s *P2Quantile) searchCell(x float64) {
	k := 3
	switch {
	case x < s.q[0]:
		s.q[0] = x
		k = 0
	case x >= s.q[4]:
		s.q[4] = x
	default:
		for k = 0; k < 3 && !(x < s.q[k+1]); k++ {
		}
	}
	for i := k + 1; i < 4; i++ {
		s.pos[i]++
	}
}

// move shifts interior marker i one position in direction sign, to
// the parabolic height prediction when it stays strictly inside its
// neighbours' bracket and to the linear one otherwise. A linear height
// from an infinite or overflowing bracket can be NaN or leave the
// bracket, which clears sorted.
func (s *P2Quantile) move(i int, sign float64) {
	if qp := s.parabolic(i, sign); s.q[i-1] < qp && qp < s.q[i+1] {
		s.q[i] = qp
	} else {
		s.q[i] = s.linear(i, sign)
		s.sorted = s.sorted && s.q[i-1] <= s.q[i] && s.q[i] <= s.q[i+1]
	}
	s.pos[i] += sign
}

// parabolic is the P² piecewise-parabolic height prediction for
// moving marker i one position in direction sign.
func (s *P2Quantile) parabolic(i int, sign float64) float64 {
	return s.q[i] + sign/(s.pos[i+1]-s.pos[i-1])*
		((s.pos[i]-s.pos[i-1]+sign)*(s.q[i+1]-s.q[i])/(s.pos[i+1]-s.pos[i])+
			(s.pos[i+1]-s.pos[i]-sign)*(s.q[i]-s.q[i-1])/(s.pos[i]-s.pos[i-1]))
}

// linear is the fallback height prediction when the parabola would
// leave the neighbouring markers' bracket.
func (s *P2Quantile) linear(i int, sign float64) float64 {
	j := i + int(sign)
	return s.q[i] + sign*(s.q[j]-s.q[i])/(s.pos[j]-s.pos[i])
}

// Count returns the number of observations folded in so far.
func (s *P2Quantile) Count() int { return s.n }

// Value returns the current quantile estimate: exact (lower-index
// convention) while five or fewer samples have been observed — the
// collection phase keeps them sorted, and the markers only start
// moving on the sixth — the middle-marker sketch estimate afterwards.
// NaN before any observation.
func (s *P2Quantile) Value() float64 {
	if s.n == 0 {
		return math.NaN()
	}
	if s.n <= 5 {
		return s.q[int(float64(s.n-1)*s.p)]
	}
	return s.q[2]
}
