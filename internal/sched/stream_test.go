package sched

import (
	"math"
	"sort"
	"testing"

	"llmbench/internal/trace"
)

// exactQuantile is the reference the sketch is tested against:
// Summarize's lower-index convention over the full sorted sample.
func exactQuantile(samples []float64, p float64) float64 {
	sorted := append([]float64(nil), samples...)
	sort.Float64s(sorted)
	return sorted[int(float64(len(sorted)-1)*p)]
}

// The property-test distributions of the accuracy contract: the
// arrival and length shapes the workload generators produce, plus a
// uniform control. All fixed-seed, so the bound is a regression test,
// not a statistical coin flip.
func accuracySamples(name string, n int) []float64 {
	rng := trace.NewRNG(0xbeef)
	out := make([]float64, n)
	for i := range out {
		switch name {
		case "exponential":
			out[i] = rng.Exp(2.5)
		case "lognormal":
			// Box-Muller, matching workload.ChatTrace's length draw
			// (sigma 0.7).
			u1 := rng.Float64()
			for u1 == 0 {
				u1 = rng.Float64()
			}
			u2 := rng.Float64()
			z := math.Sqrt(-2*math.Log(u1)) * math.Cos(2*math.Pi*u2)
			out[i] = 80 * math.Exp(0.7*z)
		case "uniform":
			out[i] = 1 + 9*rng.Float64()
		}
	}
	return out
}

// TestP2QuantileAccuracy pins the documented contract: the sketch is
// within 1% relative error of the exact lower-index percentile on the
// property-test distributions at day-scale sample sizes (≥ 20k — the
// regime streaming mode exists for; a 2k lognormal P99 has too few
// tail samples for the bound to hold).
func TestP2QuantileAccuracy(t *testing.T) {
	for _, dist := range []string{"exponential", "lognormal", "uniform"} {
		for _, n := range []int{20_000, 50_000} {
			samples := accuracySamples(dist, n)
			for _, p := range []float64{0.50, 0.95, 0.99} {
				var sk P2Quantile
				sk.Init(p)
				for _, x := range samples {
					sk.Observe(x)
				}
				want := exactQuantile(samples, p)
				got := sk.Value()
				if rel := math.Abs(got-want) / want; rel > 0.01 {
					t.Errorf("%s n=%d p%g: sketch %v vs exact %v (relative error %.3f%% > 1%%)",
						dist, n, 100*p, got, want, 100*rel)
				}
			}
		}
	}
}

// Below six observations the sketch stores the samples and must match
// the exact lower-index percentile bit for bit.
func TestP2QuantileExactWhenSmall(t *testing.T) {
	samples := []float64{4.5, 1.25, 9.75, 0.5, 3.125}
	for _, p := range []float64{0.50, 0.95, 0.99} {
		for n := 1; n <= len(samples); n++ {
			var sk P2Quantile
			sk.Init(p)
			for _, x := range samples[:n] {
				sk.Observe(x)
			}
			if got, want := sk.Value(), exactQuantile(samples[:n], p); got != want {
				t.Errorf("p%g n=%d: got %v, want exact %v", 100*p, n, got, want)
			}
			if sk.Count() != n {
				t.Errorf("Count = %d, want %d", sk.Count(), n)
			}
		}
	}
	var sk P2Quantile
	sk.Init(0.99)
	if !math.IsNaN(sk.Value()) {
		t.Error("empty sketch must report NaN")
	}
}

// syntheticLedger builds a completion-ordered ledger with the shapes
// Summarize sees: queueing delays, TTFTs, and latencies all positive
// and heavy-tailed.
func syntheticLedger(n int) []RequestStats {
	rng := trace.NewRNG(99)
	done := make([]RequestStats, n)
	now := 0.0
	for i := range done {
		now += rng.Exp(0.05)
		qd := rng.Exp(0.4)
		ttft := qd + 0.02 + rng.Exp(0.1)
		lat := ttft + rng.Exp(1.5)
		done[i] = RequestStats{
			ID: i, Input: 100 + rng.Intn(400), Output: 20 + rng.Intn(200),
			Arrival: now, Started: now + qd, FirstTok: now + ttft, Finished: now + lat,
		}
	}
	// Deliver in (finish, ID) order, as the kernel's Sink does.
	sort.Slice(done, func(i, j int) bool {
		if done[i].Finished != done[j].Finished {
			return done[i].Finished < done[j].Finished
		}
		return done[i].ID < done[j].ID
	})
	return done
}

// TestStreamAggregatorMatchesSummarize pins both halves of the
// accuracy contract: every non-percentile aggregate byte-identical to
// Summarize (same additions in the same order), percentiles within 1%.
func TestStreamAggregatorMatchesSummarize(t *testing.T) {
	done := syntheticLedger(30_000)
	const makespan = 1234.5

	exact, err := Summarize(done, makespan, 17)
	if err != nil {
		t.Fatalf("Summarize: %v", err)
	}
	agg := NewStreamAggregator()
	for _, r := range done {
		agg.Observe(r)
	}
	got, err := agg.Stats(makespan, 17)
	if err != nil {
		t.Fatalf("Stats: %v", err)
	}

	if got.Completed != exact.Completed || got.MakespanS != exact.MakespanS ||
		got.Throughput != exact.Throughput || got.MeanLatency != exact.MeanLatency ||
		got.MeanTTFT != exact.MeanTTFT || got.MeanQueueDelay != exact.MeanQueueDelay ||
		got.Preemptions != exact.Preemptions {
		t.Errorf("non-percentile aggregates must be byte-identical:\n got %+v\nwant %+v", got, exact)
	}
	if got.Requests != nil {
		t.Error("streaming Stats must not carry a ledger")
	}
	check := func(name string, got, want float64) {
		if rel := math.Abs(got-want) / want; rel > 0.01 {
			t.Errorf("%s: sketch %v vs exact %v (relative error %.3f%% > 1%%)", name, got, want, 100*rel)
		}
	}
	check("P50Latency", got.P50Latency, exact.P50Latency)
	check("P95Latency", got.P95Latency, exact.P95Latency)
	check("P99Latency", got.P99Latency, exact.P99Latency)
	check("P50QueueDelay", got.P50QueueDelay, exact.P50QueueDelay)
	check("P95QueueDelay", got.P95QueueDelay, exact.P95QueueDelay)
	check("P99QueueDelay", got.P99QueueDelay, exact.P99QueueDelay)
}

// The streaming validation mirrors Summarize's.
func TestStreamAggregatorValidation(t *testing.T) {
	if _, err := NewStreamAggregator().Stats(10, 0); err == nil {
		t.Error("empty aggregator must error like Summarize")
	}
	agg := NewStreamAggregator()
	agg.Observe(RequestStats{Input: 8, Output: 8, Finished: 1})
	for _, bad := range []float64{0, -1, math.NaN()} {
		if _, err := agg.Stats(bad, 0); err == nil {
			t.Errorf("makespan %v must be rejected", bad)
		}
	}
}

// Summarize must reject bad inputs before doing any work, and with
// the same negated-comparison that catches NaN makespans.
func TestSummarizeValidatesFirst(t *testing.T) {
	done := []RequestStats{{Input: 8, Output: 8, Finished: 1}}
	for _, bad := range []float64{0, -1, math.NaN()} {
		if _, err := Summarize(done, bad, 0); err == nil {
			t.Errorf("makespan %v must be rejected", bad)
		}
	}
	if _, err := Summarize(nil, 10, 0); err == nil {
		t.Error("empty ledger must be rejected")
	}
}

// p2Reference is the plain form of the P² update: a cell search, then
// loops over every marker. With its own copies of the two height
// predictors it is the bit-identity oracle for P2Quantile.Observe's
// branch-light form. It ignores every field but p, n, q, pos, want and
// inc.
func p2Reference(s *P2Quantile, x float64) {
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
		}
		return
	}
	s.n++
	// Locate the cell containing x, extending the extreme markers.
	var k int
	switch {
	case x < s.q[0]:
		s.q[0] = x
		k = 0
	case x >= s.q[4]:
		s.q[4] = x
		k = 3
	default:
		for k = 0; k < 3; k++ {
			if x < s.q[k+1] {
				break
			}
		}
	}
	for i := k + 1; i < 5; i++ {
		s.pos[i]++
	}
	for i := range s.want {
		s.want[i] += s.inc[i]
	}
	// Adjust the interior markers toward their desired positions.
	for i := 1; i <= 3; i++ {
		d := s.want[i] - s.pos[i]
		if (d >= 1 && s.pos[i+1]-s.pos[i] > 1) || (d <= -1 && s.pos[i-1]-s.pos[i] < -1) {
			sign := 1.0
			if d < 0 {
				sign = -1
			}
			if qp := p2RefParabolic(s, i, sign); s.q[i-1] < qp && qp < s.q[i+1] {
				s.q[i] = qp
			} else {
				s.q[i] = p2RefLinear(s, i, sign)
			}
			s.pos[i] += sign
		}
	}
}

func p2RefParabolic(s *P2Quantile, i int, sign float64) float64 {
	return s.q[i] + sign/(s.pos[i+1]-s.pos[i-1])*
		((s.pos[i]-s.pos[i-1]+sign)*(s.q[i+1]-s.q[i])/(s.pos[i+1]-s.pos[i])+
			(s.pos[i+1]-s.pos[i]-sign)*(s.q[i]-s.q[i-1])/(s.pos[i]-s.pos[i-1]))
}

func p2RefLinear(s *P2Quantile, i int, sign float64) float64 {
	j := i + int(sign)
	return s.q[i] + sign*(s.q[j]-s.q[i])/(s.pos[j]-s.pos[i])
}

// sameBits reports whether two float arrays are equal bit for bit, so
// NaN matches NaN and -0 does not match +0.
func sameBits(a, b []float64) bool {
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

// checkP2MatchesReference feeds xs to the production sketch and to
// p2Reference side by side and fails at the first observation after
// which the marker heights, positions, desired positions or the
// estimate differ in any bit.
func checkP2MatchesReference(t *testing.T, name string, p float64, xs []float64) {
	t.Helper()
	var got, ref P2Quantile
	got.Init(p)
	ref.Init(p)
	for i, x := range xs {
		got.Observe(x)
		p2Reference(&ref, x)
		gv, rv := got.Value(), ref.Value()
		if got.n != ref.n || !sameBits(got.q[:], ref.q[:]) || !sameBits(got.pos[:], ref.pos[:]) ||
			!sameBits(got.want[1:4], ref.want[1:4]) || !sameBits([]float64{gv}, []float64{rv}) {
			t.Fatalf("%s, p=%v: after observation %d (x=%v) got q=%v pos=%v value=%v, reference q=%v pos=%v value=%v",
				name, p, i, x, got.q, got.pos, gv, ref.q, ref.pos, rv)
		}
	}
}

// p2Streams are the oracle's input shapes: heavy ties, sorted and
// reverse-sorted runs, the accuracy contract's lognormal and
// exponential samples, and streams mixing NaN, ±Inf and extreme
// finite values, including inside the first five observations.
func p2Streams() map[string][]float64 {
	const n = 20000
	rng := trace.NewRNG(0x5eed)
	ties := make([]float64, n)
	sorted := make([]float64, n)
	reverse := make([]float64, n)
	special := make([]float64, n)
	specials := []float64{math.NaN(), math.Inf(1), math.Inf(-1), math.MaxFloat64, -math.MaxFloat64, 0}
	for i := range ties {
		ties[i] = float64(rng.Intn(4))
		sorted[i] = float64(i / 3)
		reverse[i] = float64(n - i/3)
		special[i] = rng.Exp(1)
		if rng.Intn(8) == 0 {
			special[i] = specials[rng.Intn(len(specials))]
		}
	}
	return map[string][]float64{
		"ties":              ties,
		"sorted":            sorted,
		"reverse":           reverse,
		"lognormal":         accuracySamples("lognormal", n),
		"exponential":       accuracySamples("exponential", n),
		"special":           special,
		"nan-first":         {math.NaN(), 1, 2, math.NaN(), 0, 3, 1, 5, 0.5, 4, 2},
		"unsorted-nan-fill": {5, math.NaN(), 7, math.NaN(), 1, 2, 6, 9, 0, 3, 8, 4, 4},
		"inf-markers":       {math.Inf(1), math.Inf(1), math.Inf(1), 1, 2, 3, math.Inf(1), 0, 1, 2, math.Inf(-1), math.Inf(-1), 4, 5, 1, 1, 2},
		"overflow":          {-math.MaxFloat64, math.MaxFloat64, -math.MaxFloat64, math.MaxFloat64, 0, 1, -1, 2, math.MaxFloat64, -2, 3, 0, 0, 1},
	}
}

// TestP2MatchesReference pins the production sketch to p2Reference
// bit for bit after every observation, on every stream shape and at
// the aggregator's three quantiles plus a low one.
func TestP2MatchesReference(t *testing.T) {
	for name, xs := range p2Streams() {
		for _, p := range []float64{0.1, 0.5, 0.95, 0.99} {
			checkP2MatchesReference(t, name, p, xs)
			for n := 0; n <= 5 && n <= len(xs); n++ {
				checkP2MatchesReference(t, name, p, xs[:n])
			}
		}
	}
}

// p2FuzzStream decodes fuzz bytes into a sample stream: each leading
// byte picks a small integer (ties), a special value, or eight raw
// bytes of float64 bits.
func p2FuzzStream(data []byte) []float64 {
	specials := []float64{math.NaN(), math.Inf(1), math.Inf(-1), math.MaxFloat64, -math.MaxFloat64, 0, math.Copysign(0, -1)}
	var xs []float64
	for len(data) > 0 {
		b := data[0]
		data = data[1:]
		switch {
		case b < 192:
			xs = append(xs, float64(b%16))
		case b < 224:
			xs = append(xs, specials[int(b-192)%len(specials)])
		case len(data) >= 8:
			var bits uint64
			for _, c := range data[:8] {
				bits = bits<<8 | uint64(c)
			}
			data = data[8:]
			xs = append(xs, math.Float64frombits(bits))
		}
	}
	return xs
}

// FuzzP2MatchesReference extends TestP2MatchesReference to arbitrary
// streams and quantiles.
func FuzzP2MatchesReference(f *testing.F) {
	f.Add([]byte{3, 1, 2, 0, 3, 1, 1, 2, 0, 0, 3, 2, 1, 3, 0, 2, 2, 1}, uint8(50))
	f.Add([]byte{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15}, uint8(95))
	f.Add([]byte{15, 14, 13, 12, 11, 10, 9, 8, 7, 6, 5, 4, 3, 2, 1, 0}, uint8(99))
	f.Add([]byte{192, 5, 192, 7, 1, 2, 6, 9, 0, 3, 8, 4, 4}, uint8(50))
	f.Add([]byte{193, 193, 193, 1, 2, 3, 193, 0, 1, 2, 194, 194, 4, 5, 1, 1, 2}, uint8(10))
	f.Add([]byte{196, 195, 196, 195, 0, 1, 9, 2, 195, 7, 3, 0, 0, 1}, uint8(50))
	f.Fuzz(func(t *testing.T, data []byte, pb uint8) {
		p := float64(pb%99+1) / 100
		checkP2MatchesReference(t, "fuzz", p, p2FuzzStream(data))
	})
}
