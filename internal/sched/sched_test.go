package sched

import (
	"math"
	"slices"
	"sort"
	"testing"

	"llmbench/internal/trace"
)

func TestSummarize(t *testing.T) {
	done := []RequestStats{
		{ID: 0, Input: 10, Output: 5, Arrival: 0, FirstTok: 1, Finished: 2},
		{ID: 1, Input: 20, Output: 10, Arrival: 1, FirstTok: 3, Finished: 5},
	}
	s, err := Summarize(done, 5, 3)
	if err != nil {
		t.Fatal(err)
	}
	if s.Completed != 2 || s.Preemptions != 3 {
		t.Errorf("completed %d preemptions %d", s.Completed, s.Preemptions)
	}
	if want := (15.0 + 30.0) / 5.0; s.Throughput != want {
		t.Errorf("throughput %v want %v", s.Throughput, want)
	}
	if want := (2.0 + 4.0) / 2; s.MeanLatency != want {
		t.Errorf("mean latency %v want %v", s.MeanLatency, want)
	}
	if want := (1.0 + 2.0) / 2; s.MeanTTFT != want {
		t.Errorf("mean TTFT %v want %v", s.MeanTTFT, want)
	}
	if s.P99Latency != 2 { // index ⌊(n-1)·0.99⌋ = 0 of the sorted latencies
		t.Errorf("p99 %v want 2", s.P99Latency)
	}
	if _, err := Summarize(nil, 5, 0); err == nil {
		t.Error("empty done must fail")
	}
	if _, err := Summarize(done, 0, 0); err == nil {
		t.Error("zero makespan must fail")
	}
}

// TestSummarizeSingleSample: with one completed request every
// percentile is that request's value and the means equal the sample.
func TestSummarizeSingleSample(t *testing.T) {
	r := RequestStats{ID: 0, Input: 100, Output: 20, Arrival: 1, Started: 1.5, FirstTok: 2, Finished: 4}
	stats, err := Summarize([]RequestStats{r}, 4, 0)
	if err != nil {
		t.Fatal(err)
	}
	lat, qd := r.Latency(), r.QueueDelay()
	if stats.Completed != 1 {
		t.Errorf("completed %d, want 1", stats.Completed)
	}
	for name, got := range map[string]float64{
		"mean latency": stats.MeanLatency, "p50": stats.P50Latency,
		"p95": stats.P95Latency, "p99": stats.P99Latency,
	} {
		if got != lat {
			t.Errorf("%s = %v, want %v", name, got, lat)
		}
	}
	for name, got := range map[string]float64{
		"mean queue delay": stats.MeanQueueDelay, "qd p50": stats.P50QueueDelay,
		"qd p95": stats.P95QueueDelay, "qd p99": stats.P99QueueDelay,
	} {
		if got != qd {
			t.Errorf("%s = %v, want %v", name, got, qd)
		}
	}
	if want := float64(r.Input+r.Output) / 4; stats.Throughput != want {
		t.Errorf("throughput %v, want %v", stats.Throughput, want)
	}
}

// TestSummarizeErrorPaths: no completions and non-positive makespans
// must fail rather than divide by zero.
func TestSummarizeErrorPaths(t *testing.T) {
	if _, err := Summarize(nil, 10, 0); err == nil {
		t.Error("empty completion ledger must fail")
	}
	r := RequestStats{Input: 10, Output: 5, Finished: 1}
	for _, makespan := range []float64{0, -3} {
		if _, err := Summarize([]RequestStats{r}, makespan, 0); err == nil {
			t.Errorf("makespan %v must fail", makespan)
		}
	}
}

// TestSummarizePercentileSpread pins the lower-index percentile
// convention on a ten-sample ladder: p50 is the 4th of 10 sorted
// samples (index ⌊9×.5⌋), p95/p99 the 8th (index ⌊9×.95⌋ = ⌊9×.99⌋).
func TestSummarizePercentileSpread(t *testing.T) {
	done := make([]RequestStats, 10)
	for i := range done {
		done[i] = RequestStats{
			ID: i, Input: 1, Output: 1,
			Arrival: 0, Started: 0, FirstTok: 0.1, Finished: float64(i + 1),
		}
	}
	stats, err := Summarize(done, 10, 0)
	if err != nil {
		t.Fatal(err)
	}
	if stats.P50Latency != 5 || stats.P95Latency != 9 || stats.P99Latency != 9 {
		t.Errorf("percentiles p50/p95/p99 = %v/%v/%v, want 5/9/9",
			stats.P50Latency, stats.P95Latency, stats.P99Latency)
	}
	if stats.MeanLatency != 5.5 {
		t.Errorf("mean latency %v, want 5.5", stats.MeanLatency)
	}
}

// FuzzPercentilesMatchSort holds Summarize's percentile selection to
// sort-then-index bit for bit: the P50, P95 and P99 of percentiles
// against sort.Float64s read at the same indices, and selectKth at a
// fuzzed index against the sorted slice, with nothing larger before it
// and nothing smaller after. Samples of 1–2000 values draw from a
// palette of 1–256 values, so ties are common, and shape picks the
// order (as drawn, sorted, reversed, or all one value) and whether the
// palette holds both signs of zero, and NaN and ±Inf.
func FuzzPercentilesMatchSort(f *testing.F) {
	f.Add(uint64(1), uint16(1999), uint8(255), uint8(0))
	f.Add(uint64(2), uint16(1999), uint8(3), uint8(0))
	f.Add(uint64(3), uint16(1500), uint8(200), uint8(1))
	f.Add(uint64(4), uint16(1500), uint8(200), uint8(2))
	f.Add(uint64(5), uint16(1999), uint8(9), uint8(3))
	f.Add(uint64(6), uint16(700), uint8(4), uint8(4))
	f.Add(uint64(7), uint16(700), uint8(4), uint8(5))
	f.Add(uint64(8), uint16(300), uint8(6), uint8(12))
	f.Add(uint64(9), uint16(0), uint8(0), uint8(0))
	f.Add(uint64(10), uint16(12), uint8(1), uint8(4))
	f.Fuzz(func(t *testing.T, seed uint64, n16 uint16, distinct, shape uint8) {
		xs := percentileSample(seed, 1+int(n16)%2000, int(distinct)+1, shape)
		sorted := slices.Clone(xs)
		sort.Float64s(sorted)
		last := float64(len(xs) - 1)
		want := []float64{sorted[int(last*0.50)], sorted[int(last*0.95)], sorted[int(last*0.99)]}
		p50, p95, p99 := percentiles(slices.Clone(xs))
		for i, got := range []float64{p50, p95, p99} {
			if math.Float64bits(got) != math.Float64bits(want[i]) {
				t.Fatalf("percentile %d of %v = %v, want %v", i, xs, got, want[i])
			}
		}
		if !selectable(xs) {
			return
		}
		k := int(seed>>32) % len(xs)
		sel := slices.Clone(xs)
		selectKth(sel, k)
		if math.Float64bits(sel[k]) != math.Float64bits(sorted[k]) {
			t.Fatalf("selectKth(%v, %d) = %v, want %v", xs, k, sel[k], sorted[k])
		}
		for i, x := range sel {
			if (i < k && x > sel[k]) || (i > k && x < sel[k]) {
				t.Fatalf("selectKth(%v, %d): %v at %d is on the wrong side of %v", xs, k, x, i, sel[k])
			}
		}
	})
}

// percentileSample builds one FuzzPercentilesMatchSort input: n values
// drawn from a palette of distinct values. shape&3 orders them (0 as
// drawn, 1 sorted, 2 reversed, 3 all equal); shape&4 puts −0 and +0 in
// the palette, and shape&8 NaN, +Inf and −Inf.
func percentileSample(seed uint64, n, distinct int, shape uint8) []float64 {
	palette := make([]float64, distinct)
	for i := range palette {
		palette[i] = float64(i) * 0.25
	}
	if shape&4 != 0 {
		palette[0] = math.Copysign(0, -1)
		palette = append(palette, 0)
	}
	if shape&8 != 0 {
		palette = append(palette, math.NaN(), math.Inf(1), math.Inf(-1))
	}
	rng := trace.NewRNG(seed)
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = palette[rng.Intn(len(palette))]
	}
	switch shape & 3 {
	case 1:
		sort.Float64s(xs)
	case 2:
		sort.Float64s(xs)
		slices.Reverse(xs)
	case 3:
		for i := range xs {
			xs[i] = xs[0]
		}
	}
	return xs
}
