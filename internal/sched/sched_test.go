package sched

import "testing"

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
