package sched

import (
	"reflect"
	"testing"

	"llmbench/internal/workload"
)

// serveBoth runs one trace through the coalesced and the stepped
// (reference) continuous scheduler with fresh, identical allocators
// and returns both Stats.
func serveBoth(t *testing.T, cfg Config, capGiB float64, reqs []workload.Request) (coalesced, stepped Stats) {
	t.Helper()
	cfg.Policy = Continuous
	cfg.Engine = testEngine(t)

	cfg.Stepped = false
	cfg.Alloc = testAlloc(t, capGiB)
	coalesced, err := Serve(cfg, reqs)
	if err != nil {
		t.Fatalf("coalesced: %v", err)
	}
	cfg.Stepped = true
	cfg.Alloc = testAlloc(t, capGiB)
	stepped, err = Serve(cfg, reqs)
	if err != nil {
		t.Fatalf("stepped: %v", err)
	}
	return coalesced, stepped
}

func assertIdentical(t *testing.T, name string, coalesced, stepped Stats) {
	t.Helper()
	if !reflect.DeepEqual(coalesced, stepped) {
		t.Errorf("%s: coalesced Stats differ from stepped reference\ncoalesced: %+v\nstepped:   %+v",
			name, coalesced, stepped)
	}
}

// longTrace generates arrivals whose outputs are long enough that the
// coalesced path fast-forwards hundreds of iterations per window.
func longTrace(t *testing.T, n int, rate float64, outputMean int) []workload.Request {
	t.Helper()
	reqs, err := workload.PoissonTrace(workload.TraceConfig{
		Seed: 23, Requests: n, RatePerSec: rate,
		InputMean: 256, OutputMean: outputMean, LengthJitter: 0.4,
	})
	if err != nil {
		t.Fatal(err)
	}
	return reqs
}

// TestCoalescedMatchesStepped is the headline determinism guarantee:
// fast-forwarded serving produces byte-identical Stats — every
// timestamp, every aggregate — to the one-iteration-per-event path.
func TestCoalescedMatchesStepped(t *testing.T) {
	co, st := serveBoth(t, Config{MaxBatch: 16}, 20, longTrace(t, 40, 2, 512))
	assertIdentical(t, "long-output", co, st)
	if co.Completed != 40 {
		t.Errorf("completed %d/40", co.Completed)
	}
}

// TestCoalescedArrivalInsideWindow drives arrivals slow enough that
// most land in the middle of a running decode window: the window must
// be cut at the first iteration boundary at or after each arrival,
// exactly where the stepped path admits.
func TestCoalescedArrivalInsideWindow(t *testing.T) {
	co, st := serveBoth(t, Config{MaxBatch: 8}, 20, longTrace(t, 25, 0.4, 768))
	assertIdentical(t, "arrival-in-window", co, st)
	if co.Completed != 25 {
		t.Errorf("completed %d/25", co.Completed)
	}
}

// TestCoalescedPreemptionMidRange shrinks the KV pool until it runs
// dry inside would-be windows: the fast-forward must stop at the last
// iteration that fits and hand the OOM to the reference path's
// preemption machinery, reproducing its evictions exactly.
func TestCoalescedPreemptionMidRange(t *testing.T) {
	co, st := serveBoth(t, Config{MaxBatch: 8}, 0.6, longTrace(t, 16, 2, 640))
	assertIdentical(t, "preemption", co, st)
	if co.Preemptions == 0 {
		t.Fatal("workload must force preemptions inside fast-forward windows")
	}
	if co.Completed != 16 {
		t.Errorf("completed %d/16", co.Completed)
	}
}

// TestCoalescedChunkedPrefill interleaves Dynamic-SplitFuse prefill
// slices with decode windows: iterations carrying a prefill slice run
// stepped, the pure-decode gaps between them coalesce, and the fusion
// remains byte-identical.
func TestCoalescedChunkedPrefill(t *testing.T) {
	cfg := Config{MaxBatch: 12, ChunkedPrefill: true, PrefillChunk: 256}
	co, st := serveBoth(t, cfg, 20, longTrace(t, 30, 1.5, 384))
	assertIdentical(t, "chunked-prefill", co, st)
	if co.Completed != 30 {
		t.Errorf("completed %d/30", co.Completed)
	}
}

// TestCoalescedTinyCacheHeavyChurn combines everything: a tiny pool,
// a saturated queue (blocked admissions must not stall coalescing),
// and requeued preemption arrivals equal to the current clock.
func TestCoalescedTinyCacheHeavyChurn(t *testing.T) {
	co, st := serveBoth(t, Config{MaxBatch: 6}, 0.4, longTrace(t, 20, 4, 512))
	assertIdentical(t, "tiny-cache-churn", co, st)
	if co.Completed != 20 {
		t.Errorf("completed %d/20", co.Completed)
	}
}

// TestUnadmittableRequestErrors guards the hang fix: a prompt larger
// than the whole KV pool must fail fast, not spin the scheduler
// forever (the cluster path already errored for the same state).
func TestUnadmittableRequestErrors(t *testing.T) {
	_, err := Serve(Config{
		Engine: testEngine(t), Policy: Continuous, MaxBatch: 4,
		Alloc: testAlloc(t, 0.01), // ~80 tokens of KV
	}, []workload.Request{{ID: 0, Input: 100000, Output: 8, Arrival: 0}})
	if err == nil {
		t.Fatal("an unadmittable request must error, not hang")
	}
}

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
