package sched_test

import (
	"reflect"
	"testing"

	"llmbench/internal/cluster"
	"llmbench/internal/sched"
	"llmbench/internal/workload"
)

// serveBoth runs one trace through the coalesced and the stepped
// (reference) continuous scheduler with fresh, identical allocators
// and returns both Stats.
func serveBoth(t *testing.T, cfg cluster.Config, capGiB float64, reqs []workload.Request) (coalesced, stepped sched.Stats) {
	t.Helper()
	e := testEngine(t)
	cfg.Stepped = false
	coalesced, err := serve(cfg, e, testAlloc(t, capGiB), reqs)
	if err != nil {
		t.Fatalf("coalesced: %v", err)
	}
	cfg.Stepped = true
	stepped, err = serve(cfg, e, testAlloc(t, capGiB), reqs)
	if err != nil {
		t.Fatalf("stepped: %v", err)
	}
	return coalesced, stepped
}

func assertIdentical(t *testing.T, name string, coalesced, stepped sched.Stats) {
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
	co, st := serveBoth(t, cluster.Config{MaxBatch: 16}, 20, longTrace(t, 40, 2, 512))
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
	co, st := serveBoth(t, cluster.Config{MaxBatch: 8}, 20, longTrace(t, 25, 0.4, 768))
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
	co, st := serveBoth(t, cluster.Config{MaxBatch: 8}, 0.6, longTrace(t, 16, 2, 640))
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
	cfg := cluster.Config{MaxBatch: 12, ChunkedPrefill: true, PrefillChunk: 256}
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
	co, st := serveBoth(t, cluster.Config{MaxBatch: 6}, 0.4, longTrace(t, 20, 4, 512))
	assertIdentical(t, "tiny-cache-churn", co, st)
	if co.Completed != 20 {
		t.Errorf("completed %d/20", co.Completed)
	}
}
