package sched_test

import (
	"testing"

	"llmbench/internal/cluster"
	"llmbench/internal/workload"
)

func TestChunkedPrefillCompletesEverything(t *testing.T) {
	e := testEngine(t)
	stats, err := serve(cluster.Config{MaxBatch: 16, ChunkedPrefill: true, PrefillChunk: 256},
		e, testAlloc(t, 20), testTrace(t, 60, 6))
	if err != nil {
		t.Fatal(err)
	}
	if stats.Completed != 60 {
		t.Errorf("completed %d/60 with chunked prefill", stats.Completed)
	}
	for _, r := range stats.Requests {
		if r.FirstTok < r.Started || r.Finished < r.FirstTok {
			t.Errorf("req %d has inconsistent timeline under chunked prefill", r.ID)
		}
	}
}

func TestChunkedPrefillImprovesRunningRequests(t *testing.T) {
	// The Dynamic SplitFuse claim (§V-3): fusing prefill slices into
	// decode iterations stops long prompts from stalling requests that
	// are already generating, improving tail latency under load.
	e := testEngine(t)
	reqs, err := workload.PoissonTrace(workload.TraceConfig{
		Seed: 21, Requests: 80, RatePerSec: 10,
		InputMean: 1024, OutputMean: 64, LengthJitter: 0.5,
	})
	if err != nil {
		t.Fatal(err)
	}
	plain, err := serve(cluster.Config{MaxBatch: 16}, e, testAlloc(t, 20), reqs)
	if err != nil {
		t.Fatal(err)
	}
	chunked, err := serve(cluster.Config{MaxBatch: 16, ChunkedPrefill: true, PrefillChunk: 256},
		e, testAlloc(t, 20), reqs)
	if err != nil {
		t.Fatal(err)
	}
	if chunked.Completed != plain.Completed {
		t.Fatalf("completion mismatch: %d vs %d", chunked.Completed, plain.Completed)
	}
	// The SplitFuse win is iteration smoothness: the worst token-level
	// stall a running request sees must shrink.
	if chunked.MaxIterationS >= plain.MaxIterationS {
		t.Errorf("chunked prefill must bound the worst iteration: %.3fs vs %.3fs",
			chunked.MaxIterationS, plain.MaxIterationS)
	}
	// Without batching prefills, end-to-end latency may degrade a
	// little — but not collapse.
	if chunked.P99Latency > 2*plain.P99Latency {
		t.Errorf("chunked prefill p99 %.2f collapsed vs plain %.2f",
			chunked.P99Latency, plain.P99Latency)
	}
}

func TestChunkedPrefillDefaultChunk(t *testing.T) {
	// PrefillChunk 0 falls back to the 512-token default.
	e := testEngine(t)
	stats, err := serve(cluster.Config{MaxBatch: 8, ChunkedPrefill: true}, e, testAlloc(t, 20), testTrace(t, 20, 4))
	if err != nil {
		t.Fatal(err)
	}
	if stats.Completed != 20 {
		t.Errorf("completed %d/20", stats.Completed)
	}
}
