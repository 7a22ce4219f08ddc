package sched_test

// Single-replica serving: a one-replica cluster.Serve, whose Stats are
// this package's. These tests pin the single-replica behaviour of both
// batching policies — completion, continuous beating static under
// load, recompute preemption on a tiny KV pool, drained allocators.

import (
	"errors"
	"reflect"
	"testing"

	"llmbench/internal/cluster"
	"llmbench/internal/dtype"
	"llmbench/internal/engine"
	"llmbench/internal/framework"
	"llmbench/internal/hw"
	"llmbench/internal/kvcache"
	"llmbench/internal/model"
	"llmbench/internal/sched"
	"llmbench/internal/workload"
)

func testEngine(t *testing.T) *engine.Engine {
	t.Helper()
	e, err := engine.New(engine.Config{
		Model:     model.MustGet("LLaMA-3-8B"),
		Device:    hw.MustGet("A100"),
		Framework: framework.MustGet("vLLM"),
	})
	if err != nil {
		t.Fatal(err)
	}
	return e
}

func testAlloc(t *testing.T, capGiB float64) *kvcache.Paged {
	t.Helper()
	m := model.MustGet("LLaMA-3-8B")
	a, err := kvcache.NewPaged(16, m.KVBytesPerToken(dtype.FP16), capGiB*(1<<30))
	if err != nil {
		t.Fatal(err)
	}
	return a
}

func testTrace(t *testing.T, n int, rate float64) []workload.Request {
	t.Helper()
	reqs, err := workload.PoissonTrace(workload.TraceConfig{
		Seed: 11, Requests: n, RatePerSec: rate,
		InputMean: 512, OutputMean: 128, LengthJitter: 0.4,
	})
	if err != nil {
		t.Fatal(err)
	}
	return reqs
}

// serve runs reqs on one replica of eng and alloc under cfg's
// scheduling settings.
func serve(cfg cluster.Config, eng *engine.Engine, alloc kvcache.Allocator, reqs []workload.Request) (sched.Stats, error) {
	cfg.Replicas = []cluster.Replica{{Engine: eng, Alloc: alloc}}
	stats, err := cluster.Serve(cfg, reqs)
	return stats.Stats, err
}

func TestServeValidation(t *testing.T) {
	e := testEngine(t)
	if _, err := serve(cluster.Config{MaxBatch: 8}, nil, testAlloc(t, 10), testTrace(t, 5, 1)); err == nil {
		t.Error("nil engine must fail")
	}
	if _, err := serve(cluster.Config{MaxBatch: 0}, e, testAlloc(t, 10), testTrace(t, 5, 1)); err == nil {
		t.Error("MaxBatch 0 must fail")
	}
	if _, err := serve(cluster.Config{MaxBatch: 8}, e, testAlloc(t, 10), nil); err == nil {
		t.Error("empty trace must fail")
	}
}

func TestAllRequestsComplete(t *testing.T) {
	e := testEngine(t)
	for _, static := range []bool{false, true} {
		stats, err := serve(cluster.Config{Static: static, MaxBatch: 16}, e, testAlloc(t, 20), testTrace(t, 60, 4))
		if err != nil {
			t.Fatalf("static=%v: %v", static, err)
		}
		if stats.Completed != 60 {
			t.Errorf("static=%v: completed %d/60", static, stats.Completed)
		}
		if stats.Throughput <= 0 || stats.MeanLatency <= 0 || stats.MeanTTFT <= 0 {
			t.Errorf("static=%v: degenerate stats %+v", static, stats)
		}
		if stats.P99Latency < stats.MeanLatency {
			t.Errorf("static=%v: p99 %v below mean %v", static, stats.P99Latency, stats.MeanLatency)
		}
	}
}

func TestContinuousBeatsStaticUnderLoad(t *testing.T) {
	// §IV-A1: continuous batching "keeps the device busy, and new
	// requests of variable length can be processed without waiting for
	// the previous batch to be finished" — so at load it must deliver
	// both higher throughput and lower mean latency than static
	// batching.
	e := testEngine(t)
	reqs := testTrace(t, 120, 8)
	cont, err := serve(cluster.Config{MaxBatch: 16}, e, testAlloc(t, 20), reqs)
	if err != nil {
		t.Fatal(err)
	}
	stat, err := serve(cluster.Config{Static: true, MaxBatch: 16}, e, testAlloc(t, 20), reqs)
	if err != nil {
		t.Fatal(err)
	}
	if cont.Throughput <= stat.Throughput {
		t.Errorf("continuous throughput %.0f must beat static %.0f", cont.Throughput, stat.Throughput)
	}
	if cont.MeanLatency >= stat.MeanLatency {
		t.Errorf("continuous latency %.2f must beat static %.2f", cont.MeanLatency, stat.MeanLatency)
	}
}

func TestPreemptionUnderTinyCache(t *testing.T) {
	// A cache that holds only a couple of sequences forces evictions;
	// the system must still finish every request.
	e := testEngine(t)
	small := testAlloc(t, 0.5) // ~0.5 GiB: a few thousand tokens
	stats, err := serve(cluster.Config{MaxBatch: 8}, e, small, testTrace(t, 20, 20))
	if err != nil {
		t.Fatal(err)
	}
	if stats.Completed != 20 {
		t.Errorf("completed %d/20 under preemption", stats.Completed)
	}
	if stats.Preemptions == 0 {
		t.Error("a tiny cache must force preemptions")
	}
}

func TestRequestStatsConsistency(t *testing.T) {
	e := testEngine(t)
	stats, err := serve(cluster.Config{MaxBatch: 8}, e, testAlloc(t, 20), testTrace(t, 30, 3))
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range stats.Requests {
		if r.Started < r.Arrival {
			t.Errorf("req %d started before arrival", r.ID)
		}
		if r.FirstTok < r.Started {
			t.Errorf("req %d first token before start", r.ID)
		}
		if r.Finished < r.FirstTok {
			t.Errorf("req %d finished before first token", r.ID)
		}
	}
}

func TestAllocatorDrained(t *testing.T) {
	e := testEngine(t)
	alloc := testAlloc(t, 20)
	if _, err := serve(cluster.Config{MaxBatch: 8}, e, alloc, testTrace(t, 25, 5)); err != nil {
		t.Fatal(err)
	}
	if alloc.Sequences() != 0 || alloc.UsedBytes() != 0 {
		t.Error("allocator must be empty after serving completes")
	}
}

// TestUnadmittableRequestErrors guards the hang fix: a prompt larger
// than the whole KV pool must fail fast, not spin the scheduler
// forever.
func TestUnadmittableRequestErrors(t *testing.T) {
	_, err := serve(cluster.Config{MaxBatch: 4}, testEngine(t), testAlloc(t, 0.01), // ~80 tokens of KV
		[]workload.Request{{ID: 0, Input: 100000, Output: 8, Arrival: 0}})
	if err == nil {
		t.Fatal("an unadmittable request must error, not hang")
	}
}

// TestOversizedContextErrors: a prompt that fits the pool but whose
// full context (Input+Output) does not can never complete, even alone
// on an empty pool. Preempting and recomputing it would loop forever,
// so the run must fail with kvcache.ErrOutOfMemory instead — for one
// request or a queue of them, on one replica or a fleet, on paged
// pools and on monolithic reservations shorter than the context, in
// both coalesced and Stepped mode.
func TestOversizedContextErrors(t *testing.T) {
	e := testEngine(t)
	m := model.MustGet("LLaMA-3-8B")
	paged := func() kvcache.Allocator { return testAlloc(t, 0.01) } // ~80 tokens of KV
	mono := func() kvcache.Allocator {
		a, err := kvcache.NewMonolithic(64, m.KVBytesPerToken(dtype.FP16), 1<<30)
		if err != nil {
			t.Fatal(err)
		}
		return a
	}
	one := []workload.Request{{ID: 0, Input: 40, Output: 200, Arrival: 0}}
	var queue []workload.Request
	for i := 0; i < 6; i++ {
		queue = append(queue, workload.Request{ID: i, Input: 30, Output: 200, Arrival: float64(i) * 0.01})
	}
	cases := []struct {
		name     string
		alloc    func() kvcache.Allocator
		replicas int
		reqs     []workload.Request
	}{
		{"paged/one", paged, 1, one},
		{"paged/fleet", paged, 2, one},
		{"paged/queue", paged, 1, queue},
		{"paged/fleet-queue", paged, 2, queue},
		{"monolithic/queue", mono, 1, queue},
	}
	for _, c := range cases {
		for _, stepped := range []bool{false, true} {
			cfg := cluster.Config{MaxBatch: 4, Policy: cluster.LeastLoaded, Stepped: stepped}
			for i := 0; i < c.replicas; i++ {
				cfg.Replicas = append(cfg.Replicas, cluster.Replica{Engine: e, Alloc: c.alloc()})
			}
			_, err := cluster.Serve(cfg, c.reqs)
			if !errors.Is(err, kvcache.ErrOutOfMemory) {
				t.Errorf("%s stepped=%v: got %v, want kvcache.ErrOutOfMemory", c.name, stepped, err)
			}
		}
	}
}

// TestEvictionPairCompletes: requests that each fit the ~80-token pool
// alone, but not together, must all complete. Without the station's
// admission hold after a repeat eviction, an evicted request is
// readmitted at once, evicts its neighbour in turn, and the run never
// ends. Coalesced and Stepped runs must agree.
func TestEvictionPairCompletes(t *testing.T) {
	e := testEngine(t)
	var reqs []workload.Request
	for i := 0; i < 6; i++ {
		reqs = append(reqs, workload.Request{ID: i, Input: 30, Output: 50}) // 80 tokens at the end
	}
	for _, replicas := range []int{1, 2} {
		var runs [2]cluster.Stats
		for i, stepped := range []bool{false, true} {
			cfg := cluster.Config{MaxBatch: 4, Policy: cluster.LeastLoaded, Stepped: stepped}
			for j := 0; j < replicas; j++ {
				cfg.Replicas = append(cfg.Replicas, cluster.Replica{Engine: e, Alloc: testAlloc(t, 0.01)})
			}
			stats, err := cluster.Serve(cfg, reqs)
			if err != nil {
				t.Fatalf("replicas=%d stepped=%v: %v", replicas, stepped, err)
			}
			if stats.Completed != len(reqs) || stats.Preemptions == 0 {
				t.Errorf("replicas=%d stepped=%v: completed %d with %d preemptions, want %d with > 0",
					replicas, stepped, stats.Completed, stats.Preemptions, len(reqs))
			}
			runs[i] = stats
		}
		if !reflect.DeepEqual(runs[0], runs[1]) {
			t.Errorf("replicas=%d: coalesced Stats differ from Stepped", replicas)
		}
	}
}
