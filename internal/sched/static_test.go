package sched_test

// Golden-reference equivalence for static batching on the kernel:
// legacyServeStatic below is the hand-rolled single-replica loop from
// before static batching became a des station policy, captured
// verbatim (including its pre-sorted-queue contract) so the
// byte-identity contract outlives the deletion.

import (
	"reflect"
	"sort"
	"testing"

	"llmbench/internal/cluster"
	"llmbench/internal/engine"
	"llmbench/internal/kvcache"
	"llmbench/internal/sched"
	"llmbench/internal/workload"
)

// legacyConfig is the slice of the legacy scheduler's configuration
// the static loop read.
type legacyConfig struct {
	Engine   *engine.Engine
	MaxBatch int
	Alloc    kvcache.Allocator
}

// legacyServeStatic is the pre-kernel static scheduler, verbatim. It
// expects the queue sorted by arrival (stable), as the legacy
// scheduler's Static branch did before the port.
func legacyServeStatic(cfg legacyConfig, queue []workload.Request) (sched.Stats, error) {
	now := 0.0
	done := make([]sched.RequestStats, 0, len(queue))
	for len(queue) > 0 {
		if queue[0].Arrival > now {
			now = queue[0].Arrival
		}
		// Collect up to MaxBatch arrived requests.
		batch := make([]workload.Request, 0, cfg.MaxBatch)
		seqs := make([]kvcache.Seq, 0, cfg.MaxBatch)
		rest := queue[:0]
		for _, r := range queue {
			if r.Arrival <= now && len(batch) < cfg.MaxBatch && cfg.Alloc.CanAlloc(r.Input+r.Output) {
				if seq, err := cfg.Alloc.Alloc(r.Input + r.Output); err == nil {
					batch = append(batch, r)
					seqs = append(seqs, seq)
					continue
				}
			}
			rest = append(rest, r)
		}
		queue = rest
		if len(batch) == 0 {
			// Allocator full with nothing running cannot happen (we
			// free below); this means the next request hasn't arrived.
			continue
		}
		// The static batch runs until its longest member finishes.
		maxIn, maxOut := 0, 0
		for _, r := range batch {
			if r.Input > maxIn {
				maxIn = r.Input
			}
			if r.Output > maxOut {
				maxOut = r.Output
			}
		}
		res, err := cfg.Engine.Run(workload.Spec{Batch: len(batch), Input: maxIn, Output: maxOut})
		if err != nil {
			return sched.Stats{}, err
		}
		for i, r := range batch {
			cfg.Alloc.Free(seqs[i])
			done = append(done, sched.RequestStats{
				ID: r.ID, Input: r.Input, Output: r.Output,
				Arrival: r.Arrival, Started: now,
				FirstTok: now + res.TTFTSeconds,
				Finished: now + res.E2ESeconds,
			})
		}
		now += res.E2ESeconds
	}
	return sched.Summarize(done, now, 0)
}

func legacyStatic(t *testing.T, cfg legacyConfig, reqs []workload.Request) sched.Stats {
	t.Helper()
	queue := make([]workload.Request, len(reqs))
	copy(queue, reqs)
	sort.SliceStable(queue, func(i, j int) bool { return queue[i].Arrival < queue[j].Arrival })
	stats, err := legacyServeStatic(cfg, queue)
	if err != nil {
		t.Fatal(err)
	}
	return stats
}

// TestStaticKernelMatchesLegacy: static-on-DES produces Stats
// byte-identical to the hand-rolled legacy loop — every percentile,
// the makespan, and the full per-request ledger in the same order —
// across load levels, a tiny KV pool that forces batch-admission
// skips, and a bursty heavy-tailed chat trace. The runs are also
// guaranteed preemption-free: static batching reserves each request's
// full context up front and never extends it.
func TestStaticKernelMatchesLegacy(t *testing.T) {
	e := testEngine(t)
	chat, err := workload.ChatTrace(workload.ChatTraceConfig{
		Seed: 31, Requests: 80, RatePerSec: 6, BurstFactor: 5, BurstLenS: 3,
		InputMedian: 256, OutputMedian: 96, Sigma: 0.8, MaxLen: 4096,
	})
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name   string
		reqs   []workload.Request
		capGiB float64
		batch  int
	}{
		{"light load", testTrace(t, 40, 2), 20, 16},
		{"heavy load", testTrace(t, 120, 12), 20, 16},
		{"tiny cache forces skips", testTrace(t, 30, 10), 0.7, 8},
		{"bursty chat trace", chat, 20, 16},
	}
	for _, c := range cases {
		want := legacyStatic(t, legacyConfig{Engine: e, MaxBatch: c.batch, Alloc: testAlloc(t, c.capGiB)}, c.reqs)
		got, err := serve(cluster.Config{Static: true, MaxBatch: c.batch}, e, testAlloc(t, c.capGiB), c.reqs)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%s: kernel static Stats differ from legacy golden\n got: %+v\nwant: %+v",
				c.name, got, want)
		}
		if got.Preemptions != 0 {
			t.Errorf("%s: static batching preempted %d times; it must never preempt", c.name, got.Preemptions)
		}
		for _, r := range got.Requests {
			if r.Preempted != 0 {
				t.Errorf("%s: request %d records %d preemptions under static batching", c.name, r.ID, r.Preempted)
			}
		}
		if got.MaxIterationS != 0 {
			t.Errorf("%s: static batching has no iteration granularity, got MaxIterationS %v",
				c.name, got.MaxIterationS)
		}
	}
}

// TestStaticKernelSteppedIdentical: Stepped is a no-op for static
// stations — the batch run is one atomic event either way.
func TestStaticKernelSteppedIdentical(t *testing.T) {
	e := testEngine(t)
	reqs := testTrace(t, 60, 8)
	plain, err := serve(cluster.Config{Static: true, MaxBatch: 16}, e, testAlloc(t, 20), reqs)
	if err != nil {
		t.Fatal(err)
	}
	stepped, err := serve(cluster.Config{Static: true, MaxBatch: 16, Stepped: true}, e, testAlloc(t, 20), reqs)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(plain, stepped) {
		t.Error("static Stats differ between coalesced and Stepped kernel modes")
	}
}

// TestStaticAllocatorDrained: every static batch frees its
// reservations at completion, so the pool is empty afterwards.
func TestStaticAllocatorDrained(t *testing.T) {
	e := testEngine(t)
	alloc := testAlloc(t, 20)
	if _, err := serve(cluster.Config{Static: true, MaxBatch: 8}, e, alloc, testTrace(t, 25, 5)); err != nil {
		t.Fatal(err)
	}
	if alloc.Sequences() != 0 || alloc.UsedBytes() != 0 {
		t.Error("allocator must be empty after static serving completes")
	}
}
