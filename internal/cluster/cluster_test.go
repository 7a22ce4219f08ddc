package cluster

import (
	"errors"
	"strings"
	"testing"

	"llmbench/internal/des"
	"llmbench/internal/dtype"
	"llmbench/internal/engine"
	"llmbench/internal/framework"
	"llmbench/internal/hw"
	"llmbench/internal/kvcache"
	"llmbench/internal/model"
	"llmbench/internal/sched"
	"llmbench/internal/workload"
)

func makeReplicas(t *testing.T, n int) []Replica { return kvReplicas(t, n, 16) }

// kvReplicas builds n Mistral-7B replicas on A100s with capGiB of
// paged KV each (128 KiB per fp16 token, so 0.3 GiB holds about 2.4k
// tokens).
func kvReplicas(t *testing.T, n int, capGiB float64) []Replica {
	t.Helper()
	out := make([]Replica, n)
	m := model.MustGet("Mistral-7B")
	for i := range out {
		eng, err := engine.New(engine.Config{
			Model:     m,
			Device:    hw.MustGet("A100"),
			Framework: framework.MustGet("vLLM"),
		})
		if err != nil {
			t.Fatal(err)
		}
		alloc, err := kvcache.NewPaged(16, m.KVBytesPerToken(dtype.FP16), capGiB*(1<<30))
		if err != nil {
			t.Fatal(err)
		}
		out[i] = Replica{Engine: eng, Alloc: alloc}
	}
	return out
}

func clusterTrace(t *testing.T, n int, rate float64) []workload.Request {
	t.Helper()
	reqs, err := workload.PoissonTrace(workload.TraceConfig{
		Seed: 77, Requests: n, RatePerSec: rate,
		InputMean: 512, OutputMean: 128, LengthJitter: 0.4,
	})
	if err != nil {
		t.Fatal(err)
	}
	return reqs
}

func TestValidation(t *testing.T) {
	reqs := clusterTrace(t, 5, 1)
	if _, err := Serve(Config{MaxBatch: 8}, reqs); err == nil {
		t.Error("no replicas must fail")
	}
	if _, err := Serve(Config{Replicas: makeReplicas(t, 1), MaxBatch: 0}, reqs); err == nil {
		t.Error("MaxBatch 0 must fail")
	}
	if _, err := Serve(Config{Replicas: makeReplicas(t, 1), MaxBatch: 8}, nil); err == nil {
		t.Error("empty trace must fail")
	}
	if _, err := Serve(Config{Replicas: []Replica{{}}, MaxBatch: 8}, reqs); err == nil {
		t.Error("incomplete replica must fail")
	}
	if _, err := Serve(Config{Replicas: makeReplicas(t, 1), MaxBatch: 8, ChunkedPrefill: true, PrefillChunk: -1}, reqs); err == nil ||
		!strings.Contains(err.Error(), "PrefillChunk") {
		t.Errorf("negative PrefillChunk must fail, got %v", err)
	}
	// A trace shifted to start before time 0 would wake stations at
	// times the kernel reads as idle and silently mis-simulate them.
	early := clusterTrace(t, 20, 2)
	for i := range early {
		early[i].Arrival -= 3
	}
	if _, err := Serve(Config{Replicas: kvReplicas(t, 2, 16), Policy: LeastLoaded, MaxBatch: 4}, early); !errors.Is(err, des.ErrNegativeArrival) {
		t.Errorf("arrivals before time 0 must fail with des.ErrNegativeArrival, got %v", err)
	}
}

func TestAllComplete(t *testing.T) {
	for _, policy := range []Policy{RoundRobin, LeastLoaded} {
		stats, err := Serve(Config{
			Replicas: makeReplicas(t, 3), Policy: policy, MaxBatch: 16,
		}, clusterTrace(t, 90, 12))
		if err != nil {
			t.Fatalf("%v: %v", policy, err)
		}
		if stats.Completed != 90 {
			t.Errorf("%v: completed %d/90", policy, stats.Completed)
		}
		total := 0
		for _, r := range stats.PerReplica {
			total += r.Completed
			if r.Util < 0 || r.Util > 1 {
				t.Errorf("%v: utilisation %v out of range", policy, r.Util)
			}
		}
		if total != 90 {
			t.Errorf("%v: per-replica sum %d != 90", policy, total)
		}
	}
}

func TestMoreReplicasReduceLatency(t *testing.T) {
	reqs := clusterTrace(t, 120, 20) // heavy load
	one, err := Serve(Config{Replicas: makeReplicas(t, 1), MaxBatch: 16}, reqs)
	if err != nil {
		t.Fatal(err)
	}
	four, err := Serve(Config{Replicas: makeReplicas(t, 4), MaxBatch: 16}, reqs)
	if err != nil {
		t.Fatal(err)
	}
	if four.MeanLatency >= one.MeanLatency {
		t.Errorf("4 replicas (%.2fs) must beat 1 (%.2fs) under load",
			four.MeanLatency, one.MeanLatency)
	}
	if four.Throughput <= one.Throughput {
		t.Errorf("4 replicas (%.0f tok/s) must beat 1 (%.0f)", four.Throughput, one.Throughput)
	}
}

func TestLeastLoadedNotWorseThanRoundRobin(t *testing.T) {
	// With variable-length requests, JSQ avoids pile-ups behind long
	// requests; it must not lose to blind round-robin.
	reqs := clusterTrace(t, 150, 25)
	rr, err := Serve(Config{Replicas: makeReplicas(t, 4), Policy: RoundRobin, MaxBatch: 16}, reqs)
	if err != nil {
		t.Fatal(err)
	}
	jsq, err := Serve(Config{Replicas: makeReplicas(t, 4), Policy: LeastLoaded, MaxBatch: 16}, reqs)
	if err != nil {
		t.Fatal(err)
	}
	if jsq.MeanLatency > rr.MeanLatency*1.05 {
		t.Errorf("least-loaded latency %.2f must not exceed round-robin %.2f",
			jsq.MeanLatency, rr.MeanLatency)
	}
}

func TestRequestTimelineConsistent(t *testing.T) {
	stats, err := Serve(Config{
		Replicas: makeReplicas(t, 2), Policy: LeastLoaded, MaxBatch: 8,
	}, clusterTrace(t, 40, 6))
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range stats.Requests {
		if r.Started < r.Arrival || r.FirstTok < r.Started || r.Finished < r.FirstTok {
			t.Errorf("req %d timeline inconsistent: %+v", r.ID, r)
		}
	}
	var _ sched.Stats = stats.Stats // aggregation reuses sched's summary type
}

func TestPolicyString(t *testing.T) {
	if RoundRobin.String() != "round-robin" || LeastLoaded.String() != "least-loaded" {
		t.Error("policy strings wrong")
	}
}
