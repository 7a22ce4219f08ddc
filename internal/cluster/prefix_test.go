package cluster

// Prefix-affinity routing tests: the Prefix policy must concentrate a
// shared-prefix workload onto warm replicas (cache-hit rate far above
// a blind router's at light per-replica load), degrade gracefully to
// least-loaded when the allocators are prefix-blind, and hold the
// coalesced == stepped identity with tiered allocators and chunked
// prefill engaged.

import (
	"reflect"
	"strings"
	"testing"

	"llmbench/internal/dtype"
	"llmbench/internal/engine"
	"llmbench/internal/framework"
	"llmbench/internal/hw"
	"llmbench/internal/kvcache"
	"llmbench/internal/model"
	"llmbench/internal/workload"
)

// makeTieredReplicas builds n replicas whose allocators share a
// prefixTokens system prompt, each backed by a hostGiB CPU tier.
func makeTieredReplicas(t *testing.T, n, prefixTokens int, hostGiB float64) []Replica {
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
		gpu, err := kvcache.NewPrefixPaged(16, prefixTokens, m.KVBytesPerToken(dtype.FP16), 16*(1<<30))
		if err != nil {
			t.Fatal(err)
		}
		alloc, err := kvcache.NewTiered(gpu, hostGiB*(1<<30), kvcache.HostLink{GBPerS: 32, LatencyS: 5e-6})
		if err != nil {
			t.Fatal(err)
		}
		out[i] = Replica{Engine: eng, Alloc: alloc}
	}
	return out
}

// prefixTrace is a shared-prefix chat trace: every prompt fronts the
// same prefixTokens tokens.
func prefixTrace(t *testing.T, n, prefixTokens int, rate float64) []workload.Request {
	t.Helper()
	reqs, err := workload.ChatTrace(workload.ChatTraceConfig{
		Seed: 7, Requests: n, RatePerSec: rate, BurstFactor: 1,
		InputMedian: 128, OutputMedian: 32, PrefixTokens: prefixTokens,
		Sigma: 0.1, MaxLen: 8192,
	})
	if err != nil {
		t.Fatal(err)
	}
	return reqs
}

// TestPrefixPolicyConcentratesHits: a blind router spreads the shared
// prefix across the fleet and keeps paying its establishment wherever
// a replica drained, while the prefix router pins arrivals to warm
// replicas. Both must complete everything; the prefix router must
// land a much higher token-weighted hit rate and a tighter tail.
func TestPrefixPolicyConcentratesHits(t *testing.T) {
	const nReq = 400
	reqs := prefixTrace(t, nReq, 4096, 24)
	// The host tier is deliberately too small for the prefix: a
	// drained replica goes fully cold, so a blind router's misses pay
	// whole re-prefills (a roomy tier would rescue it with cheap
	// restores and mask the routing signal).
	run := func(p Policy) Stats {
		t.Helper()
		stats, err := Serve(Config{
			Replicas: makeTieredReplicas(t, 8, 4096, 0.05),
			Policy:   p, MaxBatch: 32,
			ChunkedPrefill: true, PrefillChunk: 256,
		}, reqs)
		if err != nil {
			t.Fatalf("%v: %v", p, err)
		}
		if stats.Completed != nReq {
			t.Fatalf("%v: completed %d/%d", p, stats.Completed, nReq)
		}
		return stats
	}
	rr := run(RoundRobin)
	px := run(Prefix)
	if px.CacheHitRate < 0.9 {
		t.Errorf("prefix router hit rate %.3f, want ≥ 0.9 (a pinned 4096-token prefix)", px.CacheHitRate)
	}
	if px.CacheHitRate <= rr.CacheHitRate {
		t.Errorf("prefix hit rate %.3f must exceed round-robin's %.3f", px.CacheHitRate, rr.CacheHitRate)
	}
	// The mean can go either way at light load (spread keeps batches
	// shallow), but the tail cannot: a blind router keeps paying cold
	// 4096-token establishments its p95 inherits.
	if px.P95Latency >= rr.P95Latency {
		t.Errorf("prefix p95 %.3f must beat round-robin %.3f", px.P95Latency, rr.P95Latency)
	}
}

// TestPrefixPolicyBlindAllocatorsDegrade pins the fallback: with
// prefix-blind Paged allocators every replica scores zero, so the
// Prefix router is least-loaded with a narrower window — it must
// still complete everything and stay within the same latency regime.
func TestPrefixPolicyBlindAllocatorsDegrade(t *testing.T) {
	reqs := clusterTrace(t, 90, 12)
	px, err := Serve(Config{Replicas: makeReplicas(t, 3), Policy: Prefix, MaxBatch: 16}, reqs)
	if err != nil {
		t.Fatal(err)
	}
	if px.Completed != 90 {
		t.Fatalf("completed %d/90", px.Completed)
	}
	if px.CacheHitRate != 0 {
		t.Errorf("blind allocators cannot hit, got rate %.3f", px.CacheHitRate)
	}
	ll, err := Serve(Config{Replicas: makeReplicas(t, 3), Policy: LeastLoaded, MaxBatch: 16}, reqs)
	if err != nil {
		t.Fatal(err)
	}
	if px.MeanLatency > ll.MeanLatency*1.1 {
		t.Errorf("degraded prefix latency %.3f strays from least-loaded %.3f", px.MeanLatency, ll.MeanLatency)
	}
}

// TestPrefixMatchesStepped extends the cluster's byte-identity
// to the new machinery all at once: Prefix routing over tiered
// allocators with chunked prefill, coalesced == stepped.
func TestPrefixMatchesStepped(t *testing.T) {
	reqs := prefixTrace(t, 96, 2048, 10)
	build := func(stepped bool) Stats {
		t.Helper()
		stats, err := Serve(Config{
			Replicas: makeTieredReplicas(t, 4, 2048, 2),
			Policy:   Prefix, MaxBatch: 8,
			ChunkedPrefill: true, PrefillChunk: 256,
			Stepped: stepped,
		}, reqs)
		if err != nil {
			t.Fatalf("stepped %v: %v", stepped, err)
		}
		return stats
	}
	coalesced := build(false)
	if coalesced.CacheHitRate <= 0 {
		t.Fatal("the identity run must actually exercise prefix hits")
	}
	if got := build(true); !reflect.DeepEqual(got, coalesced) {
		t.Error("stepped Stats differ from coalesced")
	}
}

// TestChunkedPrefillValidation pins the composition rules.
func TestChunkedPrefillValidation(t *testing.T) {
	reqs := clusterTrace(t, 5, 1)
	if _, err := Serve(Config{
		Replicas: makeReplicas(t, 2), MaxBatch: 8,
		ChunkedPrefill: true, Static: true,
	}, reqs); err == nil || !strings.Contains(err.Error(), "static") {
		t.Errorf("chunked+static must fail naming static, got %v", err)
	}
	if _, err := Serve(Config{
		Replicas: makeReplicas(t, 3), MaxBatch: 8,
		ChunkedPrefill: true, PrefillReplicas: 1,
	}, reqs); err == nil || !strings.Contains(err.Error(), "disaggregation") {
		t.Errorf("chunked+disagg must fail naming disaggregation, got %v", err)
	}
	// Chunked alone is fine.
	if _, err := Serve(Config{
		Replicas: makeReplicas(t, 2), MaxBatch: 8, ChunkedPrefill: true,
	}, reqs); err != nil {
		t.Errorf("plain chunked must serve: %v", err)
	}
	// And the autoscaler enforces the same static rule.
	if _, err := Serve(autoscaled(t, Config{MaxBatch: 8, ChunkedPrefill: true, Static: true}, Autoscale{
		Factory: autoscaleFactory(t), Max: 2, UpOutstanding: 4,
	}, 1), reqs); err == nil || !strings.Contains(err.Error(), "static") {
		t.Errorf("autoscale chunked+static must fail naming static, got %v", err)
	}
}
