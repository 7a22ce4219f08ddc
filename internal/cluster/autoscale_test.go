package cluster

import (
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

func factory(t *testing.T) func() (Replica, error) {
	t.Helper()
	m := model.MustGet("Mistral-7B")
	return func() (Replica, error) {
		eng, err := engine.New(engine.Config{
			Model:     m,
			Device:    hw.MustGet("A100"),
			Framework: framework.MustGet("vLLM"),
		})
		if err != nil {
			return Replica{}, err
		}
		alloc, err := kvcache.NewPaged(16, m.KVBytesPerToken(dtype.FP16), 16*(1<<30))
		if err != nil {
			return Replica{}, err
		}
		return Replica{Engine: eng, Alloc: alloc}, nil
	}
}

func burstyTrace(t *testing.T) []workload.Request {
	t.Helper()
	reqs, err := workload.ChatTrace(workload.ChatTraceConfig{
		Seed: 61, Requests: 500, RatePerSec: 15, BurstFactor: 6, BurstLenS: 4,
		InputMedian: 512, OutputMedian: 128, Sigma: 0.7, MaxLen: 4096,
	})
	if err != nil {
		t.Fatal(err)
	}
	return reqs
}

func defaultAutoscale(t *testing.T) Autoscale {
	return Autoscale{Factory: factory(t), Max: 6, UpOutstanding: 12}
}

// autoscaled fills cfg in as an autoscaled run routing least-loaded
// over an initial fleet of n fresh replicas from as.Factory.
func autoscaled(t *testing.T, cfg Config, as Autoscale, n int) Config {
	t.Helper()
	cfg.Policy, cfg.Autoscale, cfg.Replicas = LeastLoaded, &as, nil
	for i := 0; i < n; i++ {
		r, err := as.Factory()
		if err != nil {
			t.Fatal(err)
		}
		cfg.Replicas = append(cfg.Replicas, r)
	}
	return cfg
}

func TestAutoscaleValidation(t *testing.T) {
	reqs := burstyTrace(t)
	for name, tc := range map[string]struct {
		mut  func(*Config)
		want string
	}{
		"nil factory":     {func(c *Config) { c.Autoscale.Factory = nil }, "factory"},
		"Max below fleet": {func(c *Config) { c.Autoscale.Max = 1 }, "below the initial fleet"},
		"zero threshold":  {func(c *Config) { c.Autoscale.UpOutstanding = 0 }, "UpOutstanding"},
		// The autoscaler has one router and one topology: a config
		// asking for another must fail, not serve without it.
		"disaggregated": {func(c *Config) { c.PrefillReplicas = 1 }, "disaggregation"},
		"prefix policy": {func(c *Config) { c.Policy = Prefix }, "least-loaded"},
		"round-robin":   {func(c *Config) { c.Policy = RoundRobin }, "least-loaded"},
		"MaxBatch 0":    {func(c *Config) { c.MaxBatch = 0 }, "MaxBatch"},
		"no replicas":   {func(c *Config) { c.Replicas = nil }, "no replicas"},
	} {
		cfg := autoscaled(t, Config{MaxBatch: 16}, defaultAutoscale(t), 2)
		tc.mut(&cfg)
		if _, err := Serve(cfg, reqs); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: want an error naming %q, got %v", name, tc.want, err)
		}
	}
	if _, err := Serve(autoscaled(t, Config{MaxBatch: 16}, defaultAutoscale(t), 1), nil); err == nil {
		t.Error("empty trace must fail")
	}
}

func TestAutoscaleScalesUpUnderBurst(t *testing.T) {
	stats, err := Serve(autoscaled(t, Config{MaxBatch: 16}, defaultAutoscale(t), 1), burstyTrace(t))
	if err != nil {
		t.Fatal(err)
	}
	if stats.Completed != 500 {
		t.Errorf("completed %d/500", stats.Completed)
	}
	if stats.PeakReplicas <= 1 {
		t.Error("a 6x burst at 15 req/s must force scale-up from 1 replica")
	}
	if stats.PeakReplicas > 6 {
		t.Errorf("peak %d exceeds Max", stats.PeakReplicas)
	}
	sawUp, sawDown := false, false
	for _, e := range stats.ScaleEvents {
		if e.Up {
			sawUp = true
		} else {
			sawDown = true
		}
		if e.Replicas < 1 || e.Replicas > 6 {
			t.Errorf("event outside bounds: %+v", e)
		}
	}
	if !sawUp {
		t.Error("expected at least one scale-up event")
	}
	if !sawDown {
		t.Error("expected at least one scale-down event (bursts end)")
	}
}

func TestAutoscaleBeatsFixedMinUnderLoad(t *testing.T) {
	reqs := burstyTrace(t)
	auto, err := Serve(autoscaled(t, Config{MaxBatch: 16}, defaultAutoscale(t), 1), reqs)
	if err != nil {
		t.Fatal(err)
	}
	fixedRep, err := factory(t)()
	if err != nil {
		t.Fatal(err)
	}
	fixed, err := Serve(Config{Replicas: []Replica{fixedRep}, Policy: LeastLoaded, MaxBatch: 16}, reqs)
	if err != nil {
		t.Fatal(err)
	}
	if auto.MeanLatency >= fixed.MeanLatency {
		t.Errorf("autoscaled latency %.2fs must beat the single fixed replica %.2fs",
			auto.MeanLatency, fixed.MeanLatency)
	}
}

func TestAutoscaleStaysAtMinWhenIdleLoad(t *testing.T) {
	reqs, err := workload.PoissonTrace(workload.TraceConfig{
		Seed: 3, Requests: 40, RatePerSec: 0.5, // trickle
		InputMean: 256, OutputMean: 64, LengthJitter: 0.2,
	})
	if err != nil {
		t.Fatal(err)
	}
	stats, err := Serve(autoscaled(t, Config{MaxBatch: 16}, defaultAutoscale(t), 2), reqs)
	if err != nil {
		t.Fatal(err)
	}
	if stats.PeakReplicas != 2 {
		t.Errorf("trickle load must never scale past the initial fleet: peak %d", stats.PeakReplicas)
	}
	for _, e := range stats.ScaleEvents {
		if e.Up {
			t.Errorf("unexpected scale-up at %.1fs", e.TimeS)
		}
	}
}

// TestAutoscaleFloorIsInitialFleet: the initial fleet is the
// scale-down floor. A bursty run from 2 replicas scales up and back
// down, but never retires below 2 and never exceeds Max.
func TestAutoscaleFloorIsInitialFleet(t *testing.T) {
	stats, err := Serve(autoscaled(t, Config{MaxBatch: 16}, defaultAutoscale(t), 2), burstyTrace(t))
	if err != nil {
		t.Fatal(err)
	}
	if stats.PeakReplicas <= 2 || stats.PeakReplicas > 6 {
		t.Errorf("peak %d: the burst must scale past the initial 2 within Max 6", stats.PeakReplicas)
	}
	sawDown := false
	for _, e := range stats.ScaleEvents {
		if e.Replicas < 2 {
			t.Errorf("fleet retired below its initial size: %+v", e)
		}
		sawDown = sawDown || !e.Up
	}
	if !sawDown {
		t.Error("expected a scale-down back toward the floor (bursts end)")
	}
}
