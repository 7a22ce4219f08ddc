package cluster

import (
	"math"
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
	return Autoscale{
		Factory:       factory(t),
		Min:           1,
		Max:           6,
		UpOutstanding: 12,
		DownIdleS:     3,
		CooldownS:     1,
	}
}

func TestAutoscaleValidation(t *testing.T) {
	reqs := burstyTrace(t)
	bad := defaultAutoscale(t)
	bad.Factory = nil
	if _, err := ServeAutoscale(Config{MaxBatch: 16}, bad, reqs); err == nil {
		t.Error("nil factory must fail")
	}
	bad = defaultAutoscale(t)
	bad.Max = 0
	if _, err := ServeAutoscale(Config{MaxBatch: 16}, bad, reqs); err == nil {
		t.Error("bad bounds must fail")
	}
	for _, mut := range []func(*Autoscale){
		func(a *Autoscale) { a.DownIdleS = math.NaN() },
		func(a *Autoscale) { a.DownIdleS = math.Inf(1) },
		func(a *Autoscale) { a.CooldownS = math.NaN() },
		func(a *Autoscale) { a.CooldownS = math.Inf(1) },
	} {
		bad = defaultAutoscale(t)
		mut(&bad)
		if _, err := ServeAutoscale(Config{MaxBatch: 16}, bad, reqs); err == nil ||
			!strings.Contains(err.Error(), "non-finite") {
			t.Errorf("idle %v, cooldown %v must fail as non-finite, got %v", bad.DownIdleS, bad.CooldownS, err)
		}
	}
	if _, err := ServeAutoscale(Config{MaxBatch: 0}, defaultAutoscale(t), reqs); err == nil {
		t.Error("MaxBatch 0 must fail")
	}
	if _, err := ServeAutoscale(Config{MaxBatch: 16}, defaultAutoscale(t), nil); err == nil {
		t.Error("empty trace must fail")
	}
}

func TestAutoscaleScalesUpUnderBurst(t *testing.T) {
	stats, err := ServeAutoscale(Config{MaxBatch: 16}, defaultAutoscale(t), burstyTrace(t))
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
	for _, e := range stats.Events {
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
	auto, err := ServeAutoscale(Config{MaxBatch: 16}, defaultAutoscale(t), reqs)
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
	as := defaultAutoscale(t)
	as.Min = 2
	stats, err := ServeAutoscale(Config{MaxBatch: 16}, as, reqs)
	if err != nil {
		t.Fatal(err)
	}
	if stats.PeakReplicas != 2 {
		t.Errorf("trickle load must never scale past Min: peak %d", stats.PeakReplicas)
	}
	for _, e := range stats.Events {
		if e.Up {
			t.Errorf("unexpected scale-up at %.1fs", e.TimeS)
		}
	}
}
