package llmbench

import (
	"reflect"
	"strings"
	"testing"
)

func TestRunQuickstart(t *testing.T) {
	res, err := Run(System{Model: "LLaMA-3-8B", Device: "A100", Framework: "vLLM"},
		Workload{Batch: 16, Input: 1024, Output: 1024})
	if err != nil {
		t.Fatal(err)
	}
	if res.Throughput <= 0 || res.TTFTSeconds <= 0 || res.ITLSeconds <= 0 {
		t.Fatalf("degenerate result: %+v", res)
	}
}

func TestRunUnknownNames(t *testing.T) {
	cases := []System{
		{Model: "GPT-5", Device: "A100", Framework: "vLLM"},
		{Model: "LLaMA-3-8B", Device: "TPU", Framework: "vLLM"},
		{Model: "LLaMA-3-8B", Device: "A100", Framework: "MLC"},
		{Model: "LLaMA-3-8B", Device: "A100", Framework: "vLLM", Weights: "fp13"},
		{Model: "LLaMA-3-8B", Device: "A100", Framework: "vLLM", KV: "fp13"},
		{Model: "LLaMA-3-8B", Device: "A100", Framework: "vLLM", TP: -4},
		{Model: "LLaMA-3-8B", Device: "A100", Framework: "vLLM", PP: -1},
		{Model: "Mixtral-8x7B", Device: "A100", Framework: "vLLM", EP: -2},
		{Model: "LLaMA-3-8B", Device: "A100", Framework: "vLLM", KVBlockTokens: -16},
	}
	for i, sys := range cases {
		if _, err := Run(sys, Workload{Batch: 1, Input: 128, Output: 128}); err == nil {
			t.Errorf("case %d: expected error", i)
		}
	}
	// A negative field fails naming it, in every front door that builds
	// an engine.
	neg := System{Model: "LLaMA-3-8B", Device: "A100", Framework: "vLLM", KVBlockTokens: -16}
	if _, err := Explain(neg, Workload{Batch: 1, Input: 128, Output: 128}); err == nil || !strings.Contains(err.Error(), "KVBlockTokens") {
		t.Errorf("negative block size: error %v must name KVBlockTokens", err)
	}
}

func TestCatalogs(t *testing.T) {
	if len(Models()) < 10 {
		t.Error("model catalog too small")
	}
	if len(Devices()) != 7 {
		t.Errorf("device catalog has %d entries, want 7", len(Devices()))
	}
	if len(Frameworks()) != 6 {
		t.Errorf("framework catalog has %d entries, want 6", len(Frameworks()))
	}
}

func TestExperimentsList(t *testing.T) {
	exps := Experiments()
	if len(exps) != 51 {
		t.Errorf("have %d experiments, want 51", len(exps))
	}
	for _, e := range exps {
		if e.ID == "" || e.Title == "" {
			t.Errorf("experiment %+v incomplete", e)
		}
	}
}

func TestRunExperiment(t *testing.T) {
	res, err := RunExperiment("fig2b")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(res.Markdown, "fig2b") || res.CSV == "" {
		t.Error("experiment output incomplete")
	}
	tab, err := RunExperiment("tab1")
	if err != nil {
		t.Fatal(err)
	}
	if tab.CSV != "" {
		t.Error("tables have no CSV")
	}
	if _, err := RunExperiment("fig99"); err == nil {
		t.Error("unknown experiment must error")
	}
}

func TestPerplexityFacade(t *testing.T) {
	ppl, err := Perplexity("LLaMA-2-7B")
	if err != nil {
		t.Fatal(err)
	}
	if ppl < 2.5 || ppl > 5 {
		t.Errorf("perplexity %v outside paper band", ppl)
	}
	if _, err := Perplexity("GPT-5"); err == nil {
		t.Error("unknown model must error")
	}
}

// TestServeFacade: one deployment is a one-point ServeSweep.
func TestServeFacade(t *testing.T) {
	pts, err := ServeSweep(ServeSweepConfig{
		System:   System{Model: "LLaMA-3-8B", Device: "A100", Framework: "vLLM"},
		MaxBatch: 16,
		Seed:     3, Requests: 40, InputMean: 512, OutputMean: 128,
	}, ServeGrid{Rates: []float64{5}})
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) != 1 || pts[0].Err != nil {
		t.Fatalf("one-point sweep: %+v", pts)
	}
	if pts[0].Stats.Completed != 40 {
		t.Errorf("completed %d/40", pts[0].Stats.Completed)
	}
	// A 70B model cannot be served on one A100: its only combination
	// fails to size a KV pool, which fails the call.
	if _, err := ServeSweep(ServeSweepConfig{
		System:   System{Model: "LLaMA-2-70B", Device: "A100", Framework: "vLLM"},
		MaxBatch: 4, Requests: 4, InputMean: 128, OutputMean: 64,
	}, ServeGrid{Rates: []float64{1}}); err == nil {
		t.Error("serving a 70B on one A100 must fail")
	}
}

func TestServeClusterFacade(t *testing.T) {
	pts, err := ServeSweep(ServeSweepConfig{
		System:   System{Model: "Mistral-7B", Device: "A100", Framework: "vLLM"},
		Replicas: 2, MaxBatch: 16,
		Seed: 5, Requests: 30, InputMean: 256, OutputMean: 64,
	}, ServeGrid{Rates: []float64{6}, Policies: []ServePolicy{{LeastLoaded: true}}})
	if err != nil {
		t.Fatal(err)
	}
	if p := pts[0]; p.Err != nil || p.Stats.Completed != 30 || len(p.PerReplica) != 2 {
		t.Errorf("cluster point incomplete: %+v (err %v)", p.Stats, p.Err)
	}
}

// TestServeClusterParallelismIdentical pins the root-level promise:
// the grid's worker budget changes wall-clock behaviour only. The
// returned point of a one-point sweep (every percentile, every
// per-replica share, the autoscaler's peak) is byte-identical at any
// budget, for fixed and autoscaled fleets alike.
func TestServeClusterParallelismIdentical(t *testing.T) {
	cfg := ServeSweepConfig{
		System:   System{Model: "Mistral-7B", Device: "A100", Framework: "vLLM"},
		Replicas: 3, MaxBatch: 8,
		Seed: 7, Requests: 36, InputMean: 256, OutputMean: 96,
	}
	for _, pol := range []ServePolicy{{LeastLoaded: true}, {Autoscale: true}} {
		grid := ServeGrid{Rates: []float64{8}, Policies: []ServePolicy{pol}, Parallelism: 1}
		serial, err := ServeSweep(cfg, grid)
		if err != nil {
			t.Fatal(err)
		}
		grid.Parallelism = 4
		parallel, err := ServeSweep(cfg, grid)
		if err != nil {
			t.Fatal(err)
		}
		if serial[0].Err != nil {
			t.Fatalf("%v: %v", pol, serial[0].Err)
		}
		if !reflect.DeepEqual(serial, parallel) {
			t.Errorf("%v: Parallelism 4 point differs from Parallelism 1", pol)
		}
		st := serial[0].Stats
		if st.P50Latency <= 0 || st.P95Latency < st.P50Latency || st.P99Latency < st.P95Latency {
			t.Errorf("%v: latency percentiles inconsistent: %+v", pol, st)
		}
		if st.P99QueueDelay < st.P50QueueDelay {
			t.Errorf("%v: queue-delay percentiles inconsistent: %+v", pol, st)
		}
	}
}

func TestServeAutoscaleFacade(t *testing.T) {
	pts, err := ServeSweep(ServeSweepConfig{
		System:   System{Model: "Mistral-7B", Device: "A100", Framework: "vLLM"},
		Replicas: 4, MaxBatch: 16,
		UpOutstanding: 8, DownIdleS: 3, CooldownS: 1,
		Seed: 9, Requests: 120, InputMean: 384, OutputMean: 96, BurstLenS: 4,
	}, ServeGrid{
		Rates:        []float64{12},
		Policies:     []ServePolicy{{Autoscale: true}},
		BurstFactors: []float64{5},
		Parallelism:  2,
	})
	if err != nil {
		t.Fatal(err)
	}
	p := pts[0]
	if p.Err != nil {
		t.Fatal(p.Err)
	}
	if p.Stats.Completed != 120 {
		t.Errorf("completed %d/120", p.Stats.Completed)
	}
	if p.PeakReplicas < 2 || p.PeakReplicas > 4 {
		t.Errorf("burst load must scale past 1 replica within Max: peak %d", p.PeakReplicas)
	}
	if len(p.PerReplica) < p.PeakReplicas {
		t.Errorf("per-replica stats missing: %d < peak %d", len(p.PerReplica), p.PeakReplicas)
	}
}

func TestQuantizedSystem(t *testing.T) {
	res, err := Run(System{
		Model: "LLaMA-3-8B", Device: "H100", Framework: "vLLM",
		Weights: "fp8", KV: "fp8",
	}, Workload{Batch: 16, Input: 1024, Output: 1024})
	if err != nil {
		t.Fatal(err)
	}
	base, err := Run(System{Model: "LLaMA-3-8B", Device: "H100", Framework: "vLLM"},
		Workload{Batch: 16, Input: 1024, Output: 1024})
	if err != nil {
		t.Fatal(err)
	}
	if res.Throughput <= base.Throughput {
		t.Error("fp8 must beat fp16 on H100")
	}
}

func TestParallelSystem(t *testing.T) {
	res, err := Run(System{Model: "LLaMA-3-70B", Device: "H100", Framework: "TRT-LLM", TP: 4},
		Workload{Batch: 16, Input: 512, Output: 512})
	if err != nil {
		t.Fatal(err)
	}
	if res.Throughput <= 0 {
		t.Error("TP=4 70B run must succeed")
	}
}
