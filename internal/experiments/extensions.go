package experiments

// Extension experiments beyond the paper's figures:
//
//   ext1 — power on *all* accelerators. The paper measures power only
//          on NVIDIA GPUs and lists the rest as future work (§III-5e);
//          the simulator's power model covers every platform.
//   ext2 — speculative-decoding γ ablation (extends Fig. 4b).
//   ext3 — paged vs monolithic KV serving (the PagedAttention
//          mechanism of §IV-B2 under a live scheduler).
//   ext4 — chunked-prefill (Dynamic SplitFuse, §V-3) stall ablation.
//   ext5 — DeciLM-style KV-head NAS (§IV-B4) across quality budgets.

import (
	"fmt"

	"llmbench/internal/cluster"
	"llmbench/internal/dtype"
	"llmbench/internal/engine"
	"llmbench/internal/framework"
	"llmbench/internal/hw"
	"llmbench/internal/kvcache"
	"llmbench/internal/metrics"
	"llmbench/internal/model"
	"llmbench/internal/nas"
	"llmbench/internal/parallel"
	"llmbench/internal/specdec"
	"llmbench/internal/workload"
)

func init() {
	register(&Experiment{
		ID:       "ext1",
		Title:    "Extension: power and efficiency across all accelerators (paper future work)",
		Workload: "LLaMA-3-8B, batch {1,16,32,64}, len 1024, best framework per platform",
		Modules:  []string{"power", "engine"},
		Run:      ext1,
	})
	register(&Experiment{
		ID:       "ext2",
		Title:    "Extension: speculative decoding γ ablation (extends Fig. 4b)",
		Workload: "LLaMA-2-7B and Mixtral-8x7B, γ ∈ {1..8}, len 256, A100 vLLM",
		Modules:  []string{"specdec", "engine"},
		Run:      ext2,
	})
	register(&Experiment{
		ID:       "ext3",
		Title:    "Extension: paged vs monolithic KV cache under live serving (§IV-B2)",
		Workload: "Mistral-7B on A100, Poisson trace, KV budget {4..16} GiB",
		Modules:  []string{"kvcache", "sched"},
		Run:      ext3,
	})
	register(&Experiment{
		ID:       "ext4",
		Title:    "Extension: chunked prefill (Dynamic SplitFuse) stall ablation (§V-3)",
		Workload: "LLaMA-3-8B on A100, chunk ∈ {off, 128..2048} tokens",
		Modules:  []string{"sched", "engine"},
		Run:      ext4,
	})
	register(&Experiment{
		ID:       "ext5",
		Title:    "Extension: DeciLM-style KV-head NAS across quality budgets (§IV-B4)",
		Workload: "LLaMA-3-8B base, pool {1,2,4,8}, budgets 0.3..0.6",
		Modules:  []string{"nas", "model"},
		Run:      ext5,
	})
}

func ext1() (*Output, error) {
	fig := &metrics.Figure{ID: "ext1", Title: "Power and tokens/s/W across all accelerators (LLaMA-3-8B, len 1024)",
		XLabel: "Batch size", YLabel: "Watts / tokens-per-sec-per-watt"}
	for _, c := range acceleratorCombos() {
		eng, err := mk("LLaMA-3-8B", c.dev, c.fw, c.plan)
		if err != nil {
			return nil, err
		}
		label := fmt.Sprintf("%d %s %s", c.plan.Devices(), c.dev, c.fw)
		for _, b := range workload.PaperBatches {
			spec := workload.Spec{Batch: b, Input: 1024, Output: 1024}
			addOrNote(fig, eng, label+" [W]", float64(b), spec,
				func(r engine.Result) float64 { return r.TotalPowerWatts })
			addOrNote(fig, eng, label+" [tok/s/W]", float64(b), spec,
				func(r engine.Result) float64 { return r.TokensPerSecPerW })
		}
	}
	return &Output{Figure: fig}, nil
}

func ext2() (*Output, error) {
	fig := &metrics.Figure{ID: "ext2", Title: "Speculative decoding speedup vs draft length γ (len 256, A100 vLLM)",
		XLabel: "γ (draft tokens per verification)", YLabel: "Speedup over plain decoding"}
	draft, err := mk("LLaMA-68M", "A100", "vLLM", parallel.Single)
	if err != nil {
		return nil, err
	}
	for _, name := range []string{"LLaMA-2-7B", "Mixtral-8x7B"} {
		plan := parallel.Single
		if name == "Mixtral-8x7B" {
			plan = tp(4)
		}
		target, err := mk(name, "A100", "vLLM", plan)
		if err != nil {
			return nil, err
		}
		targetStep, err := target.DecodeStepSeconds(1, 384)
		if err != nil {
			return nil, err
		}
		draftStep, err := draft.DecodeStepSeconds(1, 384)
		if err != nil {
			return nil, err
		}
		for gamma := 1; gamma <= 8; gamma++ {
			cfg := specdec.Default
			cfg.Gamma = gamma
			s, err := specdec.Speedup(cfg, targetStep, draftStep, model.MustGet(name), 256)
			if err != nil {
				return nil, err
			}
			fig.Add(name, float64(gamma), s)
		}
	}
	return &Output{Figure: fig}, nil
}

func ext3() (*Output, error) {
	fig := &metrics.Figure{ID: "ext3", Title: "Paged vs monolithic KV under live serving (Mistral-7B, A100)",
		XLabel: "KV budget (GiB)", YLabel: "Serving throughput (tokens/s)"}
	eng, err := mk("Mistral-7B", "A100", "vLLM", parallel.Single)
	if err != nil {
		return nil, err
	}
	m := model.MustGet("Mistral-7B")
	reqs, err := workload.PoissonTrace(workload.TraceConfig{
		Seed: 8, Requests: 120, RatePerSec: 12,
		InputMean: 512, OutputMean: 128, LengthJitter: 0.4,
	})
	if err != nil {
		return nil, err
	}
	for _, budget := range []float64{4, 8, 12, 16} {
		bytes := budget * (1 << 30)
		paged, err := kvcache.NewPaged(16, m.KVBytesPerToken(dtype.FP16), bytes)
		if err != nil {
			return nil, err
		}
		ps, err := cluster.Serve(cluster.Config{Replicas: []cluster.Replica{{Engine: eng, Alloc: paged}}, MaxBatch: 32}, reqs)
		if err != nil {
			return nil, err
		}
		fig.Add("paged (block 16)", budget, ps.Throughput)

		// Monolithic reservations at a 4K serving window.
		mono, err := kvcache.NewMonolithic(4096, m.KVBytesPerToken(dtype.FP16), bytes)
		if err != nil {
			return nil, err
		}
		ms, err := cluster.Serve(cluster.Config{Replicas: []cluster.Replica{{Engine: eng, Alloc: mono}}, MaxBatch: 32}, reqs)
		if err != nil {
			return nil, err
		}
		fig.Add("monolithic (4K reserve)", budget, ms.Throughput)
		fig.Note("budget %.0f GiB: paged waste %.2f GiB, monolithic waste %.2f GiB (final state)",
			budget, paged.WasteBytes()/(1<<30), mono.WasteBytes()/(1<<30))
	}
	return &Output{Figure: fig}, nil
}

func ext4() (*Output, error) {
	fig := &metrics.Figure{ID: "ext4", Title: "Chunked prefill: worst token stall vs chunk size (LLaMA-3-8B, A100)",
		XLabel: "Prefill chunk (tokens; 0 = unchunked)", YLabel: "Worst iteration (ms)"}
	eng, err := mk("LLaMA-3-8B", "A100", "vLLM", parallel.Single)
	if err != nil {
		return nil, err
	}
	m := model.MustGet("LLaMA-3-8B")
	reqs, err := workload.PoissonTrace(workload.TraceConfig{
		Seed: 13, Requests: 80, RatePerSec: 10,
		InputMean: 1024, OutputMean: 64, LengthJitter: 0.5,
	})
	if err != nil {
		return nil, err
	}
	run := func(chunk int) (cluster.Stats, error) {
		alloc, err := kvcache.NewPaged(16, m.KVBytesPerToken(dtype.FP16), 18*(1<<30))
		if err != nil {
			return cluster.Stats{}, err
		}
		return cluster.Serve(cluster.Config{
			Replicas: []cluster.Replica{{Engine: eng, Alloc: alloc}}, MaxBatch: 16,
			ChunkedPrefill: chunk > 0, PrefillChunk: chunk,
		}, reqs)
	}
	for _, chunk := range []int{0, 128, 256, 512, 1024, 2048} {
		stats, err := run(chunk)
		if err != nil {
			return nil, err
		}
		fig.Add("worst stall", float64(chunk), stats.MaxIterationS*1000)
		fig.Add("p99 latency (s)", float64(chunk), stats.P99Latency)
	}
	return &Output{Figure: fig}, nil
}

func ext5() (*Output, error) {
	fig := &metrics.Figure{ID: "ext5", Title: "KV-head NAS: speedup and KV-head budget vs quality target",
		XLabel: "Quality budget", YLabel: "Speedup over all-8 baseline / total KV heads"}
	for _, budget := range []float64{0.30, 0.40, 0.50, 0.60} {
		res, err := nas.Search(nas.Config{
			Base:          model.MustGet("LLaMA-3-8B"),
			Options:       []int{1, 2, 4, 8},
			QualityBudget: budget,
			Device:        hw.MustGet("A100"),
			Framework:     framework.MustGet("TRT-LLM"),
			Batch:         64,
			Context:       1024,
			Iterations:    6000,
			Seed:          7,
		})
		if err != nil {
			return nil, err
		}
		fig.Add("speedup", budget, res.Speedup)
		fig.Add("total KV heads", budget, float64(res.Allocation.Total()))
		fig.Note("budget %.2f: %d KV heads across 32 layers (LLaMA-3-8B ships 256), %.2fx faster decode step",
			budget, res.Allocation.Total(), res.Speedup)
	}
	return &Output{Figure: fig}, nil
}
