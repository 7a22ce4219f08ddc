package experiments

import (
	"fmt"

	"llmbench/internal/metrics"
	"llmbench/internal/parallel"
	"llmbench/internal/perplexity"
	"llmbench/internal/workload"
)

func init() {
	register(&Experiment{
		ID:       "fig6",
		Title:    "TRT-LLM: 7B models on one GH200, H100, A100 (len 1024)",
		Workload: "batch {1,16,32,64}",
		Modules:  []string{"engine", "hw"},
		Run:      fig6,
	})
	register(&Experiment{
		ID:       "fig7",
		Title:    "TRT-LLM: MoE and 70B models on four A100 and H100 GPUs (len 1024)",
		Workload: "batch {1,16,32,64}, TP=4",
		Modules:  []string{"engine", "parallel"},
		Run:      fig7,
	})
	register(&Experiment{
		ID:       "fig8",
		Title:    "vLLM: 7B models on one GPU (len 1024)",
		Workload: "batch {1,16,32,64} on H100, A100, GH200, MI250, MI300X",
		Modules:  []string{"engine", "hw"},
		Run:      fig8,
	})
	register(&Experiment{
		ID:       "fig9",
		Title:    "vLLM: MoE/70B models on four GPUs (len 1024)",
		Workload: "batch {1,16,32,64}, TP=4 on H100, A100, MI250",
		Modules:  []string{"engine", "parallel"},
		Run:      fig9,
	})
	register(&Experiment{
		ID:       "fig10",
		Title:    "Perplexity vs throughput of ~7B models (one A100, vLLM, batch 32, len 1024)",
		Workload: "11 models on the synthetic LongBench-like corpus",
		Modules:  []string{"perplexity", "engine"},
		Run:      func() (*Output, error) { return perplexityScatter("fig10", "A100") },
	})
	register(&Experiment{
		ID:       "fig11",
		Title:    "DS-MII: scaling of 7B models on A100 GPUs (len 128)",
		Workload: "GPUs {1,2,4} × batch {16,32,64}",
		Modules:  []string{"engine", "parallel"},
		Run:      fig11,
	})
	register(&Experiment{
		ID:       "fig12",
		Title:    "Mixtral-8x7B: TRT-LLM vs DS-MII vs vLLM on four A100s",
		Workload: "batch {1,16,32,64} × length {128, 2048}",
		Modules:  []string{"engine", "framework"},
		Run:      fig12,
	})
	register(&Experiment{
		ID:       "fig13",
		Title:    "llama.cpp: 7B models on one GPU (len 1024)",
		Workload: "batch {1,16,32,64} on GH200, H100, A100, MI250, MI300X",
		Modules:  []string{"engine", "framework"},
		Run:      fig13,
	})
	register(&Experiment{
		ID:       "fig14",
		Title:    "llama.cpp: 7B model GPU scaling (batch 64, len 1024)",
		Workload: "GPUs {1,2,4} across five platforms",
		Modules:  []string{"engine", "parallel"},
		Run:      fig14,
	})
}

var models7B = []string{"Mistral-7B", "LLaMA-3-8B", "LLaMA-2-7B"}

func fig6() (*Output, error) {
	fig := &metrics.Figure{ID: "fig6", Title: "TRT-LLM 7B models (GH200/H100/A100, len 1024)",
		XLabel: "Batch size", YLabel: "Throughput (tokens/s)"}
	for _, dev := range []string{"GH200", "H100", "A100"} {
		for _, m := range models7B {
			eng, err := mk(m, dev, "TRT-LLM", parallel.Single)
			if err != nil {
				return nil, err
			}
			batchSweep(fig, eng, dev+", "+m, workload.PaperBatches, 1024)
		}
	}
	return &Output{Figure: fig}, nil
}

func fig7() (*Output, error) {
	fig := &metrics.Figure{ID: "fig7", Title: "TRT-LLM MoE and 70B models (4×A100/H100, len 1024)",
		XLabel: "Batch size", YLabel: "Throughput (tokens/s)"}
	for _, dev := range []string{"H100", "A100"} {
		for _, m := range []string{"Mixtral-8x7B", "LLaMA-3-70B", "LLaMA-2-70B"} {
			eng, err := mk(m, dev, "TRT-LLM", tp(4))
			if err != nil {
				return nil, err
			}
			batchSweep(fig, eng, dev+" "+m, workload.PaperBatches, 1024)
		}
	}
	return &Output{Figure: fig}, nil
}

func fig8() (*Output, error) {
	fig := &metrics.Figure{ID: "fig8", Title: "vLLM 7B models on one GPU (len 1024)",
		XLabel: "Batch size", YLabel: "Throughput (tokens/s)"}
	for _, dev := range []string{"H100", "A100", "GH200", "MI250", "MI300X"} {
		for _, m := range []string{"LLaMA-3-8B", "LLaMA-2-7B"} {
			eng, err := mk(m, dev, "vLLM", parallel.Single)
			if err != nil {
				return nil, err
			}
			batchSweep(fig, eng, dev+" "+m, workload.PaperBatches, 1024)
		}
	}
	// The paper also highlights Qwen2-7B on GH200 as the fastest 7B.
	qwen, err := mk("Qwen2-7B", "GH200", "vLLM", parallel.Single)
	if err != nil {
		return nil, err
	}
	batchSweep(fig, qwen, "GH200 Qwen2-7B", workload.PaperBatches, 1024)
	return &Output{Figure: fig}, nil
}

func fig9() (*Output, error) {
	fig := &metrics.Figure{ID: "fig9", Title: "vLLM MoE/70B models on four GPUs (len 1024)",
		XLabel: "Batch size", YLabel: "Throughput (tokens/s)"}
	combos := []struct{ dev, m string }{
		{"H100", "LLaMA-2-70B"}, {"H100", "LLaMA-3-70B"}, {"H100", "Qwen2-72B"},
		{"A100", "LLaMA-2-70B"}, {"A100", "Mixtral-8x7B"},
		{"MI250", "LLaMA-2-70B"}, {"MI250", "LLaMA-3-70B"}, {"MI250", "Mixtral-8x7B"}, {"MI250", "Qwen2-72B"},
	}
	for _, c := range combos {
		eng, err := mk(c.m, c.dev, "vLLM", tp(4))
		if err != nil {
			return nil, err
		}
		batchSweep(fig, eng, c.dev+" "+c.m, workload.PaperBatches, 1024)
	}
	return &Output{Figure: fig}, nil
}

// perplexityScatter builds Fig. 10 (A100) and Fig. 29 (H100).
func perplexityScatter(id, dev string) (*Output, error) {
	fig := &metrics.Figure{ID: id,
		Title:  fmt.Sprintf("Perplexity vs throughput of ~7B models (one %s, vLLM, batch 32, len 1024)", dev),
		XLabel: "Perplexity", YLabel: "Throughput (tokens/s)"}
	ev, err := perplexity.NewEvaluator()
	if err != nil {
		return nil, err
	}
	names := perplexity.ScatterModels()
	if id == "fig29" {
		// Fig. 29's legend omits Mistral-7B and Gemma-7B.
		names = filterOut(names, "Mistral-7B", "Gemma-7B")
	}
	spec := workload.Spec{Batch: 32, Input: 1024, Output: 1024}
	for _, name := range names {
		ppl, err := ev.ModelPerplexity(name)
		if err != nil {
			return nil, err
		}
		eng, err := mk(name, dev, "vLLM", parallel.Single)
		if err != nil {
			return nil, err
		}
		res, err := eng.Run(spec)
		if err != nil {
			fig.Note("%s skipped: %v", name, err)
			continue
		}
		fig.Add(name, ppl, res.Throughput)
	}
	return &Output{Figure: fig}, nil
}

func filterOut(names []string, drop ...string) []string {
	out := names[:0:0]
	for _, n := range names {
		skip := false
		for _, d := range drop {
			if n == d {
				skip = true
			}
		}
		if !skip {
			out = append(out, n)
		}
	}
	return out
}

func fig11() (*Output, error) {
	fig := &metrics.Figure{ID: "fig11", Title: "DS-MII 7B model scaling on A100 (len 128)",
		XLabel: "Number of GPUs", YLabel: "Throughput (tokens/s)"}
	for _, batch := range []int{16, 32, 64} {
		for _, m := range []string{"LLaMA-2-7B", "Mistral-7B", "LLaMA-3-8B"} {
			for _, gpus := range []int{1, 2, 4} {
				eng, err := mk(m, "A100", "DS-MII", tp(gpus))
				if err != nil {
					return nil, err
				}
				addOrNote(fig, eng, fmt.Sprintf("%d %s", batch, m), float64(gpus),
					workload.Spec{Batch: batch, Input: 128, Output: 128}, throughput)
			}
		}
	}
	return &Output{Figure: fig}, nil
}

func fig12() (*Output, error) {
	fig := &metrics.Figure{ID: "fig12", Title: "Mixtral-8x7B: TRT-LLM vs DS-MII vs vLLM (4×A100)",
		XLabel: "Batch size", YLabel: "Throughput (tokens/s)"}
	for _, fw := range []string{"TRT-LLM", "vLLM", "DS-MII"} {
		eng, err := mk("Mixtral-8x7B", "A100", fw, tp(4))
		if err != nil {
			return nil, err
		}
		for _, l := range []int{128, 2048} {
			batchSweep(fig, eng, fmt.Sprintf("%d %s", l, fw), workload.PaperBatches, l)
		}
	}
	return &Output{Figure: fig}, nil
}

func fig13() (*Output, error) {
	fig := &metrics.Figure{ID: "fig13", Title: "llama.cpp 7B models on one GPU (len 1024)",
		XLabel: "Batch size", YLabel: "Throughput (tokens/s)"}
	for _, dev := range []string{"GH200", "H100", "A100", "MI250", "MI300X"} {
		for _, m := range []string{"LLaMA-2-7B", "Mistral-7B", "LLaMA-3-8B"} {
			eng, err := mk(m, dev, "llama.cpp", parallel.Single)
			if err != nil {
				return nil, err
			}
			batchSweep(fig, eng, dev+" "+m, workload.PaperBatches, 1024)
		}
	}
	return &Output{Figure: fig}, nil
}

func fig14() (*Output, error) {
	fig := &metrics.Figure{ID: "fig14", Title: "llama.cpp 7B model GPU scaling (batch 64, len 1024)",
		XLabel: "Number of GPUs", YLabel: "Throughput (tokens/s)"}
	spec := workload.Spec{Batch: 64, Input: 1024, Output: 1024}
	for _, dev := range []string{"GH200", "H100", "A100", "MI300X", "MI250"} {
		maxGPUs := 4
		if dev == "GH200" {
			maxGPUs = 1
		}
		for _, m := range []string{"LLaMA-2-7B", "Mistral-7B", "LLaMA-3-8B"} {
			for _, gpus := range []int{1, 2, 4} {
				if gpus > maxGPUs {
					continue
				}
				eng, err := mk(m, dev, "llama.cpp", parallel.Plan{TP: 1, PP: gpus, EP: 1})
				if err != nil {
					return nil, err
				}
				addOrNote(fig, eng, dev+" "+m, float64(gpus), spec, throughput)
			}
		}
	}
	return &Output{Figure: fig}, nil
}
