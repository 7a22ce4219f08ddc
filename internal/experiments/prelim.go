package experiments

import (
	"fmt"

	"llmbench/internal/engine"
	"llmbench/internal/framework"
	"llmbench/internal/hw"
	"llmbench/internal/metrics"
	"llmbench/internal/model"
	"llmbench/internal/parallel"
	"llmbench/internal/quant"
	"llmbench/internal/specdec"
	"llmbench/internal/workload"
)

func init() {
	register(&Experiment{
		ID:       "fig1a",
		Title:    "vLLM: batch size vs input/output length, LLaMA-3-8B on one A100 (fp16)",
		Workload: "batch {1,16,32,64} × length {128..2048}",
		Modules:  []string{"engine", "framework", "hw"},
		Run:      fig1a,
	})
	register(&Experiment{
		ID:       "fig1b",
		Title:    "TRT-LLM: input vs output length heatmap, LLaMA-3-8B on one A100, batch 1",
		Workload: "input × output ∈ {128..2048}²",
		Modules:  []string{"engine", "workload"},
		Run:      fig1b,
	})
	register(&Experiment{
		ID:       "fig2a",
		Title:    "Effect of KV cache, LLaMA-3-70B on Gaudi2 (8 HPUs), batch 1",
		Workload: "length {128..1024}, KV cache on/off",
		Modules:  []string{"engine", "kvcache"},
		Run:      fig2a,
	})
	register(&Experiment{
		ID:       "fig2b",
		Title:    "KV-cache block size vs batch size, LLaMA-3-8B on one A100, len 1024",
		Workload: "block {8,16,32,64,128} × batch {1,16,32,64}",
		Modules:  []string{"kvcache", "engine"},
		Run:      fig2b,
	})
	register(&Experiment{
		ID:       "fig3",
		Title:    "Quantization: LLaMA-3-8B on one H100 and A100, len 1024",
		Workload: "nine {weights, KV} precision combos × batch {1,16,32,64}",
		Modules:  []string{"quant", "engine"},
		Run:      fig3,
	})
	register(&Experiment{
		ID:       "fig4a",
		Title:    "NAS: DeciLM-7B vs Mistral-7B vs LLaMA-3-8B, len 1024 (fp16)",
		Workload: "batch {1,16,32,64} on A100 and H100, TRT-LLM",
		Modules:  []string{"model", "engine"},
		Run:      fig4a,
	})
	register(&Experiment{
		ID:       "fig4b",
		Title:    "Speculative decoding on one A100 using vLLM, batch 1 (fp16)",
		Workload: "LLaMA-2-7B and Mixtral-8x7B with/without SD, length {128..1024}",
		Modules:  []string{"specdec", "engine"},
		Run:      fig4b,
	})
	register(&Experiment{
		ID:       "fig5a",
		Title:    "Parallelism: LLaMA-3-8B on 4 A100s, batch 64, len 1024",
		Workload: "TP=4 vs PP=4 vs TP=2,PP=2 (plus 1- and 2-GPU TP)",
		Modules:  []string{"parallel", "engine"},
		Run:      fig5a,
	})
	register(&Experiment{
		ID:       "fig5b",
		Title:    "Parallelism: Mixtral-8x7B on 4 A100s, batch 64",
		Workload: "TP vs PP vs EP vs TP=2,EP=2 over length {128..1024}",
		Modules:  []string{"parallel", "engine"},
		Run:      fig5b,
	})
}

func fig1a() (*Output, error) {
	fig := &metrics.Figure{ID: "fig1a", Title: "vLLM batch size vs input/output length (LLaMA-3-8B, one A100)",
		XLabel: "Batch size", YLabel: "Throughput (tokens/s)"}
	eng, err := mk("LLaMA-3-8B", "A100", "vLLM", parallel.Single)
	if err != nil {
		return nil, err
	}
	for _, l := range workload.PaperLengths {
		batchSweep(fig, eng, fmt.Sprintf("len %d", l), workload.PaperBatches, l)
	}
	return &Output{Figure: fig}, nil
}

func fig1b() (*Output, error) {
	fig := &metrics.Figure{ID: "fig1b", Title: "TRT-LLM input vs output length (LLaMA-3-8B, one A100, batch 1)",
		XLabel: "Input length", YLabel: "Throughput (tokens/s)"}
	eng, err := mk("LLaMA-3-8B", "A100", "TRT-LLM", parallel.Single)
	if err != nil {
		return nil, err
	}
	for _, spec := range workload.BlendedGrid(1, workload.PaperLengths) {
		addOrNote(fig, eng, fmt.Sprintf("out %d", spec.Output), float64(spec.Input), spec, throughput)
	}
	return &Output{Figure: fig}, nil
}

func fig2a() (*Output, error) {
	fig := &metrics.Figure{ID: "fig2a", Title: "KV cache on/off (LLaMA-3-70B, Gaudi2 8 HPUs, batch 1)",
		XLabel: "Input/output length", YLabel: "Throughput (tokens/s)"}
	with, err := engine.New(engine.Config{
		Model:     model.MustGet("LLaMA-3-70B"),
		Device:    hw.MustGet("Gaudi2"),
		Framework: framework.MustGet("DeepSpeed"),
		Plan:      tp(8),
	})
	if err != nil {
		return nil, err
	}
	without, err := engine.New(engine.Config{
		Model:          model.MustGet("LLaMA-3-70B"),
		Device:         hw.MustGet("Gaudi2"),
		Framework:      framework.MustGet("DeepSpeed"),
		Plan:           tp(8),
		DisableKVCache: true,
	})
	if err != nil {
		return nil, err
	}
	for _, l := range []int{128, 256, 512, 1024} {
		spec := workload.Spec{Batch: 1, Input: l, Output: l}
		addOrNote(fig, with, "w KV Cache", float64(l), spec, throughput)
		addOrNote(fig, without, "w/o KV Cache", float64(l), spec, throughput)
	}
	return &Output{Figure: fig}, nil
}

func fig2b() (*Output, error) {
	fig := &metrics.Figure{ID: "fig2b", Title: "KV block size vs batch size (LLaMA-3-8B, one A100, len 1024)",
		XLabel: "Batch size", YLabel: "Throughput (tokens/s)"}
	for _, block := range []int{8, 16, 32, 64, 128} {
		eng, err := engine.New(engine.Config{
			Model:         model.MustGet("LLaMA-3-8B"),
			Device:        hw.MustGet("A100"),
			Framework:     framework.MustGet("vLLM"),
			KVBlockTokens: block,
		})
		if err != nil {
			return nil, err
		}
		batchSweep(fig, eng, fmt.Sprintf("block %d", block), workload.PaperBatches, 1024)
	}
	return &Output{Figure: fig}, nil
}

func fig3() (*Output, error) {
	fig := &metrics.Figure{ID: "fig3", Title: "Quantization benchmarking (LLaMA-3-8B, H100 and A100, len 1024)",
		XLabel: "Batch size", YLabel: "Throughput (tokens/s)"}
	for _, combo := range quant.Fig3Combos() {
		eng, err := engine.New(engine.Config{
			Model:     model.MustGet("LLaMA-3-8B"),
			Device:    hw.MustGet(combo.Device),
			Framework: framework.MustGet(combo.Framework),
			Scheme:    combo.Scheme,
		})
		if err != nil {
			return nil, err
		}
		label := fmt.Sprintf("%s, %s, %s", combo.Device, combo.Framework, combo.Scheme)
		batchSweep(fig, eng, label, workload.PaperBatches, 1024)
	}
	return &Output{Figure: fig}, nil
}

func fig4a() (*Output, error) {
	fig := &metrics.Figure{ID: "fig4a", Title: "DeciLM-7B (NAS) vs Mistral-7B vs LLaMA-3-8B, len 1024",
		XLabel: "Batch size", YLabel: "Throughput (tokens/s)"}
	for _, dev := range []string{"H100", "A100"} {
		for _, m := range []string{"DeciLM-7B", "Mistral-7B", "LLaMA-3-8B"} {
			eng, err := mk(m, dev, "TRT-LLM", parallel.Single)
			if err != nil {
				return nil, err
			}
			batchSweep(fig, eng, dev+" "+m, workload.PaperBatches, 1024)
		}
	}
	return &Output{Figure: fig}, nil
}

func fig4b() (*Output, error) {
	fig := &metrics.Figure{ID: "fig4b", Title: "Speculative decoding (one A100, vLLM, batch 1)",
		XLabel: "Input/output length", YLabel: "Throughput (tokens/s)"}
	draft, err := mk("LLaMA-68M", "A100", "vLLM", parallel.Single)
	if err != nil {
		return nil, err
	}
	for _, name := range []string{"LLaMA-2-7B", "Mixtral-8x7B"} {
		plan := parallel.Single
		if name == "Mixtral-8x7B" {
			// Mixtral's 93 GiB of fp16 weights cannot fit one 40 GiB
			// A100; run it tensor-parallel across the node.
			plan = tp(4)
			fig.Note("Mixtral-8x7B uses TP=4 (weights exceed one A100)")
		}
		target, err := mk(name, "A100", "vLLM", plan)
		if err != nil {
			return nil, err
		}
		for _, l := range []int{128, 256, 512, 1024} {
			spec := workload.Spec{Batch: 1, Input: l, Output: l}
			base, err := target.Run(spec)
			if err != nil {
				fig.Note("%s skipped at %d: %v", name, l, err)
				continue
			}
			fig.Add(name+" w/o SD", float64(l), base.Throughput)

			targetStep, err := target.DecodeStepSeconds(1, l+l/2)
			if err != nil {
				return nil, err
			}
			draftStep, err := draft.DecodeStepSeconds(1, l+l/2)
			if err != nil {
				return nil, err
			}
			speedup, err := specdec.Speedup(specdec.Default, targetStep, draftStep,
				model.MustGet(name), l)
			if err != nil {
				return nil, err
			}
			decode := base.E2ESeconds - base.TTFTSeconds
			e2e := base.TTFTSeconds + decode/speedup
			fig.Add(name+" w SD", float64(l), base.Spec.TotalTokens()/e2e)
		}
	}
	return &Output{Figure: fig}, nil
}

func fig5a() (*Output, error) {
	fig := &metrics.Figure{ID: "fig5a", Title: "LLaMA-3-8B parallelism on A100s (batch 64, len 1024)",
		XLabel: "Degree of parallelism", YLabel: "Throughput (tokens/s)"}
	spec := workload.Spec{Batch: 64, Input: 1024, Output: 1024}
	plans := []struct {
		label string
		x     float64
		plan  parallel.Plan
	}{
		{"TP", 1, parallel.Single},
		{"TP", 2, tp(2)},
		{"TP", 4, tp(4)},
		{"PP", 2, parallel.Plan{TP: 1, PP: 2, EP: 1}},
		{"PP", 4, parallel.Plan{TP: 1, PP: 4, EP: 1}},
		{"TP = 2, PP = 2", 4, parallel.Plan{TP: 2, PP: 2, EP: 1}},
	}
	for _, p := range plans {
		eng, err := mk("LLaMA-3-8B", "A100", "TRT-LLM", p.plan)
		if err != nil {
			return nil, err
		}
		addOrNote(fig, eng, p.label, p.x, spec, throughput)
	}
	return &Output{Figure: fig}, nil
}

func fig5b() (*Output, error) {
	fig := &metrics.Figure{ID: "fig5b", Title: "Mixtral-8x7B parallelism on 4 A100s (batch 64)",
		XLabel: "Input/output length", YLabel: "Throughput (tokens/s)"}
	plans := []struct {
		label string
		plan  parallel.Plan
	}{
		{"TP", tp(4)},
		{"PP", parallel.Plan{TP: 1, PP: 4, EP: 1}},
		{"EP", parallel.Plan{TP: 1, PP: 1, EP: 4}},
		{"TP = 2, EP = 2", parallel.Plan{TP: 2, PP: 1, EP: 2}},
	}
	for _, p := range plans {
		eng, err := mk("Mixtral-8x7B", "A100", "TRT-LLM", p.plan)
		if err != nil {
			return nil, err
		}
		for _, l := range []int{128, 256, 512, 1024} {
			addOrNote(fig, eng, p.label, float64(l),
				workload.Spec{Batch: 64, Input: l, Output: l}, throughput)
		}
	}
	return &Output{Figure: fig}, nil
}
