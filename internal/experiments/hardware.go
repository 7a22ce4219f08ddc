package experiments

import (
	"fmt"

	"llmbench/internal/engine"
	"llmbench/internal/metrics"
	"llmbench/internal/parallel"
	"llmbench/internal/workload"
)

func init() {
	register(&Experiment{
		ID:       "fig15",
		Title:    "Framework comparison of ~7B models on one A100 (len 1024)",
		Workload: "TRT-LLM/vLLM/DS-MII/llama.cpp × 3 models × batch {1,16,32,64}",
		Modules:  []string{"engine", "framework"},
		Run:      fig15,
	})
	register(&Experiment{
		ID:       "fig16",
		Title:    "Power and throughput-per-watt on NVIDIA GPUs (len 1024)",
		Workload: "GH200/H100/A100 × vLLM/TRT-LLM × LLaMA-2-7B/LLaMA-3-8B",
		Modules:  []string{"power", "engine"},
		Run:      fig16,
	})
	register(&Experiment{
		ID:       "fig17",
		Title:    "vLLM on MI250: LLaMA-3-8B batch/length sweep",
		Workload: "GPUs {1,4} × length {128..2048} × batch {1,16,32,64}",
		Modules:  []string{"engine", "hw"},
		Run:      fig17,
	})
	register(&Experiment{
		ID:       "fig18",
		Title:    "8 SN40L RDUs vs 4 H100 vs 4 A100: 7B models, batch 1",
		Workload: "length {128..2048}",
		Modules:  []string{"engine", "hw"},
		Run:      fig18,
	})
	register(&Experiment{
		ID:       "fig19",
		Title:    "8 SN40L RDUs vs 4 H100 vs 4 A100: LLaMA-3-70B, batch 1",
		Workload: "length {128..2048}",
		Modules:  []string{"engine", "hw"},
		Run:      fig19,
	})
	register(&Experiment{
		ID:       "fig20",
		Title:    "Gaudi2 vs H100 and A100: 7B models (len 1024)",
		Workload: "batch {16,32}",
		Modules:  []string{"engine", "hw"},
		Run:      fig20,
	})
	register(&Experiment{
		ID:       "fig21",
		Title:    "Time to first token (batch 16, input 1024)",
		Workload: "10 hardware/framework combos × 3 models",
		Modules:  []string{"engine"},
		Run:      fig21,
	})
	register(&Experiment{
		ID:       "fig22",
		Title:    "Inter-token latency (batch 16, input/output 1024)",
		Workload: "10 hardware/framework combos × 3 models",
		Modules:  []string{"engine"},
		Run:      fig22,
	})
	register(&Experiment{
		ID:       "fig23",
		Title:    "LLaMA-3-8B across accelerators vs batch size (len 1024)",
		Workload: "batch {1,16,32,64}, 7 accelerator/framework combos",
		Modules:  []string{"engine", "hw"},
		Run:      fig23,
	})
	register(&Experiment{
		ID:       "fig24",
		Title:    "LLaMA-3-8B across accelerators vs input/output length (batch 16)",
		Workload: "length {128..2048}, 7 accelerator/framework combos",
		Modules:  []string{"engine", "hw"},
		Run:      fig24,
	})
	register(&Experiment{
		ID:       "fig25",
		Title:    "Peak throughput per accelerator for 7B models (len 1024)",
		Workload: "max over batch {16,32,64} per model × accelerator",
		Modules:  []string{"engine"},
		Run:      fig25,
	})
}

func fig15() (*Output, error) {
	fig := &metrics.Figure{ID: "fig15", Title: "Framework comparison on one A100 (len 1024)",
		XLabel: "Batch size", YLabel: "Throughput (tokens/s)"}
	for _, fw := range []string{"TRT-LLM", "vLLM", "DS-MII", "llama.cpp"} {
		for _, m := range models7B {
			eng, err := mk(m, "A100", fw, parallel.Single)
			if err != nil {
				return nil, err
			}
			batchSweep(fig, eng, fw+" "+m, workload.PaperBatches, 1024)
		}
	}
	return &Output{Figure: fig}, nil
}

func fig16() (*Output, error) {
	fig := &metrics.Figure{ID: "fig16", Title: "Power and throughput per watt on NVIDIA GPUs (len 1024)",
		XLabel: "Batch size", YLabel: "Watts / tokens-per-sec-per-watt"}
	for _, dev := range []string{"GH200", "H100", "A100"} {
		for _, fw := range []string{"vLLM", "TRT-LLM"} {
			for _, m := range []string{"LLaMA-2-7B", "LLaMA-3-8B"} {
				eng, err := mk(m, dev, fw, parallel.Single)
				if err != nil {
					return nil, err
				}
				base := fmt.Sprintf("%s %s %s", dev, fw, m)
				for _, b := range workload.PaperBatches {
					spec := workload.Spec{Batch: b, Input: 1024, Output: 1024}
					addOrNote(fig, eng, base+" [W]", float64(b), spec,
						func(r engine.Result) float64 { return r.AvgPowerWatts })
					addOrNote(fig, eng, base+" [tok/s/W]", float64(b), spec,
						func(r engine.Result) float64 { return r.TokensPerSecPerW })
				}
			}
		}
	}
	return &Output{Figure: fig}, nil
}

func fig17() (*Output, error) {
	fig := &metrics.Figure{ID: "fig17", Title: "vLLM on MI250: LLaMA-3-8B (fp16)",
		XLabel: "Batch size", YLabel: "Throughput (tokens/s)"}
	for _, gpus := range []int{1, 4} {
		eng, err := mk("LLaMA-3-8B", "MI250", "vLLM", tp(gpus))
		if err != nil {
			return nil, err
		}
		for _, l := range workload.PaperLengths {
			batchSweep(fig, eng, fmt.Sprintf("%d %d", gpus, l), workload.PaperBatches, l)
		}
	}
	return &Output{Figure: fig}, nil
}

func fig18() (*Output, error) {
	fig := &metrics.Figure{ID: "fig18", Title: "SN40L (8 RDUs, bf16) vs 4×H100 vs 4×A100: 7B models, batch 1",
		XLabel: "Input/output length", YLabel: "Throughput (tokens/s)"}
	combos := []struct {
		dev, fw string
		plan    parallel.Plan
	}{
		{"SN40L", "SambaFlow", tp(8)},
		{"H100", "TRT-LLM", tp(4)},
		{"A100", "TRT-LLM", tp(4)},
	}
	for _, c := range combos {
		for _, m := range models7B {
			eng, err := mk(m, c.dev, c.fw, c.plan)
			if err != nil {
				return nil, err
			}
			lengthSweep(fig, eng, c.dev+" "+m, workload.PaperLengths, 1)
		}
	}
	return &Output{Figure: fig}, nil
}

func fig19() (*Output, error) {
	fig := &metrics.Figure{ID: "fig19", Title: "SN40L (8 RDUs) vs 4×H100 vs 4×A100: LLaMA-3-70B, batch 1",
		XLabel: "Input/output length", YLabel: "Throughput (tokens/s)"}
	combos := []struct {
		dev, fw string
		plan    parallel.Plan
	}{
		{"SN40L", "SambaFlow", tp(8)},
		{"H100", "TRT-LLM", tp(4)},
		{"A100", "TRT-LLM", tp(4)},
	}
	for _, c := range combos {
		eng, err := mk("LLaMA-3-70B", c.dev, c.fw, c.plan)
		if err != nil {
			return nil, err
		}
		lengthSweep(fig, eng, c.dev+" LLaMA-3-70B", workload.PaperLengths, 1)
	}
	return &Output{Figure: fig}, nil
}

func fig20() (*Output, error) {
	fig := &metrics.Figure{ID: "fig20", Title: "Gaudi2 vs H100 and A100: 7B models (len 1024)",
		XLabel: "Batch size", YLabel: "Throughput (tokens/s)"}
	combos := []struct {
		dev, fw string
		models  []string
	}{
		{"H100", "TRT-LLM", []string{"Qwen2-7B", "Mistral-7B", "LLaMA-3-8B", "LLaMA-2-7B"}},
		{"Gaudi2", "DeepSpeed", []string{"Qwen2-7B", "Mistral-7B", "LLaMA-3-8B", "LLaMA-2-7B"}},
		{"A100", "TRT-LLM", []string{"Mistral-7B", "LLaMA-3-8B", "LLaMA-2-7B"}},
	}
	for _, c := range combos {
		for _, m := range c.models {
			eng, err := mk(m, c.dev, c.fw, parallel.Single)
			if err != nil {
				return nil, err
			}
			batchSweep(fig, eng, c.dev+" "+c.fw+" "+m, []int{16, 32}, 1024)
		}
	}
	return &Output{Figure: fig}, nil
}

// latencyCombos is the hardware/framework legend shared by Figs. 21
// and 22.
func latencyCombos() []struct {
	dev, fw string
	plan    parallel.Plan
} {
	return []struct {
		dev, fw string
		plan    parallel.Plan
	}{
		{"GH200", "TRT-LLM", parallel.Single},
		{"GH200", "vLLM", parallel.Single},
		{"H100", "TRT-LLM", parallel.Single},
		{"H100", "vLLM", parallel.Single},
		{"SN40L", "SambaFlow", tp(8)},
		{"A100", "TRT-LLM", parallel.Single},
		{"A100", "vLLM", parallel.Single},
		{"A100", "DS-MII", parallel.Single},
		{"MI250", "vLLM", parallel.Single},
		{"MI300X", "vLLM", parallel.Single},
	}
}

func fig21() (*Output, error) {
	fig := &metrics.Figure{ID: "fig21", Title: "TTFT for batch 16 and input 1024",
		XLabel: "Model (0=LLaMA-2-7B, 1=LLaMA-3-8B, 2=Mistral-7B)", YLabel: "TTFT (s)"}
	for _, c := range latencyCombos() {
		for i, m := range []string{"LLaMA-2-7B", "LLaMA-3-8B", "Mistral-7B"} {
			eng, err := mk(m, c.dev, c.fw, c.plan)
			if err != nil {
				return nil, err
			}
			addOrNote(fig, eng, c.dev+" "+c.fw, float64(i),
				workload.Spec{Batch: 16, Input: 1024, Output: 1},
				func(r engine.Result) float64 { return r.TTFTSeconds })
		}
	}
	return &Output{Figure: fig}, nil
}

func fig22() (*Output, error) {
	fig := &metrics.Figure{ID: "fig22", Title: "ITL for batch 16 and input/output 1024",
		XLabel: "Model (0=LLaMA-2-7B, 1=LLaMA-3-8B, 2=Mistral-7B)", YLabel: "ITL (ms)"}
	for _, c := range latencyCombos() {
		for i, m := range []string{"LLaMA-2-7B", "LLaMA-3-8B", "Mistral-7B"} {
			eng, err := mk(m, c.dev, c.fw, c.plan)
			if err != nil {
				return nil, err
			}
			addOrNote(fig, eng, c.dev+" "+c.fw, float64(i),
				workload.Spec{Batch: 16, Input: 1024, Output: 1024},
				func(r engine.Result) float64 { return r.ITLSeconds * 1000 })
		}
	}
	return &Output{Figure: fig}, nil
}

// acceleratorCombos is the legend of Figs. 23 and 24.
func acceleratorCombos() []struct {
	dev, fw string
	plan    parallel.Plan
} {
	return []struct {
		dev, fw string
		plan    parallel.Plan
	}{
		{"SN40L", "SambaFlow", tp(8)},
		{"GH200", "TRT-LLM", parallel.Single},
		{"H100", "TRT-LLM", parallel.Single},
		{"Gaudi2", "DeepSpeed", parallel.Single},
		{"A100", "TRT-LLM", parallel.Single},
		{"MI250", "vLLM", parallel.Single},
		{"MI300X", "vLLM", parallel.Single},
	}
}

func fig23() (*Output, error) {
	fig := &metrics.Figure{ID: "fig23", Title: "LLaMA-3-8B across accelerators (len 1024)",
		XLabel: "Batch size", YLabel: "Throughput (tokens/s)"}
	for _, c := range acceleratorCombos() {
		eng, err := mk("LLaMA-3-8B", c.dev, c.fw, c.plan)
		if err != nil {
			return nil, err
		}
		batchSweep(fig, eng, fmt.Sprintf("%d %s %s", c.plan.Devices(), c.dev, c.fw),
			workload.PaperBatches, 1024)
	}
	return &Output{Figure: fig}, nil
}

func fig24() (*Output, error) {
	fig := &metrics.Figure{ID: "fig24", Title: "LLaMA-3-8B across accelerators (batch 16)",
		XLabel: "Input/output length", YLabel: "Throughput (tokens/s)"}
	for _, c := range acceleratorCombos() {
		eng, err := mk("LLaMA-3-8B", c.dev, c.fw, c.plan)
		if err != nil {
			return nil, err
		}
		lengthSweep(fig, eng, fmt.Sprintf("%d %s %s", c.plan.Devices(), c.dev, c.fw),
			workload.PaperLengths, 16)
	}
	return &Output{Figure: fig}, nil
}

func fig25() (*Output, error) {
	fig := &metrics.Figure{ID: "fig25", Title: "Peak throughput for input/output 1024",
		XLabel: "Model (0=Mistral-7B, 1=LLaMA-3-8B, 2=LLaMA-2-7B)", YLabel: "Throughput (tokens/s)"}
	combos := []struct {
		dev, fw string
		plan    parallel.Plan
	}{
		{"MI250", "vLLM", parallel.Single},
		{"MI300X", "vLLM", parallel.Single},
		{"A100", "TRT-LLM", parallel.Single},
		{"Gaudi2", "DeepSpeed", parallel.Single},
		{"SN40L", "SambaFlow", tp(8)},
		{"GH200", "TRT-LLM", parallel.Single},
		{"H100", "TRT-LLM", parallel.Single},
	}
	for _, c := range combos {
		for i, m := range []string{"Mistral-7B", "LLaMA-3-8B", "LLaMA-2-7B"} {
			eng, err := mk(m, c.dev, c.fw, c.plan)
			if err != nil {
				return nil, err
			}
			best := 0.0
			bestBatch := 0
			for _, b := range []int{16, 32, 64} {
				res, err := eng.Run(workload.Spec{Batch: b, Input: 1024, Output: 1024})
				if err != nil {
					continue
				}
				if res.Throughput > best {
					best = res.Throughput
					bestBatch = b
				}
			}
			if best == 0 {
				fig.Note("%s %s: no batch fit for %s", c.dev, c.fw, m)
				continue
			}
			fig.Add(fmt.Sprintf("%d %s (%s)", c.plan.Devices(), c.dev, c.fw), float64(i), best)
			fig.Note("%s on %s peaks at batch %d", m, c.dev, bestBatch)
		}
	}
	return &Output{Figure: fig}, nil
}
