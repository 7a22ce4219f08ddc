package experiments

import (
	"fmt"
	"strings"
)

// AnchorRow is one paper-vs-measured comparison of the `llmbench
// report` table.
type AnchorRow struct {
	Figure   string
	Claim    string
	Paper    string
	Measured string
	Holds    bool
}

// Report regenerates every anchor figure and computes the
// paper-vs-measured table `llmbench report` prints. It is the
// executable form of the reproduction claims.
//
// The figures regenerate concurrently on at most parallelism workers
// (parallelism < 1 means GOMAXPROCS); anchor rows are then computed
// serially from the finished figures, so the output is byte-identical
// at any parallelism.
func Report(parallelism int) ([]AnchorRow, error) {
	var cache map[string]*Output
	get := func(id string) (*Output, error) {
		if out, ok := cache[id]; ok {
			return out, nil
		}
		// Serial fallback for ids outside the prefetch set (a spec
		// whose closure compares against another spec's figure); row
		// computation is already serial, so determinism holds.
		outs, err := RunExperiments([]string{id}, 1)
		if err != nil {
			return nil, err
		}
		cache[id] = outs[0]
		return outs[0], nil
	}
	val := func(id, label string, x float64) (float64, error) {
		out, err := get(id)
		if err != nil {
			return 0, err
		}
		if out.Figure == nil {
			return 0, fmt.Errorf("%s has no figure", id)
		}
		s, err := out.Figure.Get(label)
		if err != nil {
			return 0, err
		}
		return s.At(x)
	}
	ratio := func(id, labelA string, xA float64, labelB string, xB float64) (float64, error) {
		a, err := val(id, labelA, xA)
		if err != nil {
			return 0, err
		}
		b, err := val(id, labelB, xB)
		if err != nil {
			return 0, err
		}
		if b == 0 {
			return 0, fmt.Errorf("%s: zero denominator", id)
		}
		return a / b, nil
	}

	var rows []AnchorRow
	add := func(figure, claim, paper string, measured float64, format string, lo, hi float64) {
		rows = append(rows, AnchorRow{
			Figure:   figure,
			Claim:    claim,
			Paper:    paper,
			Measured: fmt.Sprintf(format, measured),
			Holds:    measured >= lo && measured <= hi,
		})
	}

	type spec struct {
		fig, claim, paper, format string
		lo, hi                    float64
		compute                   func() (float64, error)
	}
	specs := []spec{
		{"fig1a", "batch 64 vs batch 1 throughput at length 2048 (A100, vLLM)", "26.6x", "%.1fx", 10, 45,
			func() (float64, error) { return ratio("fig1a", "len 2048", 64, "len 2048", 1) }},
		{"fig1b", "{1024,128} vs {128,1024} throughput (A100, TRT-LLM, bs 1)", "14.6x", "%.1fx", 5, 22,
			func() (float64, error) { return ratio("fig1b", "out 128", 1024, "out 1024", 128) }},
		{"fig2a", "KV-cache speedup at length 128 (Gaudi2, LLaMA-3-70B)", "~2x", "%.1fx", 1.3, 4.5,
			func() (float64, error) { return ratio("fig2a", "w KV Cache", 128, "w/o KV Cache", 128) }},
		{"fig2a", "KV-cache speedup at length 1024", "~7x", "%.1fx", 3, 15,
			func() (float64, error) { return ratio("fig2a", "w KV Cache", 1024, "w/o KV Cache", 1024) }},
		{"fig2b", "block 16 vs block 8 at batch 64", "1.27x", "%.2fx", 1.05, 1.6,
			func() (float64, error) { return ratio("fig2b", "block 16", 64, "block 8", 64) }},
		{"fig3", "H100 {fp8,fp8} vs {fp16,fp16} at batch 64 (vLLM)", ">1x", "%.2fx", 1.01, 3,
			func() (float64, error) {
				return ratio("fig3", "H100, vLLM, {fp8, fp8}", 64, "H100, vLLM, {fp16, fp16}", 64)
			}},
		{"fig4b", "speculative-decoding gain, LLaMA-2-7B at length 128", ">1x", "%.2fx", 1.01, 3,
			func() (float64, error) { return ratio("fig4b", "LLaMA-2-7B w SD", 128, "LLaMA-2-7B w/o SD", 128) }},
		{"fig4b", "speculative-decoding gain, Mixtral-8x7B at length 256", "<1x", "%.2fx", 0.2, 0.999,
			func() (float64, error) { return ratio("fig4b", "Mixtral-8x7B w SD", 256, "Mixtral-8x7B w/o SD", 256) }},
		{"fig5a", "TP over PP on 4 A100s (LLaMA-3-8B, bs 64)", "1.94x", "%.2fx", 1.4, 2.6,
			func() (float64, error) { return ratio("fig5a", "TP", 4, "PP", 4) }},
		{"fig5a", "TP over hybrid TP=2,PP=2", "1.30x", "%.2fx", 1.05, 1.7,
			func() (float64, error) { return ratio("fig5a", "TP", 4, "TP = 2, PP = 2", 4) }},
		{"fig6", "Mistral-7B (GQA) over LLaMA-2-7B on H100 at bs 64", "~1.9x", "%.2fx", 1.2, 3.2,
			func() (float64, error) { return ratio("fig6", "H100, Mistral-7B", 64, "H100, LLaMA-2-7B", 64) }},
		{"fig6", "Mistral-7B (GQA) over LLaMA-2-7B on A100 at bs 64", "~2.79x", "%.2fx", 1.4, 4.5,
			func() (float64, error) { return ratio("fig6", "A100, Mistral-7B", 64, "A100, LLaMA-2-7B", 64) }},
		{"fig7", "LLaMA-3-70B batch scaling bs1→64 on 4×H100", "39x", "%.1fx", 10, 80,
			func() (float64, error) { return ratio("fig7", "H100 LLaMA-3-70B", 64, "H100 LLaMA-3-70B", 1) }},
		{"fig7", "LLaMA-3-70B batch scaling bs1→64 on 4×A100", "3x", "%.1fx", 1, 15,
			func() (float64, error) { return ratio("fig7", "A100 LLaMA-3-70B", 64, "A100 LLaMA-3-70B", 1) }},
		{"fig7", "H100/A100 batch-scaling contrast (39x / 3x)", "13x", "%.1fx", 2.5, 30,
			func() (float64, error) {
				h, err := ratio("fig7", "H100 LLaMA-3-70B", 64, "H100 LLaMA-3-70B", 1)
				if err != nil {
					return 0, err
				}
				a, err := ratio("fig7", "A100 LLaMA-3-70B", 64, "A100 LLaMA-3-70B", 1)
				if err != nil {
					return 0, err
				}
				return h / a, nil
			}},
		{"fig8", "A100 vs MI250 at bs 16 (vLLM, LLaMA-3-8B)", "'marginally ahead'", "%.2fx", 1.0, 3.2,
			func() (float64, error) { return ratio("fig8", "A100 LLaMA-3-8B", 16, "MI250 LLaMA-3-8B", 16) }},
		{"fig11", "LLaMA-2-7B over LLaMA-3-8B under DS-MII (bs 64, len 128)", "1.18x", "%.2fx", 1.02, 1.6,
			func() (float64, error) { return ratio("fig11", "64 LLaMA-2-7B", 1, "64 LLaMA-3-8B", 1) }},
		{"fig12", "DS-MII over vLLM, Mixtral at bs 64 len 2048 (4×A100)", "1.04x", "%.2fx", 1.0, 1.45,
			func() (float64, error) { return ratio("fig12", "2048 DS-MII", 64, "2048 vLLM", 64) }},
		{"fig13", "llama.cpp batch scaling bs1→64 on A100 ('marginal')", "~2-4x", "%.1fx", 1, 8,
			func() (float64, error) { return ratio("fig13", "A100 LLaMA-2-7B", 64, "A100 LLaMA-2-7B", 1) }},
		{"fig17", "MI250 bs 64 vs bs 32 at length 1024 (declines)", "<1x", "%.2fx", 0.3, 0.999,
			func() (float64, error) { return ratio("fig17", "1 1024", 64, "1 1024", 32) }},
		{"fig18", "SN40L over 4×H100, Mistral-7B at bs 1 len 1024", ">1x", "%.2fx", 1.01, 6,
			func() (float64, error) { return ratio("fig18", "SN40L Mistral-7B", 1024, "H100 Mistral-7B", 1024) }},
		{"fig21", "SN40L TTFT at bs 16, input 1024", "2.85 s", "%.2f s", 1.8, 4.5,
			func() (float64, error) { return val("fig21", "SN40L SambaFlow", 1) }},
		{"fig22", "SN40L ITL vs A100 TRT-LLM (lower is better)", "0.19 vs 1.34 ms", "%.2fx", 2, 60,
			func() (float64, error) { return ratio("fig22", "A100 TRT-LLM", 1, "SN40L SambaFlow", 1) }},
		{"fig23", "H100 over SN40L at bs 64 (crossover)", ">1x", "%.2fx", 1.01, 4,
			func() (float64, error) { return ratio("fig23", "1 H100 TRT-LLM", 64, "8 SN40L SambaFlow", 64) }},
		{"fig25", "H100 peak throughput, LLaMA-3-8B len 1024", "~10k tok/s", "%.0f tok/s", 5000, 20000,
			func() (float64, error) { return val("fig25", "1 H100 (TRT-LLM)", 1) }},
	}
	// Regenerate every distinct anchor figure concurrently, then
	// compute the rows serially from the finished outputs.
	var ids []string
	seen := map[string]bool{}
	for _, s := range specs {
		if !seen[s.fig] {
			seen[s.fig] = true
			ids = append(ids, s.fig)
		}
	}
	outs, err := RunExperiments(ids, parallelism)
	if err != nil {
		return nil, fmt.Errorf("report: %w", err)
	}
	cache = make(map[string]*Output, len(ids))
	for i, id := range ids {
		cache[id] = outs[i]
	}

	for _, s := range specs {
		v, err := s.compute()
		if err != nil {
			return nil, fmt.Errorf("report: %s: %w", s.fig, err)
		}
		add(s.fig, s.claim, s.paper, v, s.format, s.lo, s.hi)
	}
	return rows, nil
}

// ReportMarkdown renders the anchor table, regenerating the anchor
// figures on at most parallelism workers (< 1 means GOMAXPROCS).
func ReportMarkdown(parallelism int) (string, error) {
	rows, err := Report(parallelism)
	if err != nil {
		return "", err
	}
	var b strings.Builder
	b.WriteString("| Figure | Paper claim | Paper value | Measured | Shape holds |\n")
	b.WriteString("|---|---|---|---|---|\n")
	for _, r := range rows {
		check := "yes"
		if !r.Holds {
			check = "**no**"
		}
		fmt.Fprintf(&b, "| %s | %s | %s | %s | %s |\n", r.Figure, r.Claim, r.Paper, r.Measured, check)
	}
	return b.String(), nil
}
