package experiments

// Anchor tests pin the simulation to the quantitative claims the paper
// makes in prose. Each test names the paper statement and asserts the
// reproduced ratio inside a generous shape band — we require the right
// winner and roughly the right factor, not the exact testbed number.
// `llmbench report` prints the measured values next to the paper's.

import (
	"testing"

	"llmbench/internal/metrics"
)

func runFig(t *testing.T, id string) *metrics.Figure {
	t.Helper()
	e, err := Get(id)
	if err != nil {
		t.Fatal(err)
	}
	out, err := e.Run()
	if err != nil {
		t.Fatal(err)
	}
	if out.Figure == nil {
		t.Fatalf("%s has no figure", id)
	}
	return out.Figure
}

func at(t *testing.T, fig *metrics.Figure, label string, x float64) float64 {
	t.Helper()
	s, err := fig.Get(label)
	if err != nil {
		t.Fatalf("%s: %v", fig.ID, err)
	}
	v, err := s.At(x)
	if err != nil {
		t.Fatalf("%s/%s: %v", fig.ID, label, err)
	}
	return v
}

func inBand(t *testing.T, name string, got, lo, hi float64) {
	t.Helper()
	if got < lo || got > hi {
		t.Errorf("%s = %.3g, want in [%g, %g]", name, got, lo, hi)
	}
}

func TestAnchorFig1aBatchScaling(t *testing.T) {
	// "For a batch size of 64, the throughput is 26.6x greater than
	// that of a batch size of 1 for a token length of 2048 on A100."
	fig := runFig(t, "fig1a")
	ratio := at(t, fig, "len 2048", 64) / at(t, fig, "len 2048", 1)
	inBand(t, "fig1a bs64/bs1 at len 2048 (paper 26.6)", ratio, 10, 45)
}

func TestAnchorFig1bBlendedTokens(t *testing.T) {
	// "the throughput for an {input, output} size of {1024, 128} is
	// 14.6 times greater than for {128, 1024}".
	fig := runFig(t, "fig1b")
	ratio := at(t, fig, "out 128", 1024) / at(t, fig, "out 1024", 128)
	inBand(t, "fig1b {1024,128}/{128,1024} (paper 14.6)", ratio, 5, 22)
}

func TestAnchorFig2aKVCache(t *testing.T) {
	// "a substantial improvement (~2x for 128 and ~7x for 1024 length)
	// in throughput with KV caching".
	fig := runFig(t, "fig2a")
	r128 := at(t, fig, "w KV Cache", 128) / at(t, fig, "w/o KV Cache", 128)
	r1024 := at(t, fig, "w KV Cache", 1024) / at(t, fig, "w/o KV Cache", 1024)
	inBand(t, "fig2a KV speedup at 128 (paper ~2)", r128, 1.3, 4.5)
	inBand(t, "fig2a KV speedup at 1024 (paper ~7)", r1024, 3, 15)
	if r1024 <= r128 {
		t.Error("KV-cache benefit must grow with length")
	}
}

func TestAnchorFig2bBlockSize(t *testing.T) {
	// "For a batch size of 64, the throughput for block size 16 is
	// 1.27x greater than block size 8."
	fig := runFig(t, "fig2b")
	ratio := at(t, fig, "block 16", 64) / at(t, fig, "block 8", 64)
	inBand(t, "fig2b block16/block8 at bs64 (paper 1.27)", ratio, 1.05, 1.6)
	// Blocks ≥ 16 equivalent.
	for _, blk := range []string{"block 32", "block 64", "block 128"} {
		r := at(t, fig, blk, 64) / at(t, fig, "block 16", 64)
		inBand(t, "fig2b "+blk+" vs 16", r, 0.97, 1.03)
	}
}

func TestAnchorFig3Quantization(t *testing.T) {
	// "FP8 on H100 and Int8 on A100 can provide performance benefit
	// compared to FP16."
	fig := runFig(t, "fig3")
	h100fp8 := at(t, fig, "H100, vLLM, {fp8, fp8}", 64)
	h100fp16 := at(t, fig, "H100, vLLM, {fp16, fp16}", 64)
	if h100fp8 <= h100fp16 {
		t.Errorf("H100 fp8 (%.0f) must beat fp16 (%.0f)", h100fp8, h100fp16)
	}
	a100int8 := at(t, fig, "A100, TRT-LLM, {int8, int8}", 64)
	a100fp16kv8 := at(t, fig, "A100, TRT-LLM, {fp16, fp8}", 64)
	if a100int8 <= a100fp16kv8 {
		t.Errorf("A100 int8 (%.0f) must beat fp16 weights (%.0f)", a100int8, a100fp16kv8)
	}
}

func TestAnchorFig4aNAS(t *testing.T) {
	// "the performance benefit of DeciLM-7B over LLaMA-3-8B and
	// Mistral-7B on A100 and H100 GPUs".
	fig := runFig(t, "fig4a")
	for _, dev := range []string{"H100", "A100"} {
		deci := at(t, fig, dev+" DeciLM-7B", 64)
		mistral := at(t, fig, dev+" Mistral-7B", 64)
		llama := at(t, fig, dev+" LLaMA-3-8B", 64)
		if !(deci > mistral && mistral > llama) {
			t.Errorf("%s: want DeciLM > Mistral > LLaMA-3-8B, got %.0f / %.0f / %.0f",
				dev, deci, mistral, llama)
		}
	}
}

func TestAnchorFig4bSpeculativeDecoding(t *testing.T) {
	// "SD improves the performance of only the 7B model" and the
	// benefit shrinks with sequence length.
	fig := runFig(t, "fig4b")
	g128 := at(t, fig, "LLaMA-2-7B w SD", 128) / at(t, fig, "LLaMA-2-7B w/o SD", 128)
	g1024 := at(t, fig, "LLaMA-2-7B w SD", 1024) / at(t, fig, "LLaMA-2-7B w/o SD", 1024)
	if g128 <= 1 {
		t.Errorf("SD must help LLaMA-2-7B at 128, gain = %.2f", g128)
	}
	if g1024 >= g128 {
		t.Errorf("SD gain must shrink with length: %.2f -> %.2f", g128, g1024)
	}
	m := at(t, fig, "Mixtral-8x7B w SD", 256) / at(t, fig, "Mixtral-8x7B w/o SD", 256)
	if m >= 1 {
		t.Errorf("SD must not help Mixtral, gain = %.2f", m)
	}
}

func TestAnchorFig5aParallelism(t *testing.T) {
	// "TP is 1.30x faster than the hybrid approach (TP=2,PP=2) and
	// 1.94x faster than PP on 4 A100 GPUs using LLaMA-3-8B."
	fig := runFig(t, "fig5a")
	tp4 := at(t, fig, "TP", 4)
	pp4 := at(t, fig, "PP", 4)
	hy := at(t, fig, "TP = 2, PP = 2", 4)
	inBand(t, "fig5a TP/PP (paper 1.94)", tp4/pp4, 1.4, 2.6)
	inBand(t, "fig5a TP/hybrid (paper 1.30)", tp4/hy, 1.05, 1.7)
}

func TestAnchorFig5bEP(t *testing.T) {
	// Fig. 5b: TP best; PP worst; EP and hybrid in between.
	fig := runFig(t, "fig5b")
	tp := at(t, fig, "TP", 1024)
	pp := at(t, fig, "PP", 1024)
	ep := at(t, fig, "EP", 1024)
	if !(tp > ep && ep > pp) {
		t.Errorf("want TP > EP > PP at len 1024, got %.0f / %.0f / %.0f", tp, ep, pp)
	}
}

func TestAnchorFig6GQAAndGenerations(t *testing.T) {
	// "GQA models (Mistral-7B and LLaMA-3-8B) are approximately 1.9x
	// and 2.79x faster than LLaMA-2-7B on H100 and A100, respectively,
	// for batch size 64", and GH200 > H100 > A100.
	fig := runFig(t, "fig6")
	h := at(t, fig, "H100, Mistral-7B", 64) / at(t, fig, "H100, LLaMA-2-7B", 64)
	a := at(t, fig, "A100, Mistral-7B", 64) / at(t, fig, "A100, LLaMA-2-7B", 64)
	inBand(t, "fig6 GQA/MHSA on H100 (paper 1.9)", h, 1.2, 3.2)
	inBand(t, "fig6 GQA/MHSA on A100 (paper 2.79)", a, 1.4, 4.5)
	if a <= 1 || h <= 1 {
		t.Error("GQA must win under TRT-LLM at batch 64")
	}
	for _, m := range []string{"Mistral-7B", "LLaMA-3-8B", "LLaMA-2-7B"} {
		gh := at(t, fig, "GH200, "+m, 64)
		h1 := at(t, fig, "H100, "+m, 64)
		a1 := at(t, fig, "A100, "+m, 64)
		if !(gh > h1 && h1 > a1) {
			t.Errorf("%s: want GH200 > H100 > A100, got %.0f / %.0f / %.0f", m, gh, h1, a1)
		}
	}
}

func TestAnchorFig7MoEAnd70B(t *testing.T) {
	// "The Mixtral model outperforms 70B models, whereas LLaMA-2-70B
	// outperforms LLaMA-3-70B"; "throughput of LLaMA-3-70B on H100
	// improves by a factor of 39x when increasing the batch size from
	// 1 to 64 as opposed to 3x on A100".
	fig := runFig(t, "fig7")
	for _, dev := range []string{"H100", "A100"} {
		mix := at(t, fig, dev+" Mixtral-8x7B", 64)
		l3 := at(t, fig, dev+" LLaMA-3-70B", 64)
		l2 := at(t, fig, dev+" LLaMA-2-70B", 64)
		if !(mix > l2 && l2 > l3) {
			t.Errorf("%s: want Mixtral > LLaMA-2-70B > LLaMA-3-70B, got %.0f / %.0f / %.0f",
				dev, mix, l2, l3)
		}
	}
	hScale := at(t, fig, "H100 LLaMA-3-70B", 64) / at(t, fig, "H100 LLaMA-3-70B", 1)
	aScale := at(t, fig, "A100 LLaMA-3-70B", 64) / at(t, fig, "A100 LLaMA-3-70B", 1)
	if hScale <= 2.5*aScale {
		t.Errorf("H100 must scale far better with batch than A100 (paper 39x vs 3x): %.1f vs %.1f",
			hScale, aScale)
	}
}

func TestAnchorFig8GH200Best(t *testing.T) {
	// "vLLM on GH200 consistently achieves the highest throughput
	// across all batch sizes, and H100 is the second-best".
	fig := runFig(t, "fig8")
	for _, b := range []float64{1, 16, 32, 64} {
		gh := at(t, fig, "GH200 LLaMA-3-8B", b)
		h := at(t, fig, "H100 LLaMA-3-8B", b)
		a := at(t, fig, "A100 LLaMA-3-8B", b)
		if !(gh > h && h > a) {
			t.Errorf("batch %g: want GH200 > H100 > A100, got %.0f / %.0f / %.0f", b, gh, h, a)
		}
	}
	// "A100 and MI250 show similar performance ... with A100
	// marginally ahead."
	a := at(t, fig, "A100 LLaMA-3-8B", 16)
	mi := at(t, fig, "MI250 LLaMA-3-8B", 16)
	if a <= mi {
		t.Errorf("A100 (%.0f) must be marginally ahead of MI250 (%.0f)", a, mi)
	}
	inBand(t, "fig8 A100/MI250 at bs16 ('similar')", a/mi, 1, 3.2)
}

func TestAnchorFig9Vocab70B(t *testing.T) {
	// "LLaMA-2-70B is faster than LLaMA-3-70B and Qwen-2-72B. Also,
	// the Mixtral-8x7B model performs better than the 70B models."
	fig := runFig(t, "fig9")
	l2 := at(t, fig, "H100 LLaMA-2-70B", 64)
	l3 := at(t, fig, "H100 LLaMA-3-70B", 64)
	qw := at(t, fig, "H100 Qwen2-72B", 64)
	if !(l2 > l3 && l3 >= qw*0.95) {
		t.Errorf("want LLaMA-2-70B > LLaMA-3-70B ≳ Qwen2-72B, got %.0f / %.0f / %.0f", l2, l3, qw)
	}
	mix := at(t, fig, "A100 Mixtral-8x7B", 64)
	if mix <= at(t, fig, "A100 LLaMA-2-70B", 64) {
		t.Error("Mixtral must beat the dense 70Bs on A100")
	}
}

func TestAnchorFig10Scatter(t *testing.T) {
	// "LLaMA-2-7B has better perplexity than LLaMA-3-8B and
	// Mistral-7B"; "DeciLM-7B has the highest throughput"; "Gemma-7B
	// has the lowest throughput".
	fig := runFig(t, "fig10")
	best := ""
	bestPPL := 1e9
	var deciTPS, maxTPS, gemmaTPS float64
	minTPS := 1e18
	for _, s := range fig.Series {
		p := s.Points[0]
		if p.X < bestPPL {
			bestPPL = p.X
			best = s.Label
		}
		if s.Label == "DeciLM-7B" {
			deciTPS = p.Y
		}
		if s.Label == "Gemma-7B" {
			gemmaTPS = p.Y
		}
		if p.Y > maxTPS {
			maxTPS = p.Y
		}
		if p.Y < minTPS {
			minTPS = p.Y
		}
	}
	if best != "LLaMA-2-7B" {
		t.Errorf("best perplexity model = %s, want LLaMA-2-7B", best)
	}
	if deciTPS < maxTPS {
		t.Errorf("DeciLM-7B (%.0f) must have the highest throughput (max %.0f)", deciTPS, maxTPS)
	}
	if gemmaTPS > minTPS {
		t.Errorf("Gemma-7B (%.0f) must have the lowest throughput (min %.0f)", gemmaTPS, minTPS)
	}
}

func TestAnchorFig11DSMII(t *testing.T) {
	// "On a single A100 GPU, LLaMA-2-7B is 1.18 times faster than
	// LLaMA-3-8B for a batch size of 64 and input/output length of
	// 128" under DS-MII.
	fig := runFig(t, "fig11")
	ratio := at(t, fig, "64 LLaMA-2-7B", 1) / at(t, fig, "64 LLaMA-3-8B", 1)
	inBand(t, "fig11 LLaMA-2/LLaMA-3 under DS-MII (paper 1.18)", ratio, 1.02, 1.6)
	// 7B models scale across 1, 2, 4 devices.
	if at(t, fig, "64 LLaMA-2-7B", 4) <= at(t, fig, "64 LLaMA-2-7B", 1) {
		t.Error("DS-MII must scale with GPUs")
	}
}

func TestAnchorFig12DSMIIMixtral(t *testing.T) {
	// "DS-MII is 1.04x faster than vLLM for batch size 64 and
	// input/output length 2048" (Mixtral, 4×A100); TRT-LLM best
	// overall.
	fig := runFig(t, "fig12")
	ds := at(t, fig, "2048 DS-MII", 64)
	vl := at(t, fig, "2048 vLLM", 64)
	inBand(t, "fig12 DS-MII/vLLM at bs64 len2048 (paper 1.04)", ds/vl, 1.0, 1.45)
	trt := at(t, fig, "2048 TRT-LLM", 64)
	if trt <= ds {
		t.Errorf("TRT-LLM (%.0f) must stay fastest (DS-MII %.0f)", trt, ds)
	}
}

func TestAnchorFig13LlamaCppFlat(t *testing.T) {
	// llama.cpp shows only "marginal performance benefits" with batch.
	fig := runFig(t, "fig13")
	for _, dev := range []string{"A100", "H100", "MI250"} {
		r := at(t, fig, dev+" LLaMA-2-7B", 64) / at(t, fig, dev+" LLaMA-2-7B", 1)
		inBand(t, "fig13 "+dev+" llama.cpp bs64/bs1", r, 1, 8)
	}
	// And absolute throughput far below the optimized frameworks
	// (Fig. 13 y-axis tops out around 200 tokens/s).
	if v := at(t, fig, "H100 LLaMA-2-7B", 64); v > 700 {
		t.Errorf("llama.cpp H100 throughput %.0f implausibly high", v)
	}
}

func TestAnchorFig15FrameworkOrder(t *testing.T) {
	// "TRT-LLM outperforms vLLM and DS-MII on Nvidia hardware …
	// llama.cpp is the slowest of the frameworks."
	fig := runFig(t, "fig15")
	for _, m := range []string{"Mistral-7B", "LLaMA-3-8B"} {
		trt := at(t, fig, "TRT-LLM "+m, 64)
		vl := at(t, fig, "vLLM "+m, 64)
		ds := at(t, fig, "DS-MII "+m, 64)
		lc := at(t, fig, "llama.cpp "+m, 64)
		if !(trt > vl && vl > ds && ds > lc) {
			t.Errorf("%s: want TRT > vLLM > DS-MII > llama.cpp, got %.0f / %.0f / %.0f / %.0f",
				m, trt, vl, ds, lc)
		}
	}
}

func TestAnchorFig16Power(t *testing.T) {
	// "TRT-LLM consumes more power than vLLM due to more utilization
	// of the hardware and delivers more performance per watt"; "the
	// performance per watt ratio for LLaMA-3-8B … is higher than
	// LLaMA-2-7B".
	fig := runFig(t, "fig16")
	for _, dev := range []string{"H100", "A100"} {
		trtW := at(t, fig, dev+" TRT-LLM LLaMA-3-8B [W]", 64)
		vlW := at(t, fig, dev+" vLLM LLaMA-3-8B [W]", 64)
		if trtW <= vlW {
			t.Errorf("%s: TRT-LLM power %.0f must exceed vLLM %.0f", dev, trtW, vlW)
		}
		trtE := at(t, fig, dev+" TRT-LLM LLaMA-3-8B [tok/s/W]", 64)
		vlE := at(t, fig, dev+" vLLM LLaMA-3-8B [tok/s/W]", 64)
		if trtE <= vlE {
			t.Errorf("%s: TRT-LLM perf/W %.2f must exceed vLLM %.2f", dev, trtE, vlE)
		}
		l3 := at(t, fig, dev+" TRT-LLM LLaMA-3-8B [tok/s/W]", 64)
		l2 := at(t, fig, dev+" TRT-LLM LLaMA-2-7B [tok/s/W]", 64)
		if l3 <= l2 {
			t.Errorf("%s: LLaMA-3-8B perf/W %.2f must exceed LLaMA-2-7B %.2f", dev, l3, l2)
		}
	}
}

func TestAnchorFig17MI250Saturation(t *testing.T) {
	// "The throughput of LLaMA-3-8B drops beyond batch size 32 with an
	// increase in input/output length."
	fig := runFig(t, "fig17")
	if at(t, fig, "1 1024", 64) >= at(t, fig, "1 1024", 32) {
		t.Error("MI250 single-GPU throughput must drop from bs32 to bs64 at len 1024")
	}
	if at(t, fig, "1 128", 64) <= at(t, fig, "1 128", 32) {
		t.Error("MI250 must still scale at len 128")
	}
}

func TestAnchorFig18SN40LBest(t *testing.T) {
	// SN40L (8 RDUs) beats 4×H100 and 4×A100 for 7B at batch 1, and
	// its throughput rises with length until ~512.
	fig := runFig(t, "fig18")
	for _, m := range []string{"Mistral-7B", "LLaMA-3-8B"} {
		sn := at(t, fig, "SN40L "+m, 1024)
		h := at(t, fig, "H100 "+m, 1024)
		a := at(t, fig, "A100 "+m, 1024)
		if !(sn > h && h > a) {
			t.Errorf("%s: want SN40L > H100 > A100 at len 1024, got %.0f / %.0f / %.0f", m, sn, h, a)
		}
	}
	if at(t, fig, "SN40L Mistral-7B", 512) <= at(t, fig, "SN40L Mistral-7B", 128) {
		t.Error("SN40L throughput must rise with length till 512")
	}
}

func TestAnchorFig19SN40L70B(t *testing.T) {
	fig := runFig(t, "fig19")
	sn := at(t, fig, "SN40L LLaMA-3-70B", 1024)
	h := at(t, fig, "H100 LLaMA-3-70B", 1024)
	if sn <= h {
		t.Errorf("SN40L (%.0f) must beat 4×H100 (%.0f) for 70B at batch 1", sn, h)
	}
}

func TestAnchorFig20Gaudi2Between(t *testing.T) {
	// "The throughput of Gaudi2 is better than A100 … lagging behind
	// H100."
	fig := runFig(t, "fig20")
	for _, m := range []string{"Mistral-7B", "LLaMA-3-8B", "LLaMA-2-7B"} {
		h := at(t, fig, "H100 TRT-LLM "+m, 16)
		g := at(t, fig, "Gaudi2 DeepSpeed "+m, 16)
		a := at(t, fig, "A100 TRT-LLM "+m, 16)
		if !(h > g && g > a) {
			t.Errorf("%s: want H100 > Gaudi2 > A100 at bs16, got %.0f / %.0f / %.0f", m, h, g, a)
		}
	}
}

func TestAnchorFig21TTFT(t *testing.T) {
	// "SN40L exhibits higher TTFT compared to other hardware" —
	// around 2.85 s at batch 16, input 1024, vs hundreds of ms on
	// GPUs.
	fig := runFig(t, "fig21")
	sn := at(t, fig, "SN40L SambaFlow", 1)
	inBand(t, "fig21 SN40L TTFT (paper 2.85 s)", sn, 1.8, 4.5)
	for _, c := range []string{"GH200 TRT-LLM", "H100 TRT-LLM", "A100 TRT-LLM"} {
		v := at(t, fig, c, 1)
		if v >= sn {
			t.Errorf("%s TTFT %.2f must be far below SN40L %.2f", c, v, sn)
		}
		if v <= 0 || v > 1.5 {
			t.Errorf("%s TTFT %.2f outside GPU band", c, v)
		}
	}
	gh := at(t, fig, "GH200 TRT-LLM", 1)
	a := at(t, fig, "A100 TRT-LLM", 1)
	if gh >= a {
		t.Errorf("GH200 TTFT %.3f must beat A100 %.3f", gh, a)
	}
}

func TestAnchorFig22ITL(t *testing.T) {
	// "it demonstrates lower ITL, indicating faster token generation
	// after the initial output" (SN40L), and A100-class ITL is the
	// worst among the TRT-LLM rows.
	fig := runFig(t, "fig22")
	sn := at(t, fig, "SN40L SambaFlow", 1)
	for _, c := range []string{"GH200 TRT-LLM", "H100 TRT-LLM", "A100 TRT-LLM", "A100 vLLM", "MI250 vLLM"} {
		if v := at(t, fig, c, 1); v <= sn {
			t.Errorf("%s ITL %.3f must exceed SN40L %.3f", c, v, sn)
		}
	}
	if at(t, fig, "A100 TRT-LLM", 1) <= at(t, fig, "H100 TRT-LLM", 1) {
		t.Error("A100 ITL must exceed H100 ITL")
	}
}

func TestAnchorFig23CrossoverAtBatch64(t *testing.T) {
	// "SN40L has the best performance up to batch size 32" for
	// LLaMA-3-8B; at 64 the big NVIDIA parts take over.
	fig := runFig(t, "fig23")
	for _, b := range []float64{1, 16, 32} {
		sn := at(t, fig, "8 SN40L SambaFlow", b)
		for _, c := range []string{"1 GH200 TRT-LLM", "1 H100 TRT-LLM", "1 A100 TRT-LLM", "1 MI250 vLLM"} {
			if at(t, fig, c, b) >= sn {
				t.Errorf("batch %g: %s must trail SN40L", b, c)
			}
		}
	}
	sn64 := at(t, fig, "8 SN40L SambaFlow", 64)
	h64 := at(t, fig, "1 H100 TRT-LLM", 64)
	if h64 <= sn64 {
		t.Errorf("at batch 64 H100 (%.0f) must overtake SN40L (%.0f)", h64, sn64)
	}
}

func TestAnchorFig25Peak(t *testing.T) {
	// Peak-throughput ordering: H100 and GH200 at the top (~10k
	// tokens/s), MI250 at the bottom.
	fig := runFig(t, "fig25")
	h := at(t, fig, "1 H100 (TRT-LLM)", 1) // LLaMA-3-8B column
	mi := at(t, fig, "1 MI250 (vLLM)", 1)
	a := at(t, fig, "1 A100 (TRT-LLM)", 1)
	if !(h > a && a > mi) {
		t.Errorf("want H100 > A100 > MI250 peaks, got %.0f / %.0f / %.0f", h, a, mi)
	}
	inBand(t, "fig25 H100 peak (paper ~10k tokens/s)", h, 5000, 20000)
}

func TestAnchorFig35MI250PeakAt32(t *testing.T) {
	// "Qwen2-7B, Mistral-7B and LLaMA-3-8B models attain their peak
	// performance at batch size 32 and decline for batch size 64.
	// However, LLaMA-2-7B achieves the highest throughput … at batch
	// size 64."
	fig := runFig(t, "fig35")
	for _, m := range []string{"Qwen2-7B", "Mistral-7B", "LLaMA-3-8B"} {
		if at(t, fig, m, 64) >= at(t, fig, m, 32) {
			t.Errorf("%s on MI250 must peak at batch 32", m)
		}
	}
}

func TestAnchorFig36LlamaCppMI250(t *testing.T) {
	// "LLaMA-2-7B using llama.cpp on MI250 attains the best
	// performance across all batch sizes compared to other models."
	fig := runFig(t, "fig36")
	for _, b := range []float64{1, 16, 32, 64} {
		l2 := at(t, fig, "LLaMA-2-7B", b)
		for _, m := range []string{"Mistral-7B", "LLaMA-3-8B", "Qwen2-7B"} {
			if at(t, fig, m, b) > l2 {
				t.Errorf("batch %g: %s must not beat LLaMA-2-7B under llama.cpp", b, m)
			}
		}
	}
}

func TestAnchorFig38Gaudi70B(t *testing.T) {
	// "the performance of Gaudi2 lies between H100 and A100 across all
	// the models."
	fig := runFig(t, "fig38")
	for _, m := range []string{"LLaMA-2-70B", "LLaMA-3-70B"} {
		h := at(t, fig, "H100 TRT-LLM "+m, 16)
		g := at(t, fig, "Gaudi2 DeepSpeed "+m, 16)
		a := at(t, fig, "A100 TRT-LLM "+m, 16)
		if !(h > g && g > a) {
			t.Errorf("%s: want H100 > Gaudi2 > A100 at bs16, got %.0f / %.0f / %.0f", m, h, g, a)
		}
	}
}
