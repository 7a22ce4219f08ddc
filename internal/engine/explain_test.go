package engine

import (
	"errors"
	"fmt"
	"math"
	"testing"

	"llmbench/internal/framework"
	"llmbench/internal/hw"
	"llmbench/internal/model"
	"llmbench/internal/parallel"
	"llmbench/internal/workload"
)

// explainMatchesRun evaluates spec through Run and Explain and reports
// how they disagree: Explain's prefill must be Run's TTFT and its
// waves of prefill+decode Run's E2E, bit for bit, and when Run fails
// Explain must fail with the same error class.
func explainMatchesRun(e *Engine, spec workload.Spec) error {
	res, runErr := e.Run(spec)
	bd, err := e.Explain(spec)
	if runErr != nil || err != nil {
		if errClass(err) != errClass(runErr) {
			return fmt.Errorf("Run error %v, Explain error %v", runErr, err)
		}
		return nil
	}
	if bd.Prefill.Seconds != res.TTFTSeconds {
		return fmt.Errorf("prefill %v != TTFT %v", bd.Prefill.Seconds, res.TTFTSeconds)
	}
	if e2e := float64(bd.Waves) * (bd.Prefill.Seconds + bd.Decode.Seconds); e2e != res.E2ESeconds {
		return fmt.Errorf("%d waves of prefill+decode %v != E2E %v", bd.Waves, e2e, res.E2ESeconds)
	}
	return nil
}

// errClass names an error's sentinel: OOM, unsupported batch, any other
// failure, or none.
func errClass(err error) string {
	switch {
	case err == nil:
		return "none"
	case errors.Is(err, ErrOOM):
		return "oom"
	case errors.Is(err, ErrUnsupportedBatch):
		return "unsupported batch"
	}
	return "other"
}

func TestExplainConsistentWithRun(t *testing.T) {
	tp := func(n int) parallel.Plan { return parallel.Plan{TP: n, PP: 1, EP: 1} }
	cases := []struct {
		name              string
		model, device, fw string
		plan              parallel.Plan
		noKVCache         bool
		spec              workload.Spec
		want              error // Run's error class, nil for success
	}{
		{"plain", "LLaMA-3-8B", "A100", "vLLM", tp(1), false, workload.Spec{Batch: 16, Input: 1024, Output: 1024}, nil},
		{"unfused logits, TP 4", "LLaMA-2-7B", "A100", "DS-MII", tp(4), false, workload.Spec{Batch: 1, Input: 128, Output: 128}, nil},
		{"TP 4, batch 64", "LLaMA-2-7B", "A100", "vLLM", tp(4), false, workload.Spec{Batch: 64, Input: 1024, Output: 1024}, nil},
		{"wave plan", "LLaMA-2-7B", "A100", "vLLM", tp(1), false, workload.Spec{Batch: 64, Input: 1024, Output: 1024}, nil},
		{"saturation stall", "LLaMA-3-8B", "MI250", "vLLM", tp(1), false, workload.Spec{Batch: 64, Input: 1024, Output: 256}, nil},
		{"KV cache disabled", "LLaMA-3-8B", "A100", "vLLM", tp(1), true, workload.Spec{Batch: 4, Input: 128, Output: 64}, nil},
		{"single token", "LLaMA-3-8B", "A100", "vLLM", tp(1), false, workload.Spec{Batch: 8, Input: 512, Output: 1}, nil},
		{"SN40L above its service limit", "LLaMA-3-8B", "SN40L", "SambaFlow", tp(8), false, workload.Spec{Batch: 128, Input: 128, Output: 128}, ErrUnsupportedBatch},
		{"no waves", "Aquila-7B", "Gaudi2", "DeepSpeed", tp(1), false, workload.Spec{Batch: 64, Input: 128, Output: 128}, ErrOOM},
		{"weights do not fit", "LLaMA-2-70B", "A100", "vLLM", tp(1), false, workload.Spec{Batch: 1, Input: 128, Output: 128}, ErrOOM},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			e, err := New(Config{
				Model:          model.MustGet(c.model),
				Device:         hw.MustGet(c.device),
				Framework:      framework.MustGet(c.fw),
				Plan:           c.plan,
				DisableKVCache: c.noKVCache,
			})
			if err != nil {
				t.Fatal(err)
			}
			if _, err := e.Run(c.spec); errClass(err) != errClass(c.want) {
				t.Fatalf("Run error %v, want %v", err, c.want)
			}
			if err := explainMatchesRun(e, c.spec); err != nil {
				t.Error(err)
			}
		})
	}
}

// FuzzExplainMatchesRun holds Explain to Run on arbitrary catalog
// systems and points: the same totals bit for bit, or the same error
// class. Indices wrap around the catalogs; systems New rejects are
// skipped.
func FuzzExplainMatchesRun(f *testing.F) {
	f.Add(uint8(0), uint8(0), uint8(0), uint8(0), uint16(16), uint16(1024), uint16(256), false)
	f.Add(uint8(3), uint8(1), uint8(2), uint8(2), uint16(1), uint16(128), uint16(128), false)
	f.Add(uint8(5), uint8(4), uint8(1), uint8(1), uint16(64), uint16(2048), uint16(64), false)
	f.Add(uint8(1), uint8(0), uint8(3), uint8(0), uint16(4), uint16(96), uint16(32), true)
	models, devices, fws := model.Names(), hw.Names(), framework.Names()
	f.Fuzz(func(t *testing.T, mi, di, fi, tpLog uint8, batch, input, output uint16, noKVCache bool) {
		e, err := New(Config{
			Model:          model.MustGet(models[int(mi)%len(models)]),
			Device:         hw.MustGet(devices[int(di)%len(devices)]),
			Framework:      framework.MustGet(fws[int(fi)%len(fws)]),
			Plan:           parallel.Plan{TP: 1 << (tpLog % 4), PP: 1, EP: 1},
			DisableKVCache: noKVCache,
		})
		if err != nil {
			return
		}
		// Bounded so an input stays fast: Explain prices every decode
		// step directly.
		spec := workload.Spec{Batch: int(batch % 257), Input: int(input % 8193), Output: int(output % 1025)}
		if err := explainMatchesRun(e, spec); err != nil {
			t.Fatalf("%s on %s, %s, %+v: %v", e.cfg.Model.Name, e.cfg.Device.Name, e.cfg.Framework.Name, spec, err)
		}
	})
}

func TestExplainDecodeAttribution(t *testing.T) {
	e := mustEngine(t, "LLaMA-3-8B", "A100", "vLLM", parallel.Single)
	bd, err := e.Explain(workload.Spec{Batch: 64, Input: 1024, Output: 1024})
	if err != nil {
		t.Fatal(err)
	}
	d := bd.Decode
	// Decode at batch 64 / len 1024 is memory bound; the memory wall
	// splits additively into weights + KV read + KV write.
	if !d.MemoryBound {
		t.Error("decode must be memory bound here")
	}
	sum := d.WeightStreamS + d.KVReadS + d.KVWriteS
	if rel := math.Abs(sum-d.MemoryWall) / d.MemoryWall; rel > 1e-9 {
		t.Errorf("memory wall split %.6g != wall %.6g", sum, d.MemoryWall)
	}
	// At this operating point KV traffic is a first-class cost: a
	// significant fraction of the weight stream.
	if d.KVReadS < 0.2*d.WeightStreamS {
		t.Errorf("KV read %.4g implausibly small next to weights %.4g", d.KVReadS, d.WeightStreamS)
	}
	// Prefill is compute bound (the §III-5 asymmetry).
	if bd.Prefill.MemoryBound {
		t.Error("prefill must be compute bound")
	}
}

func TestExplainWaves(t *testing.T) {
	// LLaMA-2-7B at batch 64 / len 1024 exceeds one A100's KV room —
	// the breakdown must expose the wave plan Run uses internally.
	e := mustEngine(t, "LLaMA-2-7B", "A100", "vLLM", parallel.Single)
	bd, err := e.Explain(workload.Spec{Batch: 64, Input: 1024, Output: 1024})
	if err != nil {
		t.Fatal(err)
	}
	if bd.Waves < 2 {
		t.Errorf("expected batch waves, got %d", bd.Waves)
	}
	if bd.ConcurrentBatch >= 64 || bd.ConcurrentBatch < 1 {
		t.Errorf("concurrent batch %d out of range", bd.ConcurrentBatch)
	}
	if bd.PeakMemGiB <= 0 || bd.PeakMemGiB > 40 {
		t.Errorf("peak memory %.1f GiB out of range", bd.PeakMemGiB)
	}
}

func TestExplainSambaFlowSetupDominatesTTFT(t *testing.T) {
	e := mustEngine(t, "LLaMA-3-8B", "SN40L", "SambaFlow", parallel.Plan{TP: 8, PP: 1, EP: 1})
	bd, err := e.Explain(workload.Spec{Batch: 16, Input: 1024, Output: 8})
	if err != nil {
		t.Fatal(err)
	}
	if bd.Prefill.SetupS < 0.8*bd.Prefill.Seconds {
		t.Errorf("graph setup %.2fs must dominate SN40L TTFT %.2fs (Fig. 21)",
			bd.Prefill.SetupS, bd.Prefill.Seconds)
	}
}

func TestExplainLogitsPenaltyOnlyForUnfused(t *testing.T) {
	fused := mustEngine(t, "LLaMA-3-8B", "A100", "TRT-LLM", parallel.Single)
	unfused := mustEngine(t, "LLaMA-3-8B", "A100", "DS-MII", parallel.Single)
	spec := workload.Spec{Batch: 64, Input: 128, Output: 128}
	bf, err := fused.Explain(spec)
	if err != nil {
		t.Fatal(err)
	}
	bu, err := unfused.Explain(spec)
	if err != nil {
		t.Fatal(err)
	}
	if bf.Decode.LogitsS != 0 {
		t.Error("TRT-LLM must pay no logits penalty")
	}
	if bu.Decode.LogitsS <= 0 {
		t.Error("DS-MII must pay a logits penalty")
	}
}

func TestExplainErrors(t *testing.T) {
	e := mustEngine(t, "LLaMA-2-70B", "A100", "vLLM", parallel.Single)
	if _, err := e.Explain(workload.Spec{Batch: 1, Input: 128, Output: 128}); err == nil {
		t.Error("70B on one A100 must fail to explain too")
	}
	ok := mustEngine(t, "LLaMA-3-8B", "A100", "vLLM", parallel.Single)
	if _, err := ok.Explain(workload.Spec{}); err == nil {
		t.Error("invalid spec must fail")
	}
}
