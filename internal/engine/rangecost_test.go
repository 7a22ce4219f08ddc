package engine

import (
	"fmt"
	"math"
	"sync"
	"testing"

	"llmbench/internal/framework"
	"llmbench/internal/hw"
	"llmbench/internal/model"
	"llmbench/internal/parallel"
	"llmbench/internal/quant"
	"llmbench/internal/roofline"
	"llmbench/internal/workload"
)

func rangeTestEngine(t *testing.T, fw string) *Engine {
	t.Helper()
	e, err := New(Config{
		Model:     model.MustGet("LLaMA-3-8B"),
		Device:    hw.MustGet("A100"),
		Framework: framework.MustGet(fw),
	})
	if err != nil {
		t.Fatal(err)
	}
	return e
}

// TestDecodeRangeMatchesSteppedSum verifies the core range-pricing
// invariant: decodeRange aggregates exactly what a per-step loop over
// the raw (unmemoised) decode pricing produces, in the same summation
// order, byte for byte, and reports the last step's bound.
func TestDecodeRangeMatchesSteppedSum(t *testing.T) {
	for _, fw := range []string{"vLLM", "llama.cpp"} {
		eng := rangeTestEngine(t, fw)
		fresh := rangeTestEngine(t, fw) // separate memo table
		for _, c := range []struct{ batch, ctxStart, steps int }{
			{1, 1, 1},
			{16, 129, 511},
			{64, 1025, 1023},
			{8, 4097, 100},
		} {
			if got, want := rangeFold(eng, c.batch, c.ctxStart, c.steps), directFold(t, fresh, c.batch, c.ctxStart, c.steps); got != want {
				t.Errorf("%s %+v: range %+v != stepped %+v", fw, c, got, want)
			}
		}
	}
}

// TestRunDeterministicUnderMemo asserts a warm memo table changes
// nothing: the same point run repeatedly, and on a fresh engine, is
// byte-identical.
func TestRunDeterministicUnderMemo(t *testing.T) {
	eng := rangeTestEngine(t, "vLLM")
	spec := workload.Spec{Batch: 16, Input: 512, Output: 512}
	first, err := eng.Run(spec)
	if err != nil {
		t.Fatal(err)
	}
	warm, err := eng.Run(spec) // fully memoised now
	if err != nil {
		t.Fatal(err)
	}
	cold, err := rangeTestEngine(t, "vLLM").Run(spec)
	if err != nil {
		t.Fatal(err)
	}
	if first != warm || first != cold {
		t.Errorf("memoised Run differs:\nfirst %+v\nwarm  %+v\ncold  %+v", first, warm, cold)
	}
}

// TestRunMatchesStepFold pins Run's decode phase to the single-step
// reader: on catalog points, E2E is waves·(PrefillSeconds + the
// left-to-right sum of DecodeStepSeconds over the decode contexts),
// bit for bit, and DecodeBound is the last step's bound (the zero
// bound when Output is 1 and there is no step). The step prices come
// from a second engine, so Run's memo state cannot leak into the
// reference.
func TestRunMatchesStepFold(t *testing.T) {
	cases := []struct {
		model, device, fw string
		spec              workload.Spec
		waves             bool // the point must plan more than one wave
	}{
		{"LLaMA-3-8B", "A100", "vLLM", workload.Spec{Batch: 16, Input: 512, Output: 512}, false},
		{"LLaMA-2-7B", "A100", "vLLM", workload.Spec{Batch: 64, Input: 1024, Output: 1024}, true},
		{"LLaMA-3-8B", "MI250", "vLLM", workload.Spec{Batch: 64, Input: 1024, Output: 256}, false},
		// The decode bound flips from compute to memory mid-phase.
		{"LLaMA-3-8B", "A100", "vLLM", workload.Spec{Batch: 256, Input: 128, Output: 128}, false},
		{"LLaMA-3-8B", "H100", "TRT-LLM", workload.Spec{Batch: 8, Input: 512, Output: 1}, false},
		{"LLaMA-3-8B", "A100", "llama.cpp", workload.Spec{Batch: 1, Input: 128, Output: 2}, false},
	}
	for _, c := range cases {
		e := mustEngine(t, c.model, c.device, c.fw, parallel.Single)
		res, err := e.Run(c.spec)
		if err != nil {
			t.Fatal(err)
		}
		ref := mustEngine(t, c.model, c.device, c.fw, parallel.Single)
		_, waves, batch, err := ref.memoryPlan(c.spec)
		if err != nil {
			t.Fatal(err)
		}
		if c.waves != (waves > 1) {
			t.Fatalf("%s/%s %+v: %d waves, want a wave plan: %v", c.model, c.device, c.spec, waves, c.waves)
		}
		ttft, err := ref.PrefillSeconds(batch, c.spec.Input)
		if err != nil {
			t.Fatal(err)
		}
		decode := 0.0
		var bound roofline.Bound
		for ctx := c.spec.Input + 1; ctx < c.spec.Input+c.spec.Output; ctx++ {
			s, err := ref.DecodeStepSeconds(batch, ctx)
			if err != nil {
				t.Fatal(err)
			}
			decode += s
			bound = ref.stepTerms(batch, ctx).cost().Bound
		}
		if want := float64(waves) * (ttft + decode); math.Float64bits(res.E2ESeconds) != math.Float64bits(want) {
			t.Errorf("%s/%s %+v: Run E2E %v, step fold %v", c.model, c.device, c.spec, res.E2ESeconds, want)
		}
		if res.DecodeBound != bound {
			t.Errorf("%s/%s %+v: DecodeBound %v, last step %v", c.model, c.device, c.spec, res.DecodeBound, bound)
		}
	}
}

// TestDecodeStepCostConcurrent hammers one engine's memo table from
// many goroutines (meaningful under -race) through DecodeStepSeconds
// and decodeRange, and checks every reader observes the same value.
func TestDecodeStepCostConcurrent(t *testing.T) {
	eng := rangeTestEngine(t, "vLLM")
	want, err := eng.DecodeStepSeconds(8, 777)
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	errs := make(chan error, 64)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				got, err := eng.DecodeStepSeconds(8, 700+i%100)
				if err != nil {
					errs <- err
					return
				}
				if i%100 == 77 && got != want {
					errs <- fmt.Errorf("ctx 777: got %v want %v", got, want)
					return
				}
				eng.decodeRange(8, 700, 50)
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

// TestCachedSharesOneEngine pins the single-cache property: every
// spelling of one system resolves to the same *Engine through the
// process-wide cache.
func TestCachedSharesOneEngine(t *testing.T) {
	cfg := Config{
		Model:     model.MustGet("LLaMA-2-7B"),
		Device:    hw.MustGet("H100"),
		Framework: framework.MustGet("TRT-LLM"),
	}
	a, err := Cached(cfg)
	if err != nil {
		t.Fatal(err)
	}
	normal := cfg
	normal.Plan = parallel.Single
	normal.Scheme = quant.FP16
	b, err := Cached(normal)
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Error("zero-valued and normalised configs must share one cached engine")
	}
	private, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if private == a {
		t.Error("New must build a private instance, not the cached one")
	}
}

// TestDecodeRangeValidation covers the error surface of the single-step
// reader (DecodeStepVec's is in TestDecodeStepCostsVector) and the
// empty fold.
func TestDecodeRangeValidation(t *testing.T) {
	eng := rangeTestEngine(t, "vLLM")
	if _, err := eng.DecodeStepSeconds(0, 1); err == nil {
		t.Error("batch 0 must fail")
	}
	if _, err := eng.DecodeStepSeconds(1, 0); err == nil {
		t.Error("ctx 0 must fail")
	}
	if sec, balSec, last := eng.decodeRange(1, 1, 0); sec != 0 || balSec != 0 || last != 0 {
		t.Errorf("empty range must be zero: %v %v %v", sec, balSec, last)
	}
}

// stepCosts returns the per-step costs DecodeStepVec reads at
// ctxStart.
func stepCosts(e *Engine, batch, ctxStart, steps int) ([]float64, error) {
	v, err := e.DecodeStepVec(batch, ctxStart, steps)
	if err != nil {
		return nil, err
	}
	return v.Seconds, nil
}

// TestDecodeStepCostsVector verifies the serving kernel's pricing
// primitive: the memoised vector view holds exactly the per-step costs
// DecodeStepSeconds returns, the cached slice is shared across calls,
// and invalid arguments are rejected.
func TestDecodeStepCostsVector(t *testing.T) {
	e := rangeTestEngine(t, "vLLM")
	vec, err := stepCosts(e, 8, 300, 50)
	if err != nil {
		t.Fatal(err)
	}
	if len(vec) != 50 || cap(vec) != 50 {
		t.Fatalf("vector length %d, capacity %d, want 50: an append must not reach the shared master", len(vec), cap(vec))
	}
	for i, c := range vec {
		want, err := e.DecodeStepSeconds(8, 300+i)
		if err != nil {
			t.Fatal(err)
		}
		if c != want {
			t.Fatalf("step %d cost %v, want %v", i, c, want)
		}
	}
	again, err := stepCosts(e, 8, 300, 50)
	if err != nil {
		t.Fatal(err)
	}
	if &again[0] != &vec[0] {
		t.Error("repeated request must return the memoised slice")
	}
	// A longer run grows the batch's master; shorter runs then share
	// the grown vector's storage — one table per batch, not one per
	// requested length.
	longer, err := stepCosts(e, 8, 300, 80)
	if err != nil {
		t.Fatal(err)
	}
	if len(longer) != 80 || longer[10] != vec[10] {
		t.Fatalf("grown vector inconsistent with original at step 10")
	}
	short, err := stepCosts(e, 8, 300, 30)
	if err != nil {
		t.Fatal(err)
	}
	if &short[0] != &longer[0] {
		t.Error("shorter request must slice the grown memoised vector")
	}
	if empty, err := stepCosts(e, 8, 300, 0); err != nil || len(empty) != 0 {
		t.Errorf("zero steps = (%v, %v), want empty", empty, err)
	}
	for _, bad := range [][3]int{{0, 300, 5}, {8, 0, 5}, {8, 300, -1}} {
		if _, err := stepCosts(e, bad[0], bad[1], bad[2]); err == nil {
			t.Errorf("DecodeStepVec%v must error", bad)
		}
	}
}

// TestDecodeStepCostsConcurrent hammers the vector memo from many
// goroutines (concurrent sweep points sharing one engine); run with
// -race.
func TestDecodeStepCostsConcurrent(t *testing.T) {
	e := rangeTestEngine(t, "vLLM")
	var wg sync.WaitGroup
	errs := make([]error, 8)
	for w := 0; w < 8; w++ {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 20; i++ {
				vec, err := stepCosts(e, 4+w%2, 200+i, 10)
				if err != nil {
					errs[w] = err
					return
				}
				if len(vec) != 10 {
					errs[w] = fmt.Errorf("worker %d: bad length %d", w, len(vec))
					return
				}
			}
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
}

// TestMasterDescendingAnchorsBounded: a window anchored one context
// below the lowest seen so far re-bases the batch's master vector. Each
// re-base must add only the new low cells, not double the capacity, so
// a descending anchor sequence keeps the vector proportional to the
// band it covers.
func TestMasterDescendingAnchorsBounded(t *testing.T) {
	e := rangeTestEngine(t, "vLLM")
	const top = 2000
	for i := 0; i < 500; i++ {
		lo := top - i
		v := e.masterFor(8, lo, lo+31)
		band := int(v.n.Load())
		if v.base != lo || v.base+band < lo+32 {
			t.Fatalf("anchor %d: master covers [%d, %d), want [%d, %d]", i, v.base, v.base+band, lo, lo+31)
		}
		if len(v.seconds) > 2*band+64 {
			t.Fatalf("anchor %d: master capacity %d for a %d-cell band", i, len(v.seconds), band)
		}
	}
}
