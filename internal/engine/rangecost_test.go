package engine

import (
	"fmt"
	"sync"
	"testing"

	"llmbench/internal/framework"
	"llmbench/internal/hw"
	"llmbench/internal/model"
	"llmbench/internal/parallel"
	"llmbench/internal/quant"
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
// invariant: DecodeRangeSeconds aggregates exactly what a per-step
// loop over the raw (unmemoised) decode pricing produces, in the same
// summation order, byte for byte.
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
			rng, err := eng.DecodeRangeSeconds(c.batch, c.ctxStart, c.steps)
			if err != nil {
				t.Fatal(err)
			}
			var sum, balSum, maxStep float64
			for i := 0; i < c.steps; i++ {
				st, err := fresh.decodeStep(workload.Spec{Batch: c.batch, Input: 1, Output: 1}, c.ctxStart+i)
				if err != nil {
					t.Fatal(err)
				}
				sum += st.Seconds
				// The master stores the rounded product, so the
				// conversion keeps an FMA-fusing compiler from fusing
				// this multiply-add.
				balSum += float64(powerBalance(st) * st.Seconds)
				if st.Seconds > maxStep {
					maxStep = st.Seconds
				}
			}
			if rng.Seconds != sum || rng.BalanceSeconds != balSum || rng.MaxStepSeconds != maxStep {
				t.Errorf("%s %+v: range {%v %v %v} != stepped {%v %v %v}",
					fw, c, rng.Seconds, rng.BalanceSeconds, rng.MaxStepSeconds, sum, balSum, maxStep)
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

// TestDecodeStepCostConcurrent hammers one engine's memo table from
// many goroutines (meaningful under -race) and checks every reader
// observes the same value.
func TestDecodeStepCostConcurrent(t *testing.T) {
	eng := rangeTestEngine(t, "vLLM")
	want, err := eng.DecodeStepCost(8, 777)
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
				got, err := eng.DecodeStepCost(8, 700+i%100)
				if err != nil {
					errs <- err
					return
				}
				if i%100 == 77 && got != want {
					errs <- fmt.Errorf("ctx 777: got %+v want %+v", got, want)
					return
				}
				if _, err := eng.DecodeRangeSeconds(8, 700, 50); err != nil {
					errs <- err
					return
				}
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
	if CachedCount() < 1 {
		t.Error("cache must report its entries")
	}
}

// TestDecodeRangeValidation covers the error surface.
func TestDecodeRangeValidation(t *testing.T) {
	eng := rangeTestEngine(t, "vLLM")
	if _, err := eng.DecodeRangeSeconds(0, 1, 1); err == nil {
		t.Error("batch 0 must fail")
	}
	if _, err := eng.DecodeRangeSeconds(1, 0, 1); err == nil {
		t.Error("ctx 0 must fail")
	}
	if _, err := eng.DecodeRangeSeconds(1, 1, -1); err == nil {
		t.Error("negative steps must fail")
	}
	empty, err := eng.DecodeRangeSeconds(1, 1, 0)
	if err != nil || empty != (RangeStats{}) {
		t.Errorf("empty range must be zero: %+v, %v", empty, err)
	}
}

// stepCosts returns the first steps per-step costs of the master view
// DecodeStepVec anchors at ctxStart.
func stepCosts(e *Engine, batch, ctxStart, steps int) ([]float64, error) {
	v, err := e.DecodeStepVec(batch, ctxStart, steps)
	if err != nil {
		return nil, err
	}
	return v.Seconds()[:steps], nil
}

// TestDecodeStepCostsVector verifies the serving kernel's pricing
// primitive: the memoised vector view holds exactly the per-step costs
// DecodeStepCost returns, the cached slice is shared across calls,
// and invalid arguments are rejected.
func TestDecodeStepCostsVector(t *testing.T) {
	e := rangeTestEngine(t, "vLLM")
	vec, err := stepCosts(e, 8, 300, 50)
	if err != nil {
		t.Fatal(err)
	}
	if len(vec) != 50 {
		t.Fatalf("vector length %d, want 50", len(vec))
	}
	for i, c := range vec {
		want, err := e.DecodeStepCost(8, 300+i)
		if err != nil {
			t.Fatal(err)
		}
		if c != want.Seconds {
			t.Fatalf("step %d cost %v, want %v", i, c, want.Seconds)
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
		v, err := e.masterFor(8, lo, lo+31)
		if err != nil {
			t.Fatal(err)
		}
		band := int(v.n.Load())
		if v.base != lo || v.base+band < lo+32 {
			t.Fatalf("anchor %d: master covers [%d, %d), want [%d, %d]", i, v.base, v.base+band, lo, lo+31)
		}
		if len(v.seconds) > 2*band+64 {
			t.Fatalf("anchor %d: master capacity %d for a %d-cell band", i, len(v.seconds), band)
		}
	}
}
