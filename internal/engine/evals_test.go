package engine

// Evaluation-count test: every decode step and every prefill the memo
// prices is priced exactly once per engine. Ranges at overlapping
// anchors, raw vectors, single steps and repeated prefill keys all
// read the same tables, so the engine's roofline evaluation counters
// must equal the cells those tables publish, and every value must be
// bit-identical to a direct roofline evaluation on a fresh engine.
// Run prices its prefill through the same grid.

import (
	"math"
	"testing"

	"llmbench/internal/workload"
)

// directFold folds steps direct step evaluations on fresh, left
// to right from ctxStart: the reference every range must equal. The
// master stores the rounded balance·seconds product, so the conversion
// keeps an FMA-fusing compiler from fusing the multiply-add.
func directFold(t *testing.T, fresh *Engine, batch, ctxStart, steps int) RangeStats {
	t.Helper()
	var want RangeStats
	for ctx := ctxStart; ctx < ctxStart+steps; ctx++ {
		st := fresh.stepTerms(batch, ctx).cost()
		want.Seconds += st.Seconds
		want.BalanceSeconds += float64(powerBalance(st) * st.Seconds)
		want.MaxStepSeconds = max(want.MaxStepSeconds, st.Seconds)
		want.LastBound = st.Bound
	}
	return want
}

func TestMemoPricesEachPointOnce(t *testing.T) {
	eng := rangeTestEngine(t, "vLLM")
	fresh := rangeTestEngine(t, "vLLM") // direct evaluations, no memo
	direct := func(batch, ctx int) StepCost {
		r := fresh.stepTerms(batch, ctx).cost()
		return StepCost{Seconds: r.Seconds, Bound: r.Bound}
	}

	type band struct{ batch, ctx, steps int }
	var bands []band
	for i := 0; i < 6; i++ {
		bands = append(bands, band{4, 100 + 40*i, 90})  // ascending, overlapping
		bands = append(bands, band{9, 900 - 55*i, 120}) // descending: re-bases the master
	}
	bands = append(bands, band{4, 100, 400}, band{9, 625, 30}) // extend an anchor; a warm prefix
	for _, b := range bands {
		rng, err := eng.DecodeRangeSeconds(b.batch, b.ctx, b.steps)
		if err != nil {
			t.Fatal(err)
		}
		if want := directFold(t, fresh, b.batch, b.ctx, b.steps); rng != want {
			t.Errorf("range %+v: %+v, direct fold %+v", b, rng, want)
		}
	}
	// Vectors and single steps over the same bands, and one band past
	// them at each batch, read or extend the same masters.
	bands = append(bands, band{4, 60, 20}, band{9, 1100, 10})
	for _, b := range bands {
		v, err := eng.DecodeStepVec(b.batch, b.ctx, b.steps)
		if err != nil {
			t.Fatal(err)
		}
		cells := v.Seconds()
		for i := 0; i < b.steps; i++ {
			st := direct(b.batch, b.ctx+i)
			got, err := eng.DecodeStepSeconds(b.batch, b.ctx+i)
			if err != nil {
				t.Fatal(err)
			}
			cost, err := eng.DecodeStepCost(b.batch, b.ctx+i)
			if err != nil {
				t.Fatal(err)
			}
			if cells[i] != st.Seconds || got != st.Seconds || cost != st {
				t.Fatalf("batch %d ctx %d: vector %v, step %v, cost %+v; direct %+v",
					b.batch, b.ctx+i, cells[i], got, cost, st)
			}
		}
	}
	published := int64(0)
	for _, batch := range []int{4, 9} {
		published += eng.vecs.get(batch-1, 0).n.Load()
	}
	if got := eng.decodeEvals.Load(); got != published {
		t.Errorf("%d decode evaluations for %d published master cells", got, published)
	}

	keys := map[[2]int]bool{}
	for round := 0; round < 3; round++ {
		for _, batch := range []int{1, 3, 8} {
			for _, input := range []int{1, 128, 129, 2048} {
				got, err := eng.PrefillSeconds(batch, input)
				if err != nil {
					t.Fatal(err)
				}
				pf := fresh.prefillTerms(batch, input).cost()
				if got != pf.Seconds {
					t.Errorf("prefill (%d, %d): %v, direct %v", batch, input, got, pf.Seconds)
				}
				keys[[2]int{batch, input}] = true
			}
		}
	}
	if got := eng.prefillEvals.Load(); got != int64(len(keys)) {
		t.Errorf("%d prefill evaluations for %d distinct keys", got, len(keys))
	}

	// Run's prefill reads the grid: a point whose wave key is already
	// priced evaluates no prefill, and its TTFT is the memoised price.
	evals := eng.prefillEvals.Load()
	res, err := eng.Run(workload.Spec{Batch: 8, Input: 128, Output: 64})
	if err != nil {
		t.Fatal(err)
	}
	if got := eng.prefillEvals.Load(); got != evals {
		t.Errorf("Run at a priced prefill key evaluated %d prefills, want 0", got-evals)
	}
	pf, err := eng.PrefillSeconds(8, 128)
	if err != nil {
		t.Fatal(err)
	}
	if math.Float64bits(res.TTFTSeconds) != math.Float64bits(pf) {
		t.Errorf("Run TTFT %v, PrefillSeconds %v", res.TTFTSeconds, pf)
	}
}

// FuzzDecodeRangeMatchesSteps drives one engine through a sequence of
// ranges — each 4 input bytes are one (batch, ctxStart, steps) query,
// so rising, falling and overlapping anchors grow and re-base the
// batch masters in any order — and requires every DecodeRangeSeconds
// result to equal a left-to-right fold of direct step
// evaluations on a fresh engine, bit for bit.
func FuzzDecodeRangeMatchesSteps(f *testing.F) {
	f.Add([]byte{3, 0, 100, 40, 3, 0, 140, 90})                   // rising, overlapping
	f.Add([]byte{3, 7, 208, 60, 3, 3, 232, 60, 3, 0, 10, 200})    // falling: re-bases
	f.Add([]byte{0, 0, 0, 1, 15, 15, 255, 255, 0, 0, 0, 0})       // smallest, largest, empty
	f.Add([]byte{5, 1, 0, 30, 9, 1, 0, 30, 5, 0, 200, 120, 9, 0}) // two batches interleaved
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 4*16 {
			data = data[:4*16]
		}
		eng := rangeTestEngine(t, "vLLM")
		fresh := rangeTestEngine(t, "vLLM")
		for ; len(data) >= 4; data = data[4:] {
			batch := 1 + int(data[0]%16)
			ctxStart := 1 + (int(data[1])<<8|int(data[2]))%4096
			steps := int(data[3])
			got, err := eng.DecodeRangeSeconds(batch, ctxStart, steps)
			if err != nil {
				t.Fatal(err)
			}
			if want := directFold(t, fresh, batch, ctxStart, steps); got != want {
				t.Fatalf("range (%d, %d, %d): %+v, direct fold %+v", batch, ctxStart, steps, got, want)
			}
		}
	})
}
