package engine

// Evaluation-count test: every decode step and every prefill the memo
// prices is priced exactly once per engine. Ranges at overlapping
// anchors, raw vectors, single steps and repeated prefill keys all
// read the same tables, so the engine's roofline evaluation counters
// must equal the cells those tables publish, and every value must be
// bit-identical to a direct roofline evaluation on a fresh engine.

import (
	"testing"

	"llmbench/internal/workload"
)

func TestMemoPricesEachPointOnce(t *testing.T) {
	eng := rangeTestEngine(t, "vLLM")
	fresh := rangeTestEngine(t, "vLLM") // direct evaluations, no memo
	direct := func(batch, ctx int) (sec, balSec float64, st StepCost) {
		r, err := fresh.decodeStep(workload.Spec{Batch: batch, Input: 1, Output: 1}, ctx)
		if err != nil {
			t.Fatal(err)
		}
		return r.Seconds, float64(powerBalance(r) * r.Seconds), StepCost{Seconds: r.Seconds, Bound: r.Bound}
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
		var want RangeStats
		for i := 0; i < b.steps; i++ {
			sec, balSec, st := direct(b.batch, b.ctx+i)
			want.Seconds += sec
			want.BalanceSeconds += balSec
			want.MaxStepSeconds = max(want.MaxStepSeconds, sec)
			want.LastBound = st.Bound
		}
		if rng != want {
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
			sec, _, st := direct(b.batch, b.ctx+i)
			got, err := eng.DecodeStepSeconds(b.batch, b.ctx+i)
			if err != nil {
				t.Fatal(err)
			}
			cost, err := eng.DecodeStepCost(b.batch, b.ctx+i)
			if err != nil {
				t.Fatal(err)
			}
			if cells[i] != sec || got != sec || cost != st {
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
				pf, err := fresh.prefill(workload.Spec{Batch: batch, Input: input, Output: 1})
				if err != nil {
					t.Fatal(err)
				}
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
}
