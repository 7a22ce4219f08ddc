package engine

// Allocation-regression gates for warm window pricing: once the memo
// grids and the batch's master step table exist, every pricing entry
// point — single step, range fold, vector view and its cells, prefill —
// must answer from the published tables with zero allocations and zero
// locks. The serving kernel's steady state (internal/des) prices every
// event through these paths, so one stray allocation here multiplies
// by a million requests.

import "testing"

func TestWarmPricingAllocs(t *testing.T) {
	e := rangeTestEngine(t, "vLLM")
	warm := func() {
		if _, err := e.DecodeStepSeconds(8, 450); err != nil {
			t.Fatal(err)
		}
		e.decodeRange(8, 300, 200)
		if _, err := stepCosts(e, 8, 300, 200); err != nil {
			t.Fatal(err)
		}
		if _, err := e.DecodeStepSeconds(8, 480); err != nil {
			t.Fatal(err)
		}
		if _, err := e.PrefillSeconds(8, 300); err != nil {
			t.Fatal(err)
		}
	}
	warm() // populate the batch-8 master and the prefill grid
	if avg := testing.AllocsPerRun(100, warm); avg != 0 {
		t.Errorf("warm window pricing allocates %.2f times, want 0", avg)
	}
	// Shorter ranges at the same anchor fold a prefix of the same
	// published cells — also allocation-free.
	if avg := testing.AllocsPerRun(100, func() {
		for steps := 1; steps <= 200; steps += 37 {
			e.decodeRange(8, 300, steps)
		}
	}); avg != 0 {
		t.Errorf("warm prefix reads allocate %.2f times, want 0", avg)
	}
}
