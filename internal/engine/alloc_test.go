package engine

// Allocation-regression gates for warm window pricing: once the memo
// grids and the step vector at an anchor exist, every pricing entry
// point — single step, prefix-aggregated range, raw vector, snapshot
// handle, prefill — must answer from the copy-on-write snapshots with
// zero allocations and zero locks. The serving kernel's steady state
// (internal/des) prices every event through these paths, so one stray
// allocation here multiplies by a million requests.

import "testing"

func TestWarmPricingAllocs(t *testing.T) {
	e := rangeTestEngine(t, "vLLM")
	warm := func() {
		if _, err := e.DecodeStepCost(8, 450); err != nil {
			t.Fatal(err)
		}
		if _, err := e.DecodeRangeSeconds(8, 300, 200); err != nil {
			t.Fatal(err)
		}
		if _, err := e.DecodeStepCosts(8, 300, 200); err != nil {
			t.Fatal(err)
		}
		if _, err := e.DecodeStepVec(8, 300, 200); err != nil {
			t.Fatal(err)
		}
		if _, err := e.DecodeStepSeconds(8, 480); err != nil {
			t.Fatal(err)
		}
		if _, err := e.PrefillSeconds(8, 300); err != nil {
			t.Fatal(err)
		}
	}
	warm() // populate the batch-8 master, the (8, 300) anchor and the prefill grid
	if avg := testing.AllocsPerRun(100, warm); avg != 0 {
		t.Errorf("warm window pricing allocates %.2f times, want 0", avg)
	}
	// Shorter reads of the same anchor are prefix reads of the same
	// snapshot — also allocation-free.
	if avg := testing.AllocsPerRun(100, func() {
		for steps := 1; steps <= 200; steps += 37 {
			if _, err := e.DecodeRangeSeconds(8, 300, steps); err != nil {
				t.Fatal(err)
			}
		}
	}); avg != 0 {
		t.Errorf("warm prefix reads allocate %.2f times, want 0", avg)
	}
}
