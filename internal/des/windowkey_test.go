package des

// Window-key bound tests: an open window's event key must never pass
// its last step's start as the station clock sums it — left to right,
// in float64 — or the kernel would deliver past an event it owed, and
// once the cursor reaches the last step the key must be that start
// bit-for-bit.

import (
	"math"
	"math/rand/v2"
	"testing"
)

// checkWindowKey opens a window of r+1 steps at start whose costs come
// from cost (each at least floor), and checks the key against the
// sequential sum at the open cursor, at cursor positions through the
// window, and exactly once the cursor reaches the last step.
func checkWindowKey(t *testing.T, start, floor float64, r int, cost func(i int) float64) {
	t.Helper()
	w := make([]float64, r+1)
	for i := range w {
		w[i] = cost(i)
		if w[i] < floor {
			t.Fatalf("cost %d = %v below the floor %v", i, w[i], floor)
		}
	}
	// starts[i] is step i's start as the station clock sums it.
	starts := make([]float64, r+1)
	starts[0] = start
	for i := 1; i <= r; i++ {
		starts[i] = starts[i-1] + w[i-1]
	}
	last := starts[r]
	s := &Station{win: w, winAt: start, wt: start, wp: start, wfloor: floor}
	if k := s.windowKey(); k > last {
		t.Fatalf("start %v, floor %v, r %d: open key %v passes the last step's start %v", start, floor, r, k, last)
	}
	// Advance the cursor to a spread of intermediate starts.
	for _, frac := range []float64{0.25, 0.5, 0.9, 0.999} {
		i := int(frac * float64(r))
		s.advance(starts[i])
		if s.wt != starts[s.wi] {
			t.Fatalf("cursor at step %d reads %v, want %v", s.wi, s.wt, starts[s.wi])
		}
		if s.nextAt > last {
			t.Fatalf("start %v, floor %v, r %d: key %v at step %d passes the last step's start %v",
				start, floor, r, s.nextAt, s.wi, last)
		}
	}
	s.advance(math.Inf(1))
	if s.wi != r || s.nextAt != last {
		t.Fatalf("priced cursor at step %d keys %v, want step %d at exactly %v", s.wi, s.nextAt, r, last)
	}
}

// TestWindowKeyLowerBound sweeps start times over [0, 1e7] s, costs
// from exactly the floor up to far above it — including costs below
// half an ulp of the start, which the sequential sum drops — and
// windows of up to a million unpriced steps.
func TestWindowKeyLowerBound(t *testing.T) {
	rng := rand.New(rand.NewPCG(18, 1))
	cases := []struct {
		start, floor float64
		r            int
		spread       float64 // costs are floor·(1 + spread·U[0,1))
	}{
		{0, 0.01, 1, 0},
		{0, 0.01, 1_000_000, 0},
		{1e7, 0.01, 1_000_000, 0},
		{1e7, 0.01, 1_000_000, 0.3},
		{12345.678, 0.0123, 300, 0.1},
		{1e7, 1e-12, 1000, 0},           // every cost far below ulp(start)/2: the sum never moves
		{1e7, 0.9e-9, 100_000, 0.1},     // just below ulp(1e7)/2 ≈ 9.3e-10, then above it
		{8388608, 0.9e-9, 100_000, 0},   // a power of two: ulp doubles as the sum crosses it
		{8388607.999, 1e-9, 100_000, 0}, // start just below that binade edge
		{0.5, 1e-17, 10_000, 0},         // floor below ulp(0.5)/2
		{1, 0x1p-53, 10_000, 0},         // costs exactly half an ulp: ties to even
		{1, 0x1p-53, 10_000, 1e-9},      // just above half an ulp: each rounds up
	}
	for _, c := range cases {
		checkWindowKey(t, c.start, c.floor, c.r, func(int) float64 {
			return c.floor * (1 + c.spread*rng.Float64())
		})
	}
	for range 200 {
		start := rng.Float64() * 1e7
		floor := math.Exp(rng.Float64()*30 - 25) // ~1.4e-11 .. 150
		r := 1 + rng.IntN(2000)
		spread := []float64{0, 1e-12, 0.1, 2}[rng.IntN(4)]
		checkWindowKey(t, start, floor, r, func(int) float64 {
			return floor * (1 + spread*rng.Float64())
		})
	}
}

// FuzzWindowKeyLowerBound drives the same check from fuzzed start
// times, floors, window lengths and cost spreads.
func FuzzWindowKeyLowerBound(f *testing.F) {
	f.Add(0.0, 0.01, uint32(1), 0.0, uint64(1))
	f.Add(1e7, 0.01, uint32(1_000_000), 0.3, uint64(2))
	f.Add(1e7, 0.9e-9, uint32(10_000), 0.1, uint64(3))
	f.Add(8388608.0, 1e-9, uint32(10_000), 0.0, uint64(4))
	f.Add(1.0, 0x1p-53, uint32(1000), 1e-9, uint64(5))
	f.Fuzz(func(t *testing.T, start, floor float64, r uint32, spread float64, seed uint64) {
		if !(start >= 0 && start <= 1e7) || !(floor > 0 && floor <= 1e3) || !(spread >= 0 && spread <= 1e3) {
			t.Skip()
		}
		n := 1 + int(r%1_000_000)
		rng := rand.New(rand.NewPCG(seed, 0))
		checkWindowKey(t, start, floor, n, func(int) float64 {
			return floor * (1 + spread*rng.Float64())
		})
	})
}
