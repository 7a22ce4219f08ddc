package engine

// Rising-certificate tests: growMaster is driven with synthetic step
// costs, so descents can be placed anywhere without a catalog engine
// that produces one, and after every publication the certificate must
// equal a brute-force scan of the published cells.

import (
	"math"
	"math/rand/v2"
	"testing"
)

// bruteRise is the highest context in v's published band whose cell is
// not at least its left neighbour's, or 0 when there is none.
func bruteRise(v *stepVec) int {
	n := int(v.n.Load())
	for i := n - 1; i >= 1; i-- {
		if !(v.seconds[i] >= v.seconds[i-1]) {
			return v.base + i
		}
	}
	return 0
}

// synthPrice prices context ctx as cost(ctx) and counts the calls.
func synthPrice(cost func(ctx int) float64, calls *int) priceFunc {
	return func(ctx int) (float64, float64, uint8, error) {
		*calls++
		c := cost(ctx)
		return c, 0.5 * c, 0, nil
	}
}

// checkGeneration checks v after a publication covering [lo, hi]: the
// band covers it, every published cell is cost's, the floor is their
// minimum and the certificate is the brute-force highest descent.
func checkGeneration(t *testing.T, v *stepVec, lo, hi int, cost func(ctx int) float64) {
	t.Helper()
	n := int(v.n.Load())
	if lo < v.base || hi >= v.base+n {
		t.Fatalf("generation covers [%d, %d), want [%d, %d]", v.base, v.base+n, lo, hi)
	}
	floor := math.Inf(1)
	for i := range n {
		if want := cost(v.base + i); v.seconds[i] != want {
			t.Fatalf("cell at context %d is %v, want %v", v.base+i, v.seconds[i], want)
		}
		floor = min(floor, v.seconds[i])
	}
	if got := math.Float64frombits(v.floor.Load()); got != floor {
		t.Fatalf("floor %v, want %v", got, floor)
	}
	if got, want := int(v.rise.Load()), bruteRise(v); got != want {
		t.Fatalf("band [%d, %d): certificate %d, brute-force highest descent %d", v.base, v.base+n, got, want)
	}
}

// TestRiseCertificate walks one batch's master through each way it
// grows — upward in place, a downward re-base whose only descent is
// the boundary pair, a re-base with a descent in the new low cells and
// regrowth past capacity — and checks the certificate after each.
func TestRiseCertificate(t *testing.T) {
	// Rising except where marked: 99 → 100, 199 → 200 and 799 → 800
	// descend, and 59 → 60 descends inside the second re-base's low
	// cells, below the certificate already published.
	cost := func(ctx int) float64 {
		c := 1 + float64(ctx)/1000
		switch {
		case ctx < 60:
			c += 2
		case ctx < 100:
			c += 1
		}
		if ctx >= 200 {
			c -= 0.25
		}
		if ctx >= 800 {
			c -= 0.25
		}
		return c
	}
	steps := []struct {
		name   string
		lo, hi int
		fresh  bool // a new generation is published
		rise   int
	}{
		{"first band", 100, 120, true, 0},
		{"upward in place", 110, 150, false, 0},
		{"flat re-read", 100, 150, false, 0},
		{"re-base: boundary pair descends", 90, 95, true, 100},
		{"upward in place past the re-base", 140, 160, false, 100},
		{"re-base: descent in the new low cells", 40, 50, true, 100},
		{"regrowth past capacity with a descent", 45, 250, true, 200},
		{"upward in place after it", 260, 287, false, 200},
		{"regrowth to a higher descent", 100, 900, true, 800},
	}
	var calls int
	price := synthPrice(cost, &calls)
	var v *stepVec
	priced := map[int]bool{}
	for _, st := range steps {
		before := calls
		next, err := growMaster(v, st.lo, st.hi, price)
		if err != nil {
			t.Fatal(err)
		}
		if fresh := next != v; fresh != st.fresh {
			t.Fatalf("%s: fresh generation %v, want %v", st.name, fresh, st.fresh)
		}
		v = next
		checkGeneration(t, v, st.lo, st.hi, cost)
		if got := int(v.rise.Load()); got != st.rise {
			t.Fatalf("%s: certificate %d, want %d", st.name, got, st.rise)
		}
		for ctx := v.base; ctx < v.base+int(v.n.Load()); ctx++ {
			priced[ctx] = true
		}
		if calls-before > 0 && len(priced) != calls {
			t.Fatalf("%s: %d price calls for %d distinct contexts", st.name, calls, len(priced))
		}
	}
}

// TestRiseCertificateRandom drives growMaster with random bands over
// random cost tables — rising, flat, with ties and with sparse or
// dense descents — and checks every publication against the brute
// force.
func TestRiseCertificateRandom(t *testing.T) {
	rng := rand.New(rand.NewPCG(22, 1))
	for trial := range 300 {
		const span = 3000
		costs := make([]float64, span+1)
		c := 1.0
		pDrop := []float64{0, 0, 0.001, 0.05, 0.5}[trial%5]
		for i := range costs {
			switch r := rng.Float64(); {
			case r < pDrop:
				c -= rng.Float64() * 0.1
			case r < 0.3:
				// a tie
			default:
				c += rng.Float64() * 0.01
			}
			costs[i] = c
		}
		cost := func(ctx int) float64 { return costs[ctx] }
		var calls int
		price := synthPrice(cost, &calls)
		var v *stepVec
		for range 40 {
			lo := 1 + rng.IntN(span-1)
			hi := lo + rng.IntN(min(span-lo, 1+rng.IntN(400)))
			next, err := growMaster(v, lo, hi, price)
			if err != nil {
				t.Fatal(err)
			}
			v = next
			checkGeneration(t, v, lo, hi, cost)
		}
	}
}
