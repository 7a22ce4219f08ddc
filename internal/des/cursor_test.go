package des

// Priced-cursor tests: an open window's cursor carries only its clock
// and busy sums, and a commit folds maxIter from the committed costs —
// off the last one when the window is certified rising. Every state
// the cursor reaches, and every committed busy, maxIter and event
// time, must equal a plain left-to-right walk with a running max, bit
// for bit.

import (
	"math"
	"math/rand/v2"
	"slices"
	"testing"

	"llmbench/internal/engine"
	"llmbench/internal/framework"
	"llmbench/internal/hw"
	"llmbench/internal/model"
)

// cursorRef is the plain reference walk of one window: start[i] is
// step i's start, busy[i] and maxIter[i] are busy and maxIter with the
// first i steps applied (a running > max), each summed left to right.
type cursorRef struct {
	start, busy, maxIter []float64
}

func newCursorRef(w []float64, at, busy0, max0 float64) cursorRef {
	n := len(w)
	r := cursorRef{start: make([]float64, n+1), busy: make([]float64, n+1), maxIter: make([]float64, n+1)}
	r.start[0], r.busy[0], r.maxIter[0] = at, busy0, max0
	for i, c := range w {
		r.start[i+1] = r.start[i] + c
		r.busy[i+1] = r.busy[i] + c
		r.maxIter[i+1] = r.maxIter[i]
		if c > r.maxIter[i+1] {
			r.maxIter[i+1] = c
		}
	}
	return r
}

// firstAt is the first step index in [from, last] whose start is at or
// after t, or last.
func (r cursorRef) firstAt(from, last int, t float64) int {
	i := from
	for i < last && r.start[i] < t {
		i++
	}
	return i
}

// cursorOp is one thing the kernel does to an open window: advance
// the cursor towards a delivery at t (a lazy re-key), or cut it there.
type cursorOp struct {
	cut bool
	t   float64
}

// checkCursor opens w at start on a station with busy0 and max0
// already charged, certified rising or not, applies ops (ending at the
// first cut, or with the window's full commit) and checks the cursor
// and the commit against the reference after each.
func checkCursor(t *testing.T, w []float64, start, busy0, max0 float64, rising bool, ops []cursorOp) {
	t.Helper()
	ref := newCursorRef(w, start, busy0, max0)
	last := len(w) - 1
	s := &Station{busy: busy0, maxIter: max0, win: w, winAt: start, wt: start, wp: start,
		wbusy: busy0, wfloor: slices.Min(w), wrise: rising}
	s.nextAt = s.windowKey()
	state := func(op string) {
		t.Helper()
		i := s.wi
		if s.wt != ref.start[i] || s.wbusy != ref.busy[i] || (i > 0 && s.wp != ref.start[i-1]) {
			t.Fatalf("%s: cursor at step %d reads wt %v, wp %v, busy %v; want %v, %v, %v",
				op, i, s.wt, s.wp, s.wbusy, ref.start[i], ref.start[max(i-1, 0)], ref.busy[i])
		}
		if i == last && s.nextAt != ref.start[last] || s.nextAt > ref.start[last] {
			t.Fatalf("%s: cursor at step %d/%d keys %v, last step starts at %v", op, i, last, s.nextAt, ref.start[last])
		}
	}
	for _, op := range ops {
		if !op.cut {
			want := ref.firstAt(s.wi, last, op.t)
			s.advance(op.t)
			if s.wi != want {
				t.Fatalf("advance(%v) stopped at step %d, want %d", op.t, s.wi, want)
			}
			state("advance")
			continue
		}
		from := s.wi
		if s.wi >= 2 && s.wp >= op.t {
			from = 0 // the delivery lands before the cursor: rewind
		}
		j := ref.firstAt(from, last, op.t)
		if err := s.cut(op.t); err != nil {
			t.Fatal(err)
		}
		if s.win != nil || s.busy != ref.busy[j] || s.maxIter != ref.maxIter[j] || s.nextAt != ref.start[j] {
			t.Fatalf("cut(%v) at step %d: open %v, busy %v, maxIter %v, nextAt %v; want step %d: %v, %v, %v",
				op.t, s.wi, s.win != nil, s.busy, s.maxIter, s.nextAt, j, ref.busy[j], ref.maxIter[j], ref.start[j])
		}
		return
	}
	if s.lazy() {
		s.advance(math.Inf(1))
		state("advance to the last step")
	}
	end, err := s.step(s.nextAt)
	if err != nil {
		t.Fatal(err)
	}
	n := len(w)
	if s.win != nil || end != ref.start[n] || s.busy != ref.busy[n] || s.maxIter != ref.maxIter[n] {
		t.Fatalf("full commit: open %v, end %v, busy %v, maxIter %v; want %v, %v, %v",
			s.win != nil, end, s.busy, s.maxIter, ref.start[n], ref.busy[n], ref.maxIter[n])
	}
}

// cursorWindow draws a window of n finite positive costs of one shape:
// 0 rising, 1 flat, 2 rising with ties, 3 with descents, 4 costs below
// half an ulp of a large start (the clock does not move on them).
func cursorWindow(rng *rand.Rand, shape, n int) []float64 {
	w := make([]float64, n)
	c := math.Exp(rng.Float64()*12 - 10) // ~4.5e-5 .. 7.4
	for i := range w {
		switch shape % 5 {
		case 0:
			c *= 1 + rng.Float64()*1e-3
		case 1:
		case 2:
			if rng.IntN(3) == 0 {
				c = math.Nextafter(c, math.Inf(1))
			}
		case 3:
			c *= 0.5 + rng.Float64()
		case 4:
			c = 1e-12 * (1 + rng.Float64())
		}
		w[i] = c
	}
	return w
}

// runCursorCase draws one window and one delivery sequence from seed
// and checks it with the certificate on (when the window is rising)
// and off.
func runCursorCase(t *testing.T, seed uint64, shape, n int) {
	t.Helper()
	rng := rand.New(rand.NewPCG(seed, uint64(shape)))
	w := cursorWindow(rng, shape, n)
	start := []float64{0, rng.Float64() * 1e4, 1e7 + rng.Float64()}[rng.IntN(3)]
	if shape%5 == 4 {
		start = 1e7
	}
	busy0 := rng.Float64() * start
	max0 := []float64{0, w[0], slices.Max(w) * (0.5 + rng.Float64())}[rng.IntN(3)]
	ref := newCursorRef(w, start, 0, 0)
	lastStart := ref.start[n-1]
	// Deliveries: a few lazy re-keys in time order, then possibly a cut
	// at a random instant up to the last step's start — on a step
	// boundary, between two, or before the cursor so the cut rewinds.
	var ops []cursorOp
	t0 := start
	for range rng.IntN(4) {
		t0 += (lastStart - t0) * rng.Float64()
		ops = append(ops, cursorOp{t: t0})
	}
	if rng.IntN(4) > 0 {
		var tc float64
		switch rng.IntN(3) {
		case 0:
			tc = ref.start[rng.IntN(n)]
		case 1:
			tc = start + (lastStart-start)*rng.Float64()
		default:
			tc = start + (t0-start)*rng.Float64()
		}
		ops = append(ops, cursorOp{cut: true, t: tc})
	}
	rising := true
	for i := 1; i < n; i++ {
		rising = rising && w[i] >= w[i-1]
	}
	if rising {
		checkCursor(t, w, start, busy0, max0, true, ops)
	}
	checkCursor(t, w, start, busy0, max0, false, ops)
}

// TestCursorMatchesReference runs seeded windows of every shape and a
// spread of lengths against the reference walk.
func TestCursorMatchesReference(t *testing.T) {
	for seed := range uint64(200) {
		for shape := range 5 {
			for _, n := range []int{2, 3, 17, 1000} {
				runCursorCase(t, seed, shape, n)
			}
		}
	}
}

// FuzzCursorMatchesReference drives the same check from fuzzed seeds,
// shapes and window lengths.
func FuzzCursorMatchesReference(f *testing.F) {
	f.Add(uint64(1), uint8(0), uint16(2))
	f.Add(uint64(2), uint8(1), uint16(100))
	f.Add(uint64(3), uint8(2), uint16(1000))
	f.Add(uint64(4), uint8(3), uint16(17))
	f.Add(uint64(5), uint8(4), uint16(5000))
	f.Fuzz(func(t *testing.T, seed uint64, shape uint8, n uint16) {
		runCursorCase(t, seed, int(shape), 2+int(n)%10_000)
	})
}

// BenchmarkWindowAdvance prices a 1000-step window of the LLaMA-3-8B /
// A100 / vLLM step table (batch 3, contexts 300–1299) the way a window
// the kernel never cuts is priced: the cursor sums it to the last step
// and the full commit adds that step and folds maxIter. It reports ns
// per priced step.
func BenchmarkWindowAdvance(b *testing.B) {
	eng, err := engine.New(engine.Config{
		Model:     model.MustGet("LLaMA-3-8B"),
		Device:    hw.MustGet("A100"),
		Framework: framework.MustGet("vLLM"),
	})
	if err != nil {
		b.Fatal(err)
	}
	v, err := eng.DecodeStepVec(3, 300, 1000)
	if err != nil {
		b.Fatal(err)
	}
	w := v.Seconds
	s := &Station{}
	b.ResetTimer()
	for range b.N {
		s.win, s.winAt, s.wi, s.wt, s.wp, s.wbusy = w, 0, 0, 0, 0, 0
		s.wfloor, s.wrise = v.Floor, v.Rise <= 300
		s.advance(math.Inf(1))
		if _, err := s.step(s.nextAt); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(w)), "ns/step")
}
