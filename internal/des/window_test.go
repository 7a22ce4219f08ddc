package des

import (
	"math"
	"testing"

	"llmbench/internal/kvcache"
	"llmbench/internal/workload"
)

// openWindowStation returns a station whose running set is two
// established sequences at contexts 300 and 400 (mean 350), each 100
// tokens from completion, with a coalesced window opened at t=0 — the
// window TestCoalesceWindowBounds prices unconstrained. The window is
// open but unpriced: its event time is a lower bound on its last
// step's start, and pricing it makes the event time that start
// bit-for-bit.
func openWindowStation(t *testing.T) (*Station, []float64) {
	t.Helper()
	s := allocTestStation(t, Config{MaxBatch: 8}, 20)
	for i, ctx := range []int{300, 400} {
		seq, err := s.Alloc.Alloc(ctx)
		if err != nil {
			t.Fatal(err)
		}
		s.run = append(s.run, &runReq{
			req:       workload.Request{ID: i, Input: ctx - 2, Output: 102},
			seq:       seq,
			generated: 2,
		})
	}
	s.nextAt = 0
	last, err := s.step(0)
	if err != nil {
		t.Fatal(err)
	}
	if len(s.win) != 100 {
		t.Fatalf("opened window of %d steps, want 100", len(s.win))
	}
	if want := lastStart(s.win); last > want {
		t.Fatalf("open window's event time %v, past its last step's start %v", last, want)
	}
	if s.busy != 0 || s.run[0].generated != 2 || s.priced != 0 {
		t.Fatal("opening a window must apply and sum nothing")
	}
	s.nextAt = last
	return s, s.win
}

// lastStart is the sequential sum of all but the last of w's costs:
// the window's last step start when it opens at t=0.
func lastStart(w []float64) float64 {
	sum := 0.0
	for _, c := range w[:len(w)-1] {
		sum += c
	}
	return sum
}

// TestStationCutBoundary: a delivery inside an open window commits
// exactly the steps up to the first boundary at or after it — the
// arrival cut TestCoalesceWindowBounds used to assert on the window
// pricing —
// moves the station's next event there, and completes no request.
// The outcome is the same wherever the priced cursor stands: short of
// the delivery (the cut resumes it), at its boundary (the cut commits
// there), or at the last step, past the delivery (the cut rewinds and
// sums again from the window's start).
func TestStationCutBoundary(t *testing.T) {
	for _, pricedTo := range []float64{0, 10.5, math.Inf(1)} {
		s, w := openWindowStation(t)
		s.advance(w[0] * pricedTo)
		if pricedTo == math.Inf(1) && s.nextAt != lastStart(w) {
			t.Fatalf("priced window's event time %v, want its last step's start %v", s.nextAt, lastStart(w))
		}
		checkCutBoundary(t, s, w)
	}
}

func checkCutBoundary(t *testing.T, s *Station, w []float64) {
	t.Helper()
	total := 0.0
	cut, end := 0, 0.0
	for i, c := range w {
		total += c
		if cut == 0 && total >= w[0]*10.5 {
			cut, end = i+1, total
		}
	}
	if err := s.cut(w[0] * 10.5); err != nil {
		t.Fatal(err)
	}
	if len(s.win) != 0 {
		t.Fatal("cut left the window open")
	}
	if s.nextAt != end {
		t.Errorf("cut moved the next event to %v, want boundary %v", s.nextAt, end)
	}
	for _, r := range s.run {
		if r.generated != 2+cut {
			t.Errorf("request %d generated %d after the cut, want %d", r.req.ID, r.generated, 2+cut)
		}
	}
	if len(s.run) != 2 || s.done != 0 {
		t.Errorf("cut completed %d requests", s.done)
	}
	if s.busy != end || s.steps != cut || s.cuts != 1 {
		t.Errorf("cut charged busy %v, %d steps, %d cuts; want %v, %d, 1", s.busy, s.steps, s.cuts, end, cut)
	}
	p := s.Alloc.(*kvcache.Paged)
	if got := p.Sequences(); got != 2 {
		t.Fatalf("%d live sequences after the cut, want 2", got)
	}
	if err := s.cut(end); err != nil { // no open window: a second delivery is a no-op
		t.Fatal(err)
	}
	if s.cuts != 1 {
		t.Error("a cut without an open window counted")
	}
}

// TestStationWindowCommit: an uncut window commits whole at its last
// step's start, completing the requests that bound it at its end —
// whether the window was priced to its last step before the event, or
// the event itself prices the still-lazy window first.
func TestStationWindowCommit(t *testing.T) {
	for _, pricedFirst := range []bool{true, false} {
		s, w := openWindowStation(t)
		if pricedFirst {
			s.advance(math.Inf(1))
			if s.nextAt != lastStart(w) {
				t.Fatalf("priced window's event time %v, want its last step's start %v", s.nextAt, lastStart(w))
			}
		}
		checkWindowCommit(t, s, w)
	}
}

func checkWindowCommit(t *testing.T, s *Station, w []float64) {
	t.Helper()
	end, busy := 0.0, 0.0
	for _, c := range w {
		end += c
		busy += c
	}
	if err := s.event(); err != nil {
		t.Fatal(err)
	}
	if s.done != 2 || len(s.run) != 0 || s.nextAt != -1 {
		t.Fatalf("commit left %d running, %d done, nextAt %v", len(s.run), s.done, s.nextAt)
	}
	for _, r := range s.k.done {
		if r.Finished != end {
			t.Errorf("request %d finished at %v, want the window's end %v", r.ID, r.Finished, end)
		}
	}
	if s.busy != busy || s.steps != 100 || s.windows != 1 || s.priced != 100 {
		t.Errorf("commit charged busy %v, %d steps, %d windows, %d priced; want %v, 100, 1, 100",
			s.busy, s.steps, s.windows, s.priced, busy)
	}
	if got := s.Alloc.(*kvcache.Paged).Sequences(); got != 0 {
		t.Errorf("%d live sequences after the commit, want 0", got)
	}
}
