package des

import (
	"testing"

	"llmbench/internal/kvcache"
	"llmbench/internal/workload"
)

// openWindowStation returns a station whose running set is two
// established sequences at contexts 300 and 400 (mean 350), each 100
// tokens from completion, with a coalesced window opened at t=0 — the
// window TestCoalesceWindowBounds prices unconstrained.
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
	want := 0.0
	for _, c := range s.win[:99] {
		want += c
	}
	if last != want {
		t.Fatalf("open window's event time %v, want its last step's start %v", last, want)
	}
	if s.busy != 0 || s.run[0].generated != 2 {
		t.Fatal("opening a window must apply nothing")
	}
	s.nextAt = last
	return s, s.win
}

// TestStationCutBoundary: a delivery inside an open window commits
// exactly the steps up to the first boundary at or after it — the
// arrival cut TestCoalesceWindowBounds used to assert on the pricer —
// moves the station's next event there, and completes no request.
func TestStationCutBoundary(t *testing.T) {
	s, w := openWindowStation(t)
	total := 0.0
	cut, end := 0, 0.0
	for i, c := range w {
		total += c
		if cut == 0 && total >= w[0]*10.5 {
			cut, end = i+1, total
		}
	}
	s.cut(w[0] * 10.5)
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
	s.cut(end) // no open window: a second delivery is a no-op
	if s.cuts != 1 {
		t.Error("a cut without an open window counted")
	}
}

// TestStationWindowCommit: an uncut window commits whole at its last
// step's start, completing the requests that bound it at its end.
func TestStationWindowCommit(t *testing.T) {
	s, w := openWindowStation(t)
	end, busy := 0.0, 0.0
	for _, c := range w {
		end += c
		busy += c
	}
	s.advance(s.nextAt + 1e-12)
	if s.err != nil {
		t.Fatal(s.err)
	}
	if s.done != 2 || len(s.run) != 0 || s.nextAt != -1 {
		t.Fatalf("commit left %d running, %d done, nextAt %v", len(s.run), s.done, s.nextAt)
	}
	for _, r := range s.finished {
		if r.Finished != end {
			t.Errorf("request %d finished at %v, want the window's end %v", r.ID, r.Finished, end)
		}
	}
	if s.busy != busy || s.steps != 100 || s.windows != 1 {
		t.Errorf("commit charged busy %v, %d steps, %d windows; want %v, 100, 1", s.busy, s.steps, s.windows, busy)
	}
	if got := s.Alloc.(*kvcache.Paged).Sequences(); got != 0 {
		t.Errorf("%d live sequences after the commit, want 0", got)
	}
}
