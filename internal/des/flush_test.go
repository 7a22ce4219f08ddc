package des

import (
	"cmp"
	"math/rand/v2"
	"reflect"
	"slices"
	"testing"
)

// TestKernelFlushFinalPrefix pins the Sink flush contract at one
// delivery instant t: the buffered completions strictly before t go
// to the Sink in (finish time, request ID) order, and the rest — which
// a later event could still precede — stay buffered for the next
// flush. The buffer is filled out of order through record, the path
// stations take.
func TestKernelFlushFinalPrefix(t *testing.T) {
	k := New(Config{})
	var got []int
	k.Sink = func(r *RequestStats) { got = append(got, r.ID) }
	for _, r := range []RequestStats{
		{ID: 4, Finished: 3}, {ID: 1, Finished: 2}, {ID: 3, Finished: 1},
		{ID: 2, Finished: 2}, {ID: 0, Finished: 5},
	} {
		k.record(&r)
	}
	k.flush(3)
	if want := []int{3, 1, 2}; !reflect.DeepEqual(got, want) {
		t.Errorf("flush at 3 emitted %v, want %v", got, want)
	}
	if len(k.done) != 2 || k.done[0].ID != 4 || k.done[1].ID != 0 {
		t.Errorf("flush at 3 kept %v, want requests 4 and 0", k.done)
	}
	if k.flushAt != 2+flushBatch {
		t.Errorf("next flush at %d buffered completions, want %d", k.flushAt, 2+flushBatch)
	}
}

// byCompletion is the (finish time, request ID) order record keeps.
func byCompletion(a, b RequestStats) int {
	if c := cmp.Compare(a.Finished, b.Finished); c != 0 {
		return c
	}
	return cmp.Compare(a.ID, b.ID)
}

// TestRecordMatchesSort checks the ordered insert against a sort.
// Completions arrive as a kernel records them: at a rising kernel time
// T, each finishing within a bounded span after T, on a coarse time
// grid so many tie at one instant, with shuffled IDs. Inserting them
// one by one must give exactly the slices.SortFunc order, and flushes
// at kernel times in between must emit a prefix of it.
func TestRecordMatchesSort(t *testing.T) {
	rng := rand.New(rand.NewPCG(7, 21))
	for trial := 0; trial < 200; trial++ {
		n := 1 + rng.IntN(400)
		span := rng.IntN(12) // finish displacement, in grid ticks
		ids := rng.Perm(n)
		all := make([]RequestStats, n)
		k := New(Config{})
		var emitted []RequestStats
		k.Sink = func(r *RequestStats) { emitted = append(emitted, *r) }
		now := 0
		for i := range all {
			now += rng.IntN(3)
			fin := now
			if span > 0 {
				fin += rng.IntN(span + 1)
			}
			all[i] = RequestStats{ID: ids[i], Finished: float64(fin) / 4, Arrival: float64(i)}
			k.record(&all[i])
			if rng.IntN(50) == 0 {
				k.flush(float64(now) / 4)
			}
		}
		want := slices.Clone(all)
		slices.SortFunc(want, byCompletion)
		got := append(emitted, k.done...)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("trial %d (n=%d, span=%d): insert order differs from the sort", trial, n, span)
		}
	}
}

// checkHeap verifies the heap's invariants: every entry's inline key
// equals its station's (nextAt, ID), hidx points back at the entry,
// stations off the heap have hidx -1, and no child precedes its
// parent.
func checkHeap(t *testing.T, h stationHeap, stations []*Station) {
	t.Helper()
	on := 0
	for i, e := range h {
		if e.at != e.s.nextAt || e.id != e.s.ID {
			t.Fatalf("entry %d keyed (%v, %d), station has (%v, %d)", i, e.at, e.id, e.s.nextAt, e.s.ID)
		}
		if e.s.hidx != i {
			t.Fatalf("entry %d: station %d has hidx %d", i, e.s.ID, e.s.hidx)
		}
		if i > 0 && h.less(i, (i-1)/2) {
			t.Fatalf("entry %d precedes its parent", i)
		}
	}
	for _, s := range stations {
		if s.hidx >= 0 {
			on++
		} else if s.hidx != -1 {
			t.Fatalf("station %d off the heap has hidx %d", s.ID, s.hidx)
		}
	}
	if on != len(h) {
		t.Fatalf("%d stations claim a heap slot, heap holds %d", on, len(h))
	}
}

// TestStationHeapKeys drives the heap through random push, re-key and
// pop sequences, with many stations tied at one key, the way the
// kernel does: each move of a member's nextAt is copied into its entry
// before the sift. Every step keeps the invariants, and each pop takes
// the least (nextAt, ID).
func TestStationHeapKeys(t *testing.T) {
	rng := rand.New(rand.NewPCG(3, 9))
	stations := make([]*Station, 48)
	for i := range stations {
		stations[i] = &Station{ID: i, nextAt: -1, hidx: -1}
	}
	key := func() float64 { return float64(rng.IntN(16)) / 2 }
	var h stationHeap
	for op := 0; op < 20000; op++ {
		s := stations[rng.IntN(len(stations))]
		switch {
		case s.hidx < 0:
			s.nextAt = key()
			h.push(s)
		case rng.IntN(2) == 0:
			// A cut or a lazy advance: the key moves either way.
			s.nextAt = key()
			h.rekey(s.hidx)
			h.up(s.hidx)
			h.down(s.hidx)
		default:
			root := h[0].s
			for _, e := range h {
				if e.s.nextAt < root.nextAt || (e.s.nextAt == root.nextAt && e.s.ID < root.ID) {
					t.Fatalf("op %d: root is station %d at %v, station %d at %v precedes it",
						op, root.ID, root.nextAt, e.s.ID, e.s.nextAt)
				}
			}
			if rng.IntN(2) == 0 {
				root.nextAt = -1
				h.popRoot()
			} else {
				// The root's event ran and scheduled its next one.
				root.nextAt += float64(1+rng.IntN(4)) / 2
				h.rekey(0)
				h.down(0)
			}
		}
		checkHeap(t, h, stations)
	}
	prevAt, prevID := -1.0, -1
	for len(h) > 0 {
		s := h[0].s
		if s.nextAt < prevAt || (s.nextAt == prevAt && s.ID < prevID) {
			t.Fatalf("drain popped (%v, %d) after (%v, %d)", s.nextAt, s.ID, prevAt, prevID)
		}
		prevAt, prevID = s.nextAt, s.ID
		s.nextAt = -1
		h.popRoot()
		checkHeap(t, h, stations)
	}
}
