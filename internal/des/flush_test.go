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
