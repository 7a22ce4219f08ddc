package des

import (
	"reflect"
	"testing"
)

// TestKernelFlushFinalPrefix pins the Sink flush contract at one
// delivery instant t: the buffered completions strictly before t go
// to the Sink in (finish time, request ID) order, and the rest — which
// a later event could still precede — stay buffered for the next
// flush.
func TestKernelFlushFinalPrefix(t *testing.T) {
	k := New(Config{})
	var got []int
	k.Sink = func(r RequestStats) { got = append(got, r.ID) }
	k.done = []RequestStats{
		{ID: 4, Finished: 3}, {ID: 1, Finished: 2}, {ID: 3, Finished: 1},
		{ID: 2, Finished: 2}, {ID: 0, Finished: 5},
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
