package cluster

// End-to-end allocation-regression gate: a streaming cluster run over
// a recycled kernel arena must stay far below one allocation per
// request — the property BENCH.md's million-request rows score. The
// per-station gates live in internal/des; this one covers what they
// cannot: routing, completion flushing, the streaming aggregator, and
// the Scratch plumbing, together.

import (
	"testing"

	"llmbench/internal/des"
)

func TestClusterStreamingSteadyStateAllocs(t *testing.T) {
	const n = 4000
	reqs := longClusterTrace(t, n, 40, 64)
	reps := makeReplicas(t, 3)
	var scratch des.Scratch
	run := func() {
		st, err := Serve(Config{
			Replicas: reps, Policy: LeastLoaded, MaxBatch: 8,
			Streaming: true, Scratch: &scratch,
		}, reqs)
		if err != nil {
			t.Fatal(err)
		}
		if st.Completed != n {
			t.Fatalf("completed %d/%d", st.Completed, n)
		}
	}
	run() // warm the arena, allocator maps, and engine memos
	avg := testing.AllocsPerRun(3, run)
	// A warm run still pays O(1) setup — the kernel, aggregator
	// sketches, per-replica stats — but nothing per request or per
	// event. The bound is loose against that fixed cost (~14 objects
	// when written) yet at 0.1 allocs/request, so any reintroduced
	// per-event allocation (n or more objects) fails loudly.
	if limit := float64(n) / 10; avg > limit {
		t.Errorf("streaming cluster run of %d requests allocates %.0f times, want ≤ %.0f", n, avg, limit)
	}
}
