package des_test

import (
	"errors"
	"math"
	"reflect"
	"strings"
	"testing"

	"llmbench/internal/des"
	"llmbench/internal/dtype"
	"llmbench/internal/engine"
	"llmbench/internal/framework"
	"llmbench/internal/hw"
	"llmbench/internal/kvcache"
	"llmbench/internal/model"
	"llmbench/internal/workload"
)

func testEngine(t *testing.T) *engine.Engine {
	t.Helper()
	e, err := engine.New(engine.Config{
		Model:     model.MustGet("LLaMA-3-8B"),
		Device:    hw.MustGet("A100"),
		Framework: framework.MustGet("vLLM"),
	})
	if err != nil {
		t.Fatal(err)
	}
	return e
}

func testAlloc(t *testing.T, capGiB float64) kvcache.Allocator {
	t.Helper()
	m := model.MustGet("LLaMA-3-8B")
	a, err := kvcache.NewPaged(16, m.KVBytesPerToken(dtype.FP16), capGiB*(1<<30))
	if err != nil {
		t.Fatal(err)
	}
	return a
}

// runKernel builds a fresh kernel with n stations behind a
// round-robin router and runs the trace.
func runKernel(t *testing.T, cfg des.Config, n int, capGiB float64, reqs []workload.Request) des.Result {
	t.Helper()
	eng := testEngine(t)
	k := des.New(cfg)
	stations := make([]*des.Station, n)
	for i := range stations {
		stations[i] = k.NewStation(eng, testAlloc(t, capGiB))
	}
	rr := 0
	k.Route = func(now float64) *des.Station {
		s := stations[rr%n]
		rr++
		return s
	}
	res, err := k.Run(reqs)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// modes returns the two kernel modes whose Results must be
// byte-identical: coalesced and stepped.
func modes(cfg des.Config) map[string]des.Config {
	stepped := cfg
	stepped.Stepped = true
	return map[string]des.Config{"coalesced": cfg, "stepped": stepped}
}

func assertModesIdentical(t *testing.T, name string, cfg des.Config, n int, capGiB float64, reqs []workload.Request) des.Result {
	t.Helper()
	ref := runKernel(t, cfg, n, capGiB, reqs)
	for mode, mcfg := range modes(cfg) {
		got := runKernel(t, mcfg, n, capGiB, reqs)
		if !reflect.DeepEqual(got, ref) {
			t.Errorf("%s: %s Result differs from the coalesced reference", name, mode)
		}
	}
	return ref
}

// TestKernelModesIdenticalRandomized is the kernel's headline
// property: over seeded random workloads at several load levels,
// coalesced == stepped to the last bit — every timestamp, every
// aggregate, every per-station share.
func TestKernelModesIdenticalRandomized(t *testing.T) {
	cases := []struct {
		seed uint64
		rate float64
		out  int
	}{
		{seed: 1, rate: 0.8, out: 384},
		{seed: 2, rate: 3, out: 256},
		{seed: 3, rate: 12, out: 96},
	}
	for _, c := range cases {
		reqs, err := workload.PoissonTrace(workload.TraceConfig{
			Seed: c.seed, Requests: 48, RatePerSec: c.rate,
			InputMean: 256, OutputMean: c.out, LengthJitter: 0.4,
		})
		if err != nil {
			t.Fatal(err)
		}
		res := assertModesIdentical(t, "randomized", des.Config{MaxBatch: 8}, 3, 16, reqs)
		if len(res.Finished) != 48 {
			t.Errorf("seed %d: completed %d/48", c.seed, len(res.Finished))
		}
	}
}

// TestKernelEqualTimestampTies pins the tie-breaking contract:
// arrivals at one instant are routed in trace order before any
// station event at that instant runs, in every mode.
func TestKernelEqualTimestampTies(t *testing.T) {
	var reqs []workload.Request
	id := 0
	for wave := 0; wave < 6; wave++ {
		at := float64(wave) * 2 // waves of 5 simultaneous arrivals
		for i := 0; i < 5; i++ {
			reqs = append(reqs, workload.Request{
				ID: id, Input: 128 + 32*i, Output: 64 + 16*(id%3), Arrival: at,
			})
			id++
		}
	}
	res := assertModesIdentical(t, "equal-timestamps", des.Config{MaxBatch: 4}, 4, 16, reqs)
	if len(res.Finished) != len(reqs) {
		t.Fatalf("completed %d/%d", len(res.Finished), len(reqs))
	}
	// Same-instant waves must route deterministically: request IDs
	// 0..4 land on stations 0..4 round-robin, so each station's
	// completion count is identical across runs (already asserted by
	// DeepEqual) and every request finished after it arrived.
	for _, r := range res.Finished {
		if r.Started < r.Arrival || r.Finished <= r.Arrival {
			t.Errorf("request %d timeline inconsistent: %+v", r.ID, r)
		}
	}
}

// TestKernelPreemptionMidWindow drives aggregated stations into KV
// exhaustion inside would-be coalesced windows on multiple stations
// at once: evictions and requeues must reproduce identically in every
// mode.
func TestKernelPreemptionMidWindow(t *testing.T) {
	reqs, err := workload.PoissonTrace(workload.TraceConfig{
		Seed: 9, Requests: 24, RatePerSec: 3,
		InputMean: 256, OutputMean: 512, LengthJitter: 0.4,
	})
	if err != nil {
		t.Fatal(err)
	}
	res := assertModesIdentical(t, "preemption",
		des.Config{MaxBatch: 6}, 2, 0.3, reqs)
	if res.Preemptions == 0 {
		t.Fatal("a tiny KV pool must force preemptions inside windows")
	}
	if len(res.Finished) != 24 {
		t.Errorf("completed %d/24 under preemption", len(res.Finished))
	}
	preempted := 0
	for _, r := range res.Finished {
		preempted += r.Preempted
	}
	if preempted != res.Preemptions {
		t.Errorf("per-request Preempted sum %d != kernel count %d", preempted, res.Preemptions)
	}
}

// TestKernelChunkedPrefillModes covers the fused prefill-slice path
// (Dynamic-SplitFuse admission) across every mode.
func TestKernelChunkedPrefillModes(t *testing.T) {
	reqs, err := workload.PoissonTrace(workload.TraceConfig{
		Seed: 4, Requests: 30, RatePerSec: 4,
		InputMean: 768, OutputMean: 96, LengthJitter: 0.5,
	})
	if err != nil {
		t.Fatal(err)
	}
	res := assertModesIdentical(t, "chunked-prefill",
		des.Config{MaxBatch: 8, ChunkedPrefill: true, PrefillChunk: 256}, 2, 16, reqs)
	if len(res.Finished) != 30 {
		t.Errorf("completed %d/30", len(res.Finished))
	}
}

// TestKernelSinkOrderAndModes pins the streaming completion hand-off:
// with a Sink installed, completions are delivered incrementally in
// exactly the global (finish time, request ID) order of the ledger a
// sink-less run returns — in every kernel mode, so a streaming
// aggregator's float summation order is byte-identical to the exact
// path's — the ledger stays empty, and Completed still counts. The
// dense trace completes thousands of requests, so the Sink buffer is
// flushed mid-run as well as at drain.
func TestKernelSinkOrderAndModes(t *testing.T) {
	for _, tc := range []workload.TraceConfig{
		{Seed: 21, Requests: 40, RatePerSec: 6, InputMean: 256, OutputMean: 128, LengthJitter: 0.4},
		{Seed: 22, Requests: 4000, RatePerSec: 60, InputMean: 128, OutputMean: 32, LengthJitter: 0.4},
	} {
		reqs, err := workload.PoissonTrace(tc)
		if err != nil {
			t.Fatal(err)
		}
		base := des.Config{MaxBatch: 6}
		ref := runKernel(t, base, 3, 16, reqs)
		if len(ref.Finished) != len(reqs) {
			t.Fatalf("reference completed %d/%d", len(ref.Finished), len(reqs))
		}
		for mode, mcfg := range modes(base) {
			eng := testEngine(t)
			k := des.New(mcfg)
			stations := make([]*des.Station, 3)
			for i := range stations {
				stations[i] = k.NewStation(eng, testAlloc(t, 16))
			}
			rr := 0
			k.Route = func(now float64) *des.Station {
				s := stations[rr%len(stations)]
				rr++
				return s
			}
			var streamed []des.RequestStats
			k.Sink = func(r *des.RequestStats) { streamed = append(streamed, *r) }
			res, err := k.Run(reqs)
			if err != nil {
				t.Fatalf("%s: %v", mode, err)
			}
			if len(res.Finished) != 0 {
				t.Errorf("%s: Sink runs must not also build the ledger (%d entries)", mode, len(res.Finished))
			}
			if res.Completed != len(reqs) {
				t.Errorf("%s: Completed %d/%d", mode, res.Completed, len(reqs))
			}
			if !reflect.DeepEqual(streamed, ref.Finished) {
				t.Errorf("%d requests, %s: Sink sequence differs from the sorted ledger", len(reqs), mode)
			}
		}
	}
}

// TestKernelRunOnce pins the single-use contract: a second Run would
// silently reuse dirty station state, so it must fail with the named
// error instead.
func TestKernelRunOnce(t *testing.T) {
	reqs := []workload.Request{{ID: 0, Input: 64, Output: 8, Arrival: 0}}
	k := des.New(des.Config{MaxBatch: 4})
	k.NewStation(testEngine(t), testAlloc(t, 1))
	if _, err := k.Run(reqs); err != nil {
		t.Fatal(err)
	}
	if _, err := k.Run(reqs); !errors.Is(err, des.ErrKernelReused) {
		t.Errorf("second Run: got %v, want ErrKernelReused", err)
	}
}

// TestKernelScratchReuseIdentical pins the arena-recycling contract:
// kernels built over a shared Scratch — station shells, free lists,
// and event buffers all recycled, across varying fleet sizes — return
// Results byte-identical to fresh kernels.
func TestKernelScratchReuseIdentical(t *testing.T) {
	reqs, err := workload.PoissonTrace(workload.TraceConfig{
		Seed: 13, Requests: 40, RatePerSec: 5,
		InputMean: 256, OutputMean: 128, LengthJitter: 0.4,
	})
	if err != nil {
		t.Fatal(err)
	}
	eng := testEngine(t)
	cfg := des.Config{MaxBatch: 6}
	sc := &des.Scratch{}
	// Vary the station count so later runs both pop recycled shells
	// and allocate fresh ones.
	for round, n := range []int{3, 2, 3} {
		ref := runKernel(t, cfg, n, 16, reqs)
		k := des.New(cfg)
		k.Reuse(sc)
		stations := make([]*des.Station, n)
		for i := range stations {
			stations[i] = k.NewStation(eng, testAlloc(t, 16))
		}
		rr := 0
		k.Route = func(now float64) *des.Station {
			s := stations[rr%n]
			rr++
			return s
		}
		got, err := k.Run(reqs)
		if err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
		k.Release()
		if !reflect.DeepEqual(got, ref) {
			t.Errorf("round %d (%d stations): recycled-kernel Result differs from fresh kernel", round, n)
		}
	}
}

// TestKernelValidation covers the kernel's own error paths.
func TestKernelValidation(t *testing.T) {
	reqs := []workload.Request{{ID: 0, Input: 64, Output: 8, Arrival: 0}}
	if _, err := des.New(des.Config{MaxBatch: 4}).Run(reqs); err == nil {
		t.Error("no stations must fail")
	}
	k := des.New(des.Config{})
	k.NewStation(testEngine(t), testAlloc(t, 1))
	if _, err := k.Run(reqs); err == nil {
		t.Error("MaxBatch 0 must fail")
	}
	k = des.New(des.Config{MaxBatch: 4})
	k.NewStation(testEngine(t), testAlloc(t, 1))
	if _, err := k.Run(nil); err == nil {
		t.Error("empty trace must fail")
	}
	k = des.New(des.Config{MaxBatch: 4})
	k.NewStation(nil, nil)
	if _, err := k.Run(reqs); err == nil {
		t.Error("incomplete station must fail")
	}
	// An unadmittable request must fail fast, not hang the loop.
	k = des.New(des.Config{MaxBatch: 4})
	k.NewStation(testEngine(t), testAlloc(t, 0.01))
	if _, err := k.Run([]workload.Request{{ID: 0, Input: 100000, Output: 8, Arrival: 0}}); err == nil {
		t.Error("an unadmittable request must error, not hang")
	}
	// Non-finite arrivals would never match the delivery instant and
	// spin the loop forever, and a negative one would wake its station
	// at a time that reads as idle; they must be rejected up front.
	for _, bad := range []float64{math.NaN(), math.Inf(1), -1} {
		k = des.New(des.Config{MaxBatch: 4})
		k.NewStation(testEngine(t), testAlloc(t, 1))
		_, err := k.Run([]workload.Request{{ID: 0, Input: 64, Output: 8, Arrival: bad}})
		if err == nil {
			t.Errorf("arrival %v must error, not hang", bad)
		}
		if neg := bad < 0; errors.Is(err, des.ErrNegativeArrival) != neg {
			t.Errorf("arrival %v: got %v, want ErrNegativeArrival %v", bad, err, neg)
		}
	}
	// −0 is time 0.
	k = des.New(des.Config{MaxBatch: 4})
	k.NewStation(testEngine(t), testAlloc(t, 1))
	res, err := k.Run([]workload.Request{{ID: 0, Input: 64, Output: 8, Arrival: math.Copysign(0, -1)}, {ID: 1, Input: 64, Output: 8}})
	if err != nil || res.Completed != 2 {
		t.Errorf("arrivals at −0 and 0: completed %d, error %v", res.Completed, err)
	}
}

// TestKernelEarliestError pins which error Run returns when several
// stations fail: the one with the lowest (event time, station ID),
// whatever order the stations were woken in. Each failing request is a
// prompt too large for its station's KV pool.
func TestKernelEarliestError(t *testing.T) {
	cases := []struct {
		name string
		reqs []workload.Request // request ID i routes to station i%2
		want string
	}{
		{"earlier-time-wins", []workload.Request{
			{ID: 1, Input: 100000, Output: 8, Arrival: 1},
			{ID: 2, Input: 100000, Output: 8, Arrival: 2},
		}, "station 1 cannot admit request 1"},
		{"equal-time-lower-id-wins", []workload.Request{
			{ID: 1, Input: 100000, Output: 8, Arrival: 1},
			{ID: 2, Input: 100000, Output: 8, Arrival: 1},
		}, "station 0 cannot admit request 2"},
	}
	for _, c := range cases {
		k := des.New(des.Config{MaxBatch: 4})
		stations := []*des.Station{
			k.NewStation(testEngine(t), testAlloc(t, 0.01)),
			k.NewStation(testEngine(t), testAlloc(t, 0.01)),
		}
		id := 0
		k.Route = func(float64) *des.Station {
			s := stations[c.reqs[id].ID%2]
			id++
			return s
		}
		_, err := k.Run(c.reqs)
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: got %v, want an error containing %q", c.name, err, c.want)
		}
	}
}

// TestCoalesceWindowBounds exercises the window-sizing helper
// directly, proving fast-forwards actually form (the equivalence
// tests above would pass vacuously if every window collapsed to a
// stepped fallback) and land exactly on each state-change boundary.
func TestCoalesceWindowBounds(t *testing.T) {
	eng := testEngine(t)
	alloc := testAlloc(t, 20)
	ids := make([]kvcache.Seq, 0, 2)
	for _, tokens := range []int{300, 400} {
		seq, err := alloc.Alloc(tokens)
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, seq)
	}

	// Unconstrained: the window is the full completion bound.
	w, err := des.CoalesceWindow(eng, alloc, ids, 2, 350, 100)
	if err != nil {
		t.Fatal(err)
	}
	if len(w) != 100 {
		t.Fatalf("unconstrained window %d, want 100", len(w))
	}
	for i, c := range w {
		want, err := eng.DecodeStepSeconds(2, 350+i)
		if err != nil {
			t.Fatal(err)
		}
		if c != want {
			t.Fatalf("step %d cost %v, want memoised %v", i, c, want)
		}
	}

	// The arrival cut is the station's (Station.cut), not the
	// window pricing's; TestStationCutBoundary checks it on this same
	// window.

	// Allocator cut: a pool with room for only a few more blocks bounds
	// the window at exactly MaxExtendSteps.
	tiny := testAlloc(t, 20).(*kvcache.Paged)
	tinyIDs := make([]kvcache.Seq, 0, 2)
	for _, tokens := range []int{300, int(tiny.CapacityBytes()/tiny.BytesPerToken) - 300 - 3*16} {
		seq, err := tiny.Alloc(tokens)
		if err != nil {
			t.Fatal(err)
		}
		tinyIDs = append(tinyIDs, seq)
	}
	headroom := tiny.MaxExtendSteps(tinyIDs, 100)
	if headroom >= 100 || headroom < 2 {
		t.Fatalf("test setup: headroom %d, want a small window ≥ 2", headroom)
	}
	cutw, err := des.CoalesceWindow(eng, tiny, tinyIDs, 2, 350, 100)
	if err != nil {
		t.Fatal(err)
	}
	if len(cutw) != headroom {
		t.Errorf("allocator-cut window %d, want %d", len(cutw), headroom)
	}

	// Degenerate bounds fall back to stepped (empty window).
	for _, kMax := range []int{0, 1} {
		if w, err := des.CoalesceWindow(eng, alloc, ids, 2, 350, kMax); err != nil || len(w) != 0 {
			t.Errorf("kMax %d: window %d (err %v), want empty", kMax, len(w), err)
		}
	}
}
