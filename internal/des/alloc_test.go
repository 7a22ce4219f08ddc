package des

// Allocation-regression gates: the kernel's steady state — request
// records from the free list, queue and scratch buffers warmed,
// engine memos populated — must not allocate per event. A PR that
// reintroduces a per-admission or per-iteration allocation fails
// these gates instead of silently regressing the BENCH.md
// million-request rows. White-box on purpose: the gates drive the
// station event loop directly so the measurement isolates the kernel
// from trace generation and stats aggregation.

import (
	"math"
	"testing"

	"llmbench/internal/dtype"
	"llmbench/internal/engine"
	"llmbench/internal/framework"
	"llmbench/internal/hw"
	"llmbench/internal/kvcache"
	"llmbench/internal/model"
	"llmbench/internal/workload"
)

func allocTestStation(t *testing.T, cfg Config, capGiB float64) *Station {
	t.Helper()
	m := model.MustGet("LLaMA-3-8B")
	eng, err := engine.New(engine.Config{
		Model:     m,
		Device:    hw.MustGet("A100"),
		Framework: framework.MustGet("vLLM"),
	})
	if err != nil {
		t.Fatal(err)
	}
	alloc, err := kvcache.NewPaged(16, m.KVBytesPerToken(dtype.FP16), capGiB*(1<<30))
	if err != nil {
		t.Fatal(err)
	}
	return &Station{ID: 0, Engine: eng, Alloc: alloc, cfg: cfg, nextAt: -1}
}

// stationCycle admits a wave of requests and advances the station
// until it drains, then resets the completion buffer the way the
// kernel's flush does — one steady-state admission→decode→finish
// cycle with fixed memo keys.
func stationCycle(t *testing.T, s *Station, reqs []workload.Request) func() {
	t.Helper()
	return func() {
		for _, r := range reqs {
			s.enqueue(queued{req: r})
		}
		s.nextAt = 0
		s.advance(math.Inf(1))
		if s.err != nil {
			t.Fatal(s.err)
		}
		if s.queueLen() != 0 || len(s.run) != 0 {
			t.Fatal("cycle did not drain the station")
		}
		s.finished = s.finished[:0]
		s.finHead = 0
	}
}

func allocTestReqs(n int) []workload.Request {
	reqs := make([]workload.Request, n)
	for i := range reqs {
		reqs[i] = workload.Request{ID: i, Input: 256 + 16*i, Output: 48 + 8*i, Arrival: 0}
	}
	return reqs
}

// TestStationStepSteadyStateAllocs gates the continuous
// (iteration-level, preemptive, coalescing) station path at zero
// steady-state allocations per full request cycle.
func TestStationStepSteadyStateAllocs(t *testing.T) {
	s := allocTestStation(t, Config{MaxBatch: 8, Preemptive: true}, 16)
	cycle := stationCycle(t, s, allocTestReqs(8))
	cycle() // warm free lists, scratch buffers, and engine memos
	if avg := testing.AllocsPerRun(10, cycle); avg != 0 {
		t.Errorf("continuous steady-state station cycle allocates %.1f times, want 0", avg)
	}
}

// TestStationStepStaticSteadyStateAllocs gates the static-batching
// station path the same way.
func TestStationStepStaticSteadyStateAllocs(t *testing.T) {
	s := allocTestStation(t, Config{MaxBatch: 8, Static: true}, 16)
	cycle := stationCycle(t, s, allocTestReqs(12)) // > MaxBatch: two batch windows
	cycle()
	if avg := testing.AllocsPerRun(10, cycle); avg != 0 {
		t.Errorf("static steady-state station cycle allocates %.1f times, want 0", avg)
	}
}

// disaggTestTransfer prices transfers for the white-box gates; the
// values are A100-shaped but arbitrary — only positivity matters.
var disaggTestTransfer = TransferCost{BlockTokens: 16, BytesPerToken: 131072, GBPerS: 600, LatencyS: 3e-6}

// TestStationStepPrefillSteadyStateAllocs gates the prefill-pool
// station path at zero steady-state allocations per hand-off cycle:
// request records must come from the free list and transfer records
// from the warmed xfers buffer.
func TestStationStepPrefillSteadyStateAllocs(t *testing.T) {
	s := allocTestStation(t, Config{MaxBatch: 8, Transfer: disaggTestTransfer}, 16)
	s.role = RolePrefill
	reqs := allocTestReqs(8)
	cycle := func() {
		for _, r := range reqs {
			s.enqueue(queued{req: r})
		}
		s.nextAt = 0
		s.advance(math.Inf(1))
		if s.err != nil {
			t.Fatal(s.err)
		}
		if s.queueLen() != 0 || len(s.xfers) != len(reqs) {
			t.Fatal("cycle did not hand off every request")
		}
		s.xfers = s.xfers[:0] // the kernel's collectTransfers does this
	}
	cycle()
	if avg := testing.AllocsPerRun(10, cycle); avg != 0 {
		t.Errorf("prefill steady-state station cycle allocates %.1f times, want 0", avg)
	}
}

// TestStationStepDecodeSteadyStateAllocs gates the decode-pool
// station path the same way: admitting kv-transfer deliveries
// (carried lifecycles, generated already 1) must reuse the free list.
func TestStationStepDecodeSteadyStateAllocs(t *testing.T) {
	s := allocTestStation(t, Config{MaxBatch: 8, Transfer: disaggTestTransfer}, 16)
	s.role = RoleDecode
	base := allocTestReqs(8)
	cycle := func() {
		for _, r := range base {
			s.enqueue(queued{req: r, decode: true, carry: RequestStats{
				ID: r.ID, Input: r.Input, Output: r.Output,
				Arrival: r.Arrival, Started: r.Arrival, FirstTok: r.Arrival, TransferS: 1e-5,
			}})
		}
		s.nextAt = 0
		s.advance(math.Inf(1))
		if s.err != nil {
			t.Fatal(s.err)
		}
		if s.queueLen() != 0 || len(s.run) != 0 {
			t.Fatal("cycle did not drain the station")
		}
		s.finished = s.finished[:0]
		s.finHead = 0
	}
	cycle()
	if avg := testing.AllocsPerRun(10, cycle); avg != 0 {
		t.Errorf("decode steady-state station cycle allocates %.1f times, want 0", avg)
	}
}
