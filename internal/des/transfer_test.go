package des_test

import (
	"errors"
	"math"
	"reflect"
	"testing"

	"llmbench/internal/des"
	"llmbench/internal/dtype"
	"llmbench/internal/model"
	"llmbench/internal/workload"
)

func testTransferCost(t *testing.T) des.TransferCost {
	t.Helper()
	m := model.MustGet("LLaMA-3-8B")
	return des.TransferCost{
		BlockTokens:   16,
		BytesPerToken: m.KVBytesPerToken(dtype.FP16),
		GBPerS:        600,
		LatencyS:      3e-6,
	}
}

// runDisagg builds a kernel with nPre prefill and nDec decode
// stations behind round-robin pool routers and runs the trace.
// scaleTicks, when non-nil, counts scale-tick firings.
func runDisagg(t *testing.T, cfg des.Config, nPre, nDec int, capGiB float64,
	reqs []workload.Request, scaleTicks *int) des.Result {
	t.Helper()
	eng := testEngine(t)
	k := des.New(cfg)
	prefill := make([]*des.Station, nPre)
	for i := range prefill {
		prefill[i] = k.NewPoolStation(eng, testAlloc(t, capGiB), des.RolePrefill)
	}
	decode := make([]*des.Station, nDec)
	for i := range decode {
		decode[i] = k.NewPoolStation(eng, testAlloc(t, capGiB), des.RoleDecode)
	}
	rr, rrx := 0, 0
	k.Route = func(now float64) *des.Station {
		s := prefill[rr%nPre]
		rr++
		return s
	}
	k.RouteTransfer = func(now float64) *des.Station {
		s := decode[rrx%nDec]
		rrx++
		return s
	}
	if scaleTicks != nil {
		k.ScaleTick = func(now float64) error { *scaleTicks++; return nil }
	}
	res, err := k.Run(reqs)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func assertDisaggModesIdentical(t *testing.T, name string, cfg des.Config,
	nPre, nDec int, capGiB float64, reqs []workload.Request) des.Result {
	t.Helper()
	ref := runDisagg(t, cfg, nPre, nDec, capGiB, reqs, nil)
	for mode, mcfg := range modes(cfg) {
		got := runDisagg(t, mcfg, nPre, nDec, capGiB, reqs, nil)
		if !reflect.DeepEqual(got, ref) {
			t.Errorf("%s: %s Result differs from the coalesced reference", name, mode)
		}
	}
	return ref
}

// TestKernelDisaggModesMatchesStepped extends the kernel's headline
// determinism property to disaggregated fleets: with kv-transfer
// events in the total order, coalesced == Stepped to the last bit
// over seeded random workloads at several load levels.
func TestKernelDisaggModesMatchesStepped(t *testing.T) {
	cases := []struct {
		seed uint64
		rate float64
		out  int
	}{
		{seed: 1, rate: 0.8, out: 384},
		{seed: 2, rate: 3, out: 256},
		{seed: 3, rate: 12, out: 96},
	}
	cfg := des.Config{MaxBatch: 8, Transfer: testTransferCost(t)}
	for _, c := range cases {
		reqs, err := workload.PoissonTrace(workload.TraceConfig{
			Seed: c.seed, Requests: 48, RatePerSec: c.rate,
			InputMean: 256, OutputMean: c.out, LengthJitter: 0.4,
		})
		if err != nil {
			t.Fatal(err)
		}
		res := assertDisaggModesIdentical(t, "disagg-randomized", cfg, 2, 3, 16, reqs)
		if len(res.Finished) != 48 {
			t.Errorf("seed %d: completed %d/48", c.seed, len(res.Finished))
		}
		xferred := 0
		for i, ps := range res.PerStation {
			if i < 2 { // prefill pool
				if ps.Completed != 0 {
					t.Errorf("seed %d: prefill station %d completed %d requests", c.seed, i, ps.Completed)
				}
				xferred += ps.Transferred
			} else if ps.Transferred != 0 {
				t.Errorf("seed %d: decode station %d transferred %d", c.seed, i, ps.Transferred)
			}
		}
		if xferred != 48 {
			t.Errorf("seed %d: prefill pool transferred %d/48", c.seed, xferred)
		}
		// The prefill pool is busy exactly while its batches run: one
		// (Started, FirstTok) interval per batch.
		batches, want := map[[2]float64]bool{}, 0.0
		for _, r := range res.Finished {
			if k := [2]float64{r.Started, r.FirstTok}; !batches[k] {
				batches[k] = true
				want += r.FirstTok - r.Started
			}
		}
		if busy := res.PerStation[0].BusyS + res.PerStation[1].BusyS; math.Abs(busy-want) > 1e-9*want {
			t.Errorf("seed %d: prefill pool busy %v s, batches span %v s", c.seed, busy, want)
		}
		for _, r := range res.Finished {
			if !(r.TransferS > 0) {
				t.Fatalf("seed %d: request %d has TransferS %v", c.seed, r.ID, r.TransferS)
			}
			if r.FirstTok < r.Started || r.Finished < r.FirstTok+r.TransferS {
				t.Errorf("seed %d: request %d timeline inconsistent: %+v", c.seed, r.ID, r)
			}
		}
	}
}

// TestKernelTransferTies pins kv-transfer tie-breaking against every
// other event kind. Waves of identical simultaneous arrivals force
// same-instant prefill completions, hence same-instant transfer
// deliveries, colliding with window-exhausted decode events; a second
// trace then plants fresh arrivals (and their scale-ticks) at exactly
// the recorded delivery instants, colliding arrival, scale-tick,
// kv-transfer, and completion events at one timestamp. Every mode
// must agree bit-for-bit, and scale-ticks must fire once per trace
// arrival — never for a kv-transfer delivery.
func TestKernelTransferTies(t *testing.T) {
	var reqs []workload.Request
	id := 0
	for wave := 0; wave < 4; wave++ {
		at := float64(wave) * 1.5
		for i := 0; i < 6; i++ { // identical requests → identical delivery instants
			reqs = append(reqs, workload.Request{ID: id, Input: 256, Output: 48, Arrival: at})
			id++
		}
	}
	cfg := des.Config{MaxBatch: 4, Transfer: testTransferCost(t)}
	probe := runDisagg(t, cfg, 2, 2, 16, reqs, nil)
	if len(probe.Finished) != len(reqs) {
		t.Fatalf("probe completed %d/%d", len(probe.Finished), len(reqs))
	}
	// Same-instant deliveries must actually occur, or the tie being
	// tested is vacuous. Delivery instant = first token + transfer.
	deliveries := map[float64]int{}
	for _, r := range probe.Finished {
		deliveries[r.FirstTok+r.TransferS]++
	}
	maxTied := 0
	for _, n := range deliveries {
		if n > maxTied {
			maxTied = n
		}
	}
	if maxTied < 2 {
		t.Fatal("construction produced no same-instant kv-transfer deliveries")
	}
	// Plant trace arrivals at exact delivery instants.
	tied := reqs
	for at := range deliveries {
		tied = append(tied, workload.Request{ID: id, Input: 128, Output: 32, Arrival: at})
		id++
	}
	res := assertDisaggModesIdentical(t, "transfer-ties", cfg, 2, 2, 16, tied)
	if len(res.Finished) != len(tied) {
		t.Fatalf("completed %d/%d", len(res.Finished), len(tied))
	}
	ticks := 0
	got := runDisagg(t, cfg, 2, 2, 16, tied, &ticks)
	if ticks != len(tied) {
		t.Errorf("scale-ticks fired %d times for %d trace arrivals (kv-transfers must not tick)", ticks, len(tied))
	}
	if !reflect.DeepEqual(got, res) {
		t.Error("installing a scale-tick observer changed the Result")
	}
}

// TestKernelDisaggSinkOrder pins the streaming hand-off for
// disaggregated fleets: the Sink sequence equals the sorted ledger —
// transfer-delay accounting included — in every mode.
func TestKernelDisaggSinkOrder(t *testing.T) {
	reqs, err := workload.PoissonTrace(workload.TraceConfig{
		Seed: 21, Requests: 40, RatePerSec: 6,
		InputMean: 256, OutputMean: 128, LengthJitter: 0.4,
	})
	if err != nil {
		t.Fatal(err)
	}
	cfg := des.Config{MaxBatch: 6, Transfer: testTransferCost(t)}
	ref := runDisagg(t, cfg, 1, 2, 16, reqs, nil)
	if len(ref.Finished) != len(reqs) {
		t.Fatalf("reference completed %d/%d", len(ref.Finished), len(reqs))
	}
	for mode, mcfg := range modes(cfg) {
		eng := testEngine(t)
		k := des.New(mcfg)
		pre := k.NewPoolStation(eng, testAlloc(t, 16), des.RolePrefill)
		decode := []*des.Station{
			k.NewPoolStation(eng, testAlloc(t, 16), des.RoleDecode),
			k.NewPoolStation(eng, testAlloc(t, 16), des.RoleDecode),
		}
		k.Route = func(now float64) *des.Station { return pre }
		rrx := 0
		k.RouteTransfer = func(now float64) *des.Station {
			s := decode[rrx%len(decode)]
			rrx++
			return s
		}
		var streamed []des.RequestStats
		k.Sink = func(r *des.RequestStats) { streamed = append(streamed, *r) }
		res, err := k.Run(reqs)
		if err != nil {
			t.Fatalf("%s: %v", mode, err)
		}
		if res.Completed != len(reqs) {
			t.Errorf("%s: Completed %d/%d", mode, res.Completed, len(reqs))
		}
		if !reflect.DeepEqual(streamed, ref.Finished) {
			t.Errorf("%s: Sink sequence differs from the sorted ledger", mode)
		}
	}
}

// TestKernelDisaggScratchReuse alternates disaggregated and
// aggregated runs over one arena: recycled station shells must not
// leak roles or transfer state across runs.
func TestKernelDisaggScratchReuse(t *testing.T) {
	reqs, err := workload.PoissonTrace(workload.TraceConfig{
		Seed: 13, Requests: 40, RatePerSec: 5,
		InputMean: 256, OutputMean: 128, LengthJitter: 0.4,
	})
	if err != nil {
		t.Fatal(err)
	}
	dcfg := des.Config{MaxBatch: 6, Transfer: testTransferCost(t)}
	acfg := des.Config{MaxBatch: 6}
	wantD := runDisagg(t, dcfg, 1, 2, 16, reqs, nil)
	wantA := runKernel(t, acfg, 3, 16, reqs)
	sc := &des.Scratch{}
	eng := testEngine(t)
	for round := 0; round < 2; round++ {
		k := des.New(dcfg)
		k.Reuse(sc)
		pre := k.NewPoolStation(eng, testAlloc(t, 16), des.RolePrefill)
		decode := []*des.Station{
			k.NewPoolStation(eng, testAlloc(t, 16), des.RoleDecode),
			k.NewPoolStation(eng, testAlloc(t, 16), des.RoleDecode),
		}
		k.Route = func(now float64) *des.Station { return pre }
		rrx := 0
		k.RouteTransfer = func(now float64) *des.Station {
			s := decode[rrx%len(decode)]
			rrx++
			return s
		}
		got, err := k.Run(reqs)
		if err != nil {
			t.Fatalf("disagg round %d: %v", round, err)
		}
		k.Release()
		if !reflect.DeepEqual(got, wantD) {
			t.Errorf("disagg round %d: recycled-arena Result differs", round)
		}
		// Aggregated run over the same (role-carrying) shells.
		k = des.New(acfg)
		k.Reuse(sc)
		stations := make([]*des.Station, 3)
		for i := range stations {
			stations[i] = k.NewStation(eng, testAlloc(t, 16))
		}
		rr := 0
		k.Route = func(now float64) *des.Station {
			s := stations[rr%3]
			rr++
			return s
		}
		got, err = k.Run(reqs)
		if err != nil {
			t.Fatalf("aggregated round %d: %v", round, err)
		}
		k.Release()
		if !reflect.DeepEqual(got, wantA) {
			t.Errorf("aggregated round %d: Result differs after disagg reuse", round)
		}
	}
}

func TestTransferCostSecondsAndValidate(t *testing.T) {
	tc := des.TransferCost{BlockTokens: 16, BytesPerToken: 1e5, GBPerS: 100, LatencyS: 2e-6}
	if err := tc.Validate(); err != nil {
		t.Fatal(err)
	}
	// 1..16 tokens round to one 16-token block; 17 to two.
	one := 16 * 1e5 / (100 * 1e9)
	if got := tc.Seconds(1); got != one+2e-6 {
		t.Errorf("Seconds(1) = %v, want %v", got, one+2e-6)
	}
	if got := tc.Seconds(16); got != one+2e-6 {
		t.Errorf("Seconds(16) = %v, want %v", got, one+2e-6)
	}
	if got := tc.Seconds(17); got != 2*one+2e-6 {
		t.Errorf("Seconds(17) = %v, want %v", got, 2*one+2e-6)
	}
	bad := []des.TransferCost{
		{BlockTokens: 0, BytesPerToken: 1, GBPerS: 1, LatencyS: 1e-6},
		{BlockTokens: 16, BytesPerToken: 0, GBPerS: 1, LatencyS: 1e-6},
		{BlockTokens: 16, BytesPerToken: 1, GBPerS: -600, LatencyS: 1e-6},
		{BlockTokens: 16, BytesPerToken: 1, GBPerS: math.NaN(), LatencyS: 1e-6},
		{BlockTokens: 16, BytesPerToken: 1, GBPerS: 1, LatencyS: 0},
		{BlockTokens: 16, BytesPerToken: 1, GBPerS: 1, LatencyS: math.Inf(1)},
		{BlockTokens: 16, BytesPerToken: math.NaN(), GBPerS: 1, LatencyS: 1e-6},
	}
	for i, b := range bad {
		if err := b.Validate(); !errors.Is(err, des.ErrBadTransfer) {
			t.Errorf("case %d: got %v, want ErrBadTransfer", i, err)
		}
	}
}

// TestKernelDisaggValidation covers the disaggregation-specific error
// paths: missing transfer router, invalid pricing, scheduling modes
// that do not compose with pool roles, and phase misrouting.
func TestKernelDisaggValidation(t *testing.T) {
	reqs := []workload.Request{{ID: 0, Input: 64, Output: 8, Arrival: 0}}
	mk := func(cfg des.Config) *des.Kernel {
		k := des.New(cfg)
		pre := k.NewPoolStation(testEngine(t), testAlloc(t, 1), des.RolePrefill)
		dec := k.NewPoolStation(testEngine(t), testAlloc(t, 1), des.RoleDecode)
		k.Route = func(float64) *des.Station { return pre }
		k.RouteTransfer = func(float64) *des.Station { return dec }
		return k
	}
	good := des.Config{MaxBatch: 4, Transfer: testTransferCost(t)}

	k := mk(good)
	k.RouteTransfer = nil
	if _, err := k.Run(reqs); err == nil {
		t.Error("prefill stations without RouteTransfer must fail")
	}
	badCfg := good
	badCfg.Transfer.GBPerS = 0
	if _, err := mk(badCfg).Run(reqs); !errors.Is(err, des.ErrBadTransfer) {
		t.Errorf("invalid transfer pricing: got %v, want ErrBadTransfer", err)
	}
	for name, cfg := range map[string]des.Config{
		"static":  {MaxBatch: 4, Static: true, Transfer: testTransferCost(t)},
		"chunked": {MaxBatch: 4, ChunkedPrefill: true, Transfer: testTransferCost(t)},
	} {
		if _, err := mk(cfg).Run(reqs); err == nil {
			t.Errorf("%s + pool roles must fail", name)
		}
	}
	// A trace arrival routed straight to a decode station is a phase
	// misroute: decode stations only accept kv-transfer deliveries.
	k = des.New(good)
	k.NewPoolStation(testEngine(t), testAlloc(t, 1), des.RolePrefill)
	dec := k.NewPoolStation(testEngine(t), testAlloc(t, 1), des.RoleDecode)
	k.Route = func(float64) *des.Station { return dec }
	k.RouteTransfer = func(float64) *des.Station { return dec }
	if _, err := k.Run(reqs); err == nil {
		t.Error("prefill-phase request at a decode station must fail")
	}
	// And a kv-transfer delivered back to the prefill pool is the
	// mirror-image misroute.
	k = des.New(good)
	pre := k.NewPoolStation(testEngine(t), testAlloc(t, 1), des.RolePrefill)
	k.NewPoolStation(testEngine(t), testAlloc(t, 1), des.RoleDecode)
	k.Route = func(float64) *des.Station { return pre }
	k.RouteTransfer = func(float64) *des.Station { return pre }
	if _, err := k.Run(reqs); err == nil {
		t.Error("decode-phase sub-request at a prefill station must fail")
	}
}

// TestKernelDeliveryBeforeCursorMatchesStepped forces the one hazard
// of lazy window keys: a kv-transfer delivered before a decode
// station's priced cursor. Request 0 decodes a 3000-step window on the
// decode station. Requests 1 and 2 reach the prefill station together
// at t=37; its pool holds only request 1's 8180-token prompt, so
// request 2 prefills in a second event. Request 1's transfer is slow
// (a 10 GB/s link), so the kernel advances the decode station's cursor
// up to that delivery while its key is a loose lower bound. Then the
// second prefill event schedules request 2's short transfer well
// before the cursor, and the cut must rewind and sum the window again
// from its start: the window's steps are summed twice, so Priced
// exceeds DecodeSteps. The run must still match Stepped bit-for-bit.
func TestKernelDeliveryBeforeCursorMatchesStepped(t *testing.T) {
	tc := testTransferCost(t)
	tc.GBPerS, tc.LatencyS = 10, 1e-3
	cfg := des.Config{MaxBatch: 8, Transfer: tc}
	f := func(t *testing.T, k *des.Kernel) {
		eng := testEngine(t)
		pre := k.NewPoolStation(eng, testAlloc(t, 1), des.RolePrefill)
		dec := k.NewPoolStation(eng, testAlloc(t, 16), des.RoleDecode)
		k.Route = func(float64) *des.Station { return pre }
		k.RouteTransfer = func(float64) *des.Station { return dec }
	}
	reqs := []workload.Request{
		{ID: 0, Input: 64, Output: 3000, Arrival: 0},
		{ID: 1, Input: 8180, Output: 8, Arrival: 37},
		{ID: 2, Input: 16, Output: 8, Arrival: 37},
	}
	c := assertMatchesStepped(t, "delivery-before-cursor", cfg, f, reqs)
	if c.Cuts == 0 || c.Priced <= c.DecodeSteps {
		t.Errorf("%d cuts, %d window steps summed for %d decode steps: no delivery landed before a priced cursor",
			c.Cuts, c.Priced, c.DecodeSteps)
	}
}

// TestKernelPrefillPoolCannotAdmit pins the admission error on a
// prefill-pool station: a prompt that does not fit an empty prefill
// station's pool never will (nothing survives a prefill event), so
// the run fails naming that station and request, exactly as an
// aggregated station does (TestKernelEarliestError).
func TestKernelPrefillPoolCannotAdmit(t *testing.T) {
	eng := testEngine(t)
	k := des.New(des.Config{MaxBatch: 4, Transfer: testTransferCost(t)})
	prefill := []*des.Station{
		k.NewPoolStation(eng, testAlloc(t, 16), des.RolePrefill),
		k.NewPoolStation(eng, testAlloc(t, 0.01), des.RolePrefill), // ~80 tokens
	}
	decode := k.NewPoolStation(eng, testAlloc(t, 16), des.RoleDecode)
	reqs := []workload.Request{
		{ID: 0, Input: 64, Output: 8, Arrival: 0},
		{ID: 1, Input: 1000, Output: 8, Arrival: 0.5},
	}
	next := 0
	k.Route = func(float64) *des.Station {
		s := prefill[reqs[next].ID%2]
		next++
		return s
	}
	k.RouteTransfer = func(float64) *des.Station { return decode }
	_, err := k.Run(reqs)
	const want = "des: station 1 cannot admit request 1 (input 1000): KV cache too small"
	if err == nil || err.Error() != want {
		t.Fatalf("got %v, want %q", err, want)
	}
}
