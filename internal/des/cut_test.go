package des_test

// Window-cut tests: a coalesced window stays open until its last step
// and is cut only by a delivery to its own station. The edge cases
// here place deliveries on the instants where a wrong cut would show
// (a step boundary, the last step's start, same-instant pairs, a
// kv-transfer mid-window, preemption), each checked bit-for-bit
// against the Stepped reference; the conservation oracle checks that
// every run drains with no window left uncommitted and no sequence
// extended twice; and the event counts prove the cut is per-station,
// not per-fleet.

import (
	"reflect"
	"testing"

	"llmbench/internal/des"
	"llmbench/internal/kvcache"
	"llmbench/internal/workload"
)

// fleet adds stations and routing callbacks to a fresh kernel.
type fleet func(t *testing.T, k *des.Kernel)

// leastLoaded routes to the station in group with the fewest
// outstanding requests, ties to the lowest ID.
func leastLoaded(group []*des.Station) func(float64) *des.Station {
	return func(float64) *des.Station {
		best := group[0]
		for _, s := range group[1:] {
			if s.Outstanding() < best.Outstanding() {
				best = s
			}
		}
		return best
	}
}

// llFleet is n least-loaded stations with plain paged allocators.
func llFleet(n int, capGiB float64) fleet {
	return func(t *testing.T, k *des.Kernel) {
		eng := testEngine(t)
		group := make([]*des.Station, n)
		for i := range group {
			group[i] = k.NewStation(eng, testAlloc(t, capGiB))
		}
		k.Route = leastLoaded(group)
	}
}

// tieredFleet is n least-loaded stations over tiered prefix caches.
func tieredFleet(n, prefixTokens int) fleet {
	return func(t *testing.T, k *des.Kernel) {
		eng := testEngine(t)
		group := make([]*des.Station, n)
		for i := range group {
			group[i] = k.NewStation(eng, tieredAlloc(t, prefixTokens, 16, 1))
		}
		k.Route = leastLoaded(group)
	}
}

// disaggFleet is nPre prefill and nDec decode stations, each pool
// routed least-loaded.
func disaggFleet(nPre, nDec int, capGiB float64) fleet {
	return func(t *testing.T, k *des.Kernel) {
		eng := testEngine(t)
		pre := make([]*des.Station, nPre)
		for i := range pre {
			pre[i] = k.NewPoolStation(eng, testAlloc(t, capGiB), des.RolePrefill)
		}
		dec := make([]*des.Station, nDec)
		for i := range dec {
			dec[i] = k.NewPoolStation(eng, testAlloc(t, capGiB), des.RoleDecode)
		}
		k.Route = leastLoaded(pre)
		k.RouteTransfer = leastLoaded(dec)
	}
}

// autoFleet starts one station and, at each scale-tick, adds one (up
// to max) when mean outstanding exceeds 4 and retires an empty one
// when the rest could carry the load: stations join and leave while
// other stations' windows are open.
func autoFleet(max int, capGiB float64) fleet {
	return func(t *testing.T, k *des.Kernel) {
		eng := testEngine(t)
		k.NewStation(eng, testAlloc(t, capGiB))
		retired := map[*des.Station]bool{}
		live := func() []*des.Station {
			var out []*des.Station
			for _, s := range k.Stations() {
				if !retired[s] {
					out = append(out, s)
				}
			}
			return out
		}
		k.ScaleTick = func(float64) error {
			act := live()
			load := 0
			for _, s := range act {
				load += s.Outstanding()
			}
			if len(act) < max && load > 4*len(act) {
				k.NewStation(eng, testAlloc(t, capGiB))
			} else if len(act) > 1 && load <= 2*(len(act)-1) {
				for _, s := range act {
					if s.Outstanding() == 0 {
						retired[s] = true
						break
					}
				}
			}
			return nil
		}
		k.Route = func(now float64) *des.Station { return leastLoaded(live())(now) }
	}
}

// runFleet builds a kernel with cfg, lets f populate it and runs reqs.
func runFleet(t *testing.T, cfg des.Config, f fleet, reqs []workload.Request) (des.Result, *des.Kernel) {
	t.Helper()
	k := des.New(cfg)
	f(t, k)
	res, err := k.Run(reqs)
	if err != nil {
		t.Fatal(err)
	}
	return res, k
}

// assertMatchesStepped runs the fleet stepped and coalesced and
// requires the coalesced Result to equal the stepped reference
// bit-for-bit, both runs to conserve their requests and KV
// (assertConserved) and to count their deliveries and completions
// (assertCounted), and both to execute the same decode iterations. It
// returns the coalesced run's event counts.
func assertMatchesStepped(t *testing.T, name string, cfg des.Config, f fleet, reqs []workload.Request) des.EventCounts {
	t.Helper()
	stepped := cfg
	stepped.Stepped = true
	ref, ks := runFleet(t, stepped, f, reqs)
	assertConserved(t, name, ref, ks, reqs)
	assertCounted(t, name+" stepped", ref, ks, reqs)
	refCounts := ks.Counts()
	if refCounts.Windows != 0 || refCounts.Cuts != 0 {
		t.Errorf("%s: Stepped run opened %d windows and cut %d", name, refCounts.Windows, refCounts.Cuts)
	}
	res, k := runFleet(t, cfg, f, reqs)
	assertConserved(t, name, res, k, reqs)
	assertCounted(t, name+" coalesced", res, k, reqs)
	c := k.Counts()
	if !reflect.DeepEqual(res, ref) {
		t.Errorf("%s: coalesced Result differs from the stepped reference", name)
	}
	if c.DecodeSteps != refCounts.DecodeSteps {
		t.Errorf("%s: coalesced run ran %d decode steps, stepped reference %d", name, c.DecodeSteps, refCounts.DecodeSteps)
	}
	if c.Windows == 0 {
		t.Errorf("%s: coalesced run opened no windows; the comparison is vacuous", name)
	}
	return c
}

// assertCounted checks the kernel's delivery and completion counters
// against the trace and the Result: one arrival per trace request, one
// kv-transfer delivery per prefill hand-off, one completion per
// completed request, at least one station event per completion, and
// one scale tick per arrival when an autoscaler is set (none without).
func assertCounted(t *testing.T, name string, res des.Result, k *des.Kernel, reqs []workload.Request) {
	t.Helper()
	c := k.Counts()
	transferred := 0
	for _, ps := range res.PerStation {
		transferred += ps.Transferred
	}
	if c.Arrivals != len(reqs) || c.Transfers != transferred || c.Completions != res.Completed {
		t.Errorf("%s: counted %d arrivals, %d transfers, %d completions; want %d, %d, %d",
			name, c.Arrivals, c.Transfers, c.Completions, len(reqs), transferred, res.Completed)
	}
	if c.Events < c.Windows || c.Events == 0 {
		t.Errorf("%s: %d station events for %d windows", name, c.Events, c.Windows)
	}
	ticks := 0
	if k.ScaleTick != nil {
		ticks = c.Arrivals
	}
	if c.ScaleTicks != ticks {
		t.Errorf("%s: counted %d scale ticks for %d arrivals, want %d", name, c.ScaleTicks, c.Arrivals, ticks)
	}
}

// assertConserved is the drain oracle: every request completes exactly
// once, and every station's allocator holds no sequence and no bytes.
// An open window left uncommitted leaves its sequences allocated; a
// cut that double-extends leaks blocks past the final Free.
func assertConserved(t *testing.T, name string, res des.Result, k *des.Kernel, reqs []workload.Request) {
	t.Helper()
	seen := make(map[int]int, len(reqs))
	for _, r := range res.Finished {
		seen[r.ID]++
	}
	for _, r := range reqs {
		if n := seen[r.ID]; n != 1 {
			t.Errorf("%s: request %d completed %d times", name, r.ID, n)
		}
	}
	if len(res.Finished) != len(reqs) || res.Completed != len(reqs) {
		t.Errorf("%s: %d finished records, Completed %d, for %d requests",
			name, len(res.Finished), res.Completed, len(reqs))
	}
	for _, s := range k.Stations() {
		if sq, ok := s.Alloc.(interface{ Sequences() int }); ok && sq.Sequences() != 0 {
			t.Errorf("%s: station %d allocator holds %d sequences after drain", name, s.ID, sq.Sequences())
		}
		if p, ok := s.Alloc.(*kvcache.Paged); ok && p.UsedBytes() != 0 {
			t.Errorf("%s: station %d paged pool holds %v bytes after drain", name, s.ID, p.UsedBytes())
		}
	}
}

// boundaries returns the step boundaries of the coalesced window a
// lone station opens after admitting two prompts of input tokens at
// t=0 and running their first decode step: b[0] is the window's
// start and b[i] the end of its i-th step, each summed left to right
// exactly as the kernel sums them.
func boundaries(t *testing.T, input, steps int) []float64 {
	t.Helper()
	eng := testEngine(t)
	pf, err := eng.PrefillSeconds(2, input)
	if err != nil {
		t.Fatal(err)
	}
	dc, err := eng.DecodeStepSeconds(2, input+1)
	if err != nil {
		t.Fatal(err)
	}
	step := 0.0
	step += pf
	step += dc
	b := []float64{0 + step}
	for i := 0; i < steps; i++ {
		c, err := eng.DecodeStepSeconds(2, input+2+i)
		if err != nil {
			t.Fatal(err)
		}
		b = append(b, b[i]+c)
	}
	return b
}

// TestKernelCutEdgesMatchesStepped places deliveries on the instants
// where a cut can go wrong and checks each run bit-for-bit against
// the Stepped reference.
func TestKernelCutEdgesMatchesStepped(t *testing.T) {
	// Two prompts at t=0 open one window of 198 steps on a lone
	// station (the shorter request completes at its end).
	const input, short, long = 256, 200, 300
	b := boundaries(t, input, short-2)
	pair := func(extra ...workload.Request) []workload.Request {
		reqs := []workload.Request{
			{ID: 0, Input: input, Output: short, Arrival: 0},
			{ID: 1, Input: input, Output: long, Arrival: 0},
		}
		return append(reqs, extra...)
	}
	plain := des.Config{MaxBatch: 8}
	one := llFleet(1, 16)
	cases := []struct {
		name string
		cfg  des.Config
		f    fleet
		reqs []workload.Request
	}{
		// First boundary at or after the delivery is the delivery
		// itself: exactly 10 steps commit before admission.
		{"step-boundary", plain, one, pair(workload.Request{ID: 2, Input: 128, Output: 32, Arrival: b[10]})},
		// The open window's event time: the delivery runs first and
		// must cut before the last step, so request 0's completion is
		// not committed early — it finishes after the admission.
		{"last-step-start", plain, one, pair(workload.Request{ID: 2, Input: 128, Output: 32, Arrival: b[short-3]})},
		// Two same-instant arrivals mid-step: one cut, both admitted
		// at the next boundary.
		{"same-instant-pair", plain, one, pair(
			workload.Request{ID: 2, Input: 128, Output: 32, Arrival: (b[20] + b[21]) / 2},
			workload.Request{ID: 3, Input: 192, Output: 48, Arrival: (b[20] + b[21]) / 2},
		)},
		// A kv-transfer delivered into the decode station's open
		// window: request 0 decodes for seconds, request 1's prefill
		// and transfer land inside that window.
		{"kv-transfer", des.Config{MaxBatch: 8, Transfer: testTransferCost(t)}, disaggFleet(1, 1, 16), []workload.Request{
			{ID: 0, Input: input, Output: 400, Arrival: 0},
			{ID: 1, Input: 128, Output: 64, Arrival: 0.5},
			{ID: 2, Input: 512, Output: 16, Arrival: 1.25},
		}},
		// A single station on a tiny KV pool: windows end at the KV
		// headroom bound and arrivals cut them between evictions.
		{"preemptive", des.Config{MaxBatch: 6}, llFleet(1, 0.3), func() []workload.Request {
			reqs, err := workload.PoissonTrace(workload.TraceConfig{
				Seed: 9, Requests: 16, RatePerSec: 2,
				InputMean: 256, OutputMean: 512, LengthJitter: 0.4,
			})
			if err != nil {
				t.Fatal(err)
			}
			return reqs
		}()},
	}
	for _, c := range cases {
		counts := assertMatchesStepped(t, c.name, c.cfg, c.f, c.reqs)
		if counts.Cuts == 0 {
			t.Errorf("%s: no window was cut; the edge is not exercised", c.name)
		}
	}

	// The last-step-start case pins where request 0 finishes: after
	// request 2's admission at b[short-3], not at the window's end.
	res, _ := runFleet(t, plain, one, cases[1].reqs)
	for _, r := range res.Finished {
		if r.ID == 2 && r.Started != b[short-3] {
			t.Errorf("request 2 admitted at %v, want the last step's start %v", r.Started, b[short-3])
		}
		if r.ID == 0 && !(r.Finished > b[short-2]) {
			t.Errorf("request 0 finished at %v, want after the admission stall (uncut end %v)", r.Finished, b[short-2])
		}
	}
}

// TestKernelConservedAtDrain runs the conservation oracle across the
// kernel-mode matrix: plain, preemptive, chunked prefill over tiered
// prefix caches, disaggregated and autoscaled fleets, each coalesced
// and stepped.
func TestKernelConservedAtDrain(t *testing.T) {
	poisson := func(seed uint64, n int, rate float64, in, out int) []workload.Request {
		reqs, err := workload.PoissonTrace(workload.TraceConfig{
			Seed: seed, Requests: n, RatePerSec: rate,
			InputMean: in, OutputMean: out, LengthJitter: 0.4,
		})
		if err != nil {
			t.Fatal(err)
		}
		return reqs
	}
	cases := []struct {
		name string
		cfg  des.Config
		f    fleet
		reqs []workload.Request
	}{
		{"plain", des.Config{MaxBatch: 8}, llFleet(3, 16), poisson(31, 60, 10, 256, 128)},
		{"preemptive", des.Config{MaxBatch: 6}, llFleet(2, 0.3), poisson(32, 24, 3, 256, 512)},
		{"chunked-tiered", des.Config{MaxBatch: 8, ChunkedPrefill: true, PrefillChunk: 256},
			tieredFleet(2, 1024), sharedPrefixTrace(24, 1024, 96, 64, 0.15)},
		{"disaggregated", des.Config{MaxBatch: 8, Transfer: testTransferCost(t)}, disaggFleet(2, 3, 16), poisson(33, 60, 10, 256, 128)},
		{"autoscaled", des.Config{MaxBatch: 8}, autoFleet(4, 16), poisson(34, 80, 12, 256, 128)},
	}
	for _, c := range cases {
		counts := assertMatchesStepped(t, c.name, c.cfg, c.f, c.reqs)
		if counts.DecodeSteps == 0 {
			t.Errorf("%s: no decode steps counted", c.name)
		}
	}
}

// TestKernelWindowsPerRequest proves the per-station cut is live: on
// a 32-station least-loaded fleet under dense chat arrivals (a
// scaled-down chat-day shape), a window is cut only by arrivals to
// its own station, so coalesced runs stay under 2 windows per
// completed request. Cutting every window at every fleet arrival
// runs about 8.6.
func TestKernelWindowsPerRequest(t *testing.T) {
	reqs, err := workload.PoissonTrace(workload.TraceConfig{
		Seed: 1, Requests: 5000, RatePerSec: 200,
		InputMean: 256, OutputMean: 64, LengthJitter: 0.3,
	})
	if err != nil {
		t.Fatal(err)
	}
	cfg := des.Config{MaxBatch: 32}
	res, k := runFleet(t, cfg, llFleet(32, 30), reqs)
	c := k.Counts()
	if res.Completed != len(reqs) {
		t.Fatalf("completed %d/%d", res.Completed, len(reqs))
	}
	perReq := float64(c.Windows) / float64(res.Completed)
	if perReq >= 2 {
		t.Errorf("%.2f windows per completed request (%d windows, %d cuts), want < 2", perReq, c.Windows, c.Cuts)
	}
	if c.Cuts > len(reqs) {
		t.Errorf("%d cuts for %d arrivals: only a delivery may cut a window", c.Cuts, len(reqs))
	}
	cfg.Stepped = true
	_, ks := runFleet(t, cfg, llFleet(32, 30), reqs)
	if got, want := c.DecodeSteps, ks.Counts().DecodeSteps; got != want {
		t.Errorf("coalesced run executed %d decode steps, stepped %d", got, want)
	}
}

// TestKernelLazyWindowCounts runs a scaled-down long-decode shape
// (sparse 256:1024 requests on 8 least-loaded stations, the per-station
// load of 32 stations at 8 req/s) and checks the lazy window keys in
// the counters: each committed window step is summed once, so Priced
// stays at or below DecodeSteps (summing every window whole when it
// opened ran about twice DecodeSteps), and the re-keys leave every
// other count where the kernel that priced windows eagerly left it.
// Priced and Rekeys are pinned too: a change to how the cursor sums a
// window must lower the cost of each summed step, not move how many
// are summed or when.
func TestKernelLazyWindowCounts(t *testing.T) {
	reqs, err := workload.PoissonTrace(workload.TraceConfig{
		Seed: 1, Requests: 2000, RatePerSec: 2,
		InputMean: 256, OutputMean: 1024, LengthJitter: 0.3,
	})
	if err != nil {
		t.Fatal(err)
	}
	_, k := runFleet(t, des.Config{MaxBatch: 16}, llFleet(8, 30), reqs)
	c := k.Counts()
	if c.Priced > c.DecodeSteps || c.Rekeys == 0 {
		t.Errorf("summed %d window steps with %d re-keys for %d decode steps; want ≤ the decode steps and some re-keys",
			c.Priced, c.Rekeys, c.DecodeSteps)
	}
	want := des.EventCounts{Arrivals: 2000, Events: 7914, Windows: 3921, DecodeSteps: 632153, Cuts: 1932, Completions: 2000,
		Priced: 630149, Rekeys: 2104}
	if c != want {
		t.Errorf("event counts %+v, want %+v", c, want)
	}
}
