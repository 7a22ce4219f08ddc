package des_test

// The gauge oracle: the kernel keeps one dense gauge per station (load,
// prefix residency, prefill backlog) current at the points where they
// change, and routers read nothing else. AuditGauges (export_test.go)
// recounts every gauge from its station after every event and every
// delivery, on each fleet shape the kernel serves: prefix-routed
// chunked tiered, disaggregated, static, preempting (plain and
// prefix-sharing pools) and autoscaled, each coalesced and stepped.

import (
	"testing"

	"llmbench/internal/des"
	"llmbench/internal/dtype"
	"llmbench/internal/kvcache"
	"llmbench/internal/model"
	"llmbench/internal/workload"
)

// prefixRouted is n stations over tiered prefix caches behind a router
// that reads only the kernel's gauges: among the stations within 2 of
// the lightest load, the highest 2·Hot + Restorable wins (a station
// still establishing its prefix scores its hot tokens cold), ties to
// the lighter station, then the lower ID.
func prefixRouted(n, prefixTokens int, hostGiB float64) fleet {
	return func(t *testing.T, k *des.Kernel) {
		eng := testEngine(t)
		for range n {
			k.NewStation(eng, tieredAlloc(t, prefixTokens, 16, hostGiB))
		}
		k.Route = func(float64) *des.Station {
			g := k.Gauges()
			minLoad := g[0].Load
			for _, x := range g {
				minLoad = min(minLoad, x.Load)
			}
			best, bestScore := -1, -1
			for i, x := range g {
				if x.Load > minLoad+2 {
					continue
				}
				hot := x.Hot
				if 2*x.Pending >= hot {
					hot = 0
				}
				if score := 2*hot + x.Restorable; score > bestScore || (score == bestScore && x.Load < g[best].Load) {
					best, bestScore = i, score
				}
			}
			return k.Stations()[best]
		}
	}
}

// prefixPagedFleet is n least-loaded stations over prefix-sharing
// pools of capGiB with no host tier: the ext8 shape, preempting when
// the pool is small.
func prefixPagedFleet(n, prefixTokens int, capGiB float64) fleet {
	return func(t *testing.T, k *des.Kernel) {
		eng := testEngine(t)
		m := model.MustGet("LLaMA-3-8B")
		group := make([]*des.Station, n)
		for i := range group {
			a, err := kvcache.NewPrefixPaged(16, prefixTokens, m.KVBytesPerToken(dtype.FP16), capGiB*(1<<30))
			if err != nil {
				t.Fatal(err)
			}
			group[i] = k.NewStation(eng, a)
		}
		k.Route = leastLoaded(group)
	}
}

// waves is a shared-prefix trace of n waves of per requests each, 20 ms
// apart within a wave and gap seconds between waves: every wave drains
// the fleet, so the next one meets demoted prefixes.
func waves(n, per, prefixTokens int, gap float64) []workload.Request {
	var reqs []workload.Request
	for w := range n {
		for i := range per {
			reqs = append(reqs, workload.Request{
				ID: len(reqs), Input: prefixTokens + 32 + 16*(i%5), Output: 16 + 8*(i%4),
				Arrival: float64(w)*gap + 0.02*float64(i),
			})
		}
	}
	return reqs
}

func TestKernelGaugesMatchStations(t *testing.T) {
	poisson := func(seed uint64, n int, rate float64, in, out int) []workload.Request {
		reqs, err := workload.PoissonTrace(workload.TraceConfig{
			Seed: seed, Requests: n, RatePerSec: rate, InputMean: in, OutputMean: out, LengthJitter: 0.4,
		})
		if err != nil {
			t.Fatal(err)
		}
		return reqs
	}
	chunked := des.Config{MaxBatch: 8, ChunkedPrefill: true, PrefillChunk: 256}
	cases := []struct {
		name     string
		cfg      des.Config
		fleet    fleet
		reqs     []workload.Request
		prefix   bool // the oracle must see hot, restorable and pending gauges
		preempts bool // the run must preempt
		scales   bool // the run must add a station mid-run
	}{
		{name: "prefix-routed chunked tiered", cfg: chunked, fleet: prefixRouted(3, 1024, 1),
			reqs: waves(4, 18, 1024, 30), prefix: true},
		{name: "disaggregated", cfg: des.Config{MaxBatch: 6, Transfer: testTransferCost(t)},
			fleet: disaggFleet(2, 2, 16), reqs: poisson(3, 40, 6, 512, 96)},
		{name: "static tiered", cfg: des.Config{MaxBatch: 4, Static: true}, fleet: tieredFleet(2, 1024),
			reqs: waves(3, 10, 1024, 20)},
		{name: "preempting", cfg: des.Config{MaxBatch: 6}, fleet: llFleet(2, 0.3),
			reqs: poisson(9, 24, 3, 256, 512), preempts: true},
		{name: "preempting prefix-sharing chunked", cfg: chunked, fleet: prefixPagedFleet(2, 512, 0.3),
			reqs: sharedPrefixTrace(16, 512, 64, 512, 0.1), preempts: true},
		{name: "autoscaled", cfg: des.Config{MaxBatch: 4}, fleet: autoFleet(4, 16),
			reqs: poisson(5, 60, 12, 256, 96), scales: true},
	}
	for _, c := range cases {
		for mode, cfg := range modes(c.cfg) {
			t.Run(c.name+"/"+mode, func(t *testing.T) {
				k := des.New(cfg)
				c.fleet(t, k)
				audit := des.AuditGauges(k, t)
				res, err := k.Run(c.reqs)
				if err != nil {
					t.Fatal(err)
				}
				if res.Completed != len(c.reqs) {
					t.Fatalf("completed %d/%d", res.Completed, len(c.reqs))
				}
				// At least one check per delivery and per event.
				if n := k.Counts(); audit.Checks < n.Arrivals+n.Transfers+n.Events {
					t.Errorf("%d checks for %d deliveries and %d events", audit.Checks, n.Arrivals+n.Transfers, n.Events)
				}
				if c.prefix && !(audit.Hot && audit.Restorable && audit.Pending) {
					t.Errorf("prefix fleet never showed every prefix gauge: hot %v, restorable %v, pending %v",
						audit.Hot, audit.Restorable, audit.Pending)
				}
				if c.preempts && res.Preemptions == 0 {
					t.Error("the fleet never preempted: the case is vacuous")
				}
				if c.scales && len(k.Stations()) < 2 {
					t.Error("the autoscaler never added a station mid-run")
				}
			})
		}
	}
}
