package llmbench

import (
	"bytes"
	"math"
	"reflect"
	"strings"
	"testing"

	"llmbench/internal/cluster"
	"llmbench/internal/workload"
)

var serveSweepCfg = ServeSweepConfig{
	System:   System{Model: "Mistral-7B", Device: "A100", Framework: "vLLM"},
	MaxBatch: 8,
	Seed:     7, Requests: 24, InputMean: 256, OutputMean: 64,
}

// directClusterServe hand-builds the cluster.Serve run of a fixed-fleet
// point at a grid's first trace position: the base seed's Poisson
// trace at rate, one cached engine, and a device-sized paged allocator
// per replica. ccfg supplies the policy, batching, and batch cap.
func directClusterServe(t *testing.T, cfg ServeSweepConfig, replicas int, ccfg cluster.Config, rate float64) cluster.Stats {
	t.Helper()
	eng, err := CachedEngine(cfg.System)
	if err != nil {
		t.Fatal(err)
	}
	budget, err := servingKVBudget(cfg.System, cfg.KVBudgetGiB)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < replicas; i++ {
		alloc, err := servingAlloc(cfg.System, budget)
		if err != nil {
			t.Fatal(err)
		}
		ccfg.Replicas = append(ccfg.Replicas, cluster.Replica{Engine: eng, Alloc: alloc})
	}
	reqs, err := workload.PoissonTrace(workload.TraceConfig{
		Seed: cfg.Seed, Requests: cfg.Requests, RatePerSec: rate,
		InputMean: cfg.InputMean, OutputMean: cfg.OutputMean, LengthJitter: 0.3,
	})
	if err != nil {
		t.Fatal(err)
	}
	st, err := cluster.Serve(ccfg, reqs)
	if err != nil {
		t.Fatal(err)
	}
	return st
}

// TestServeSweepGridOrderAndValues pins the axis nesting (Policies ▸
// Replicas ▸ MaxBatches ▸ Rates) and that a continuous fixed-fleet
// point is byte-identical to a direct cluster.Serve run of the same
// configuration and trace.
func TestServeSweepGridOrderAndValues(t *testing.T) {
	grid := ServeGrid{
		Rates:    []float64{4, 8},
		Replicas: []int{1, 2},
		Policies: []ServePolicy{{}, {LeastLoaded: true}},
	}
	pts, err := ServeSweep(serveSweepCfg, grid)
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) != 2*2*2 {
		t.Fatalf("got %d points, want 8", len(pts))
	}
	i := 0
	for _, pol := range grid.Policies {
		for _, reps := range grid.Replicas {
			for _, rate := range grid.Rates {
				p := pts[i]
				if p.Policy != pol || p.Replicas != reps || p.Rate != rate || p.MaxBatch != 8 {
					t.Errorf("point %d = %v/%d×%d@%g, want %v/%d×8@%g",
						i, p.Policy, p.Replicas, p.MaxBatch, p.Rate, pol, reps, rate)
				}
				if p.Err != nil {
					t.Errorf("point %d failed: %v", i, p.Err)
				}
				if p.Stats.Completed != serveSweepCfg.Requests {
					t.Errorf("point %d completed %d/%d", i, p.Stats.Completed, serveSweepCfg.Requests)
				}
				if len(p.PerReplica) != reps {
					t.Errorf("point %d has %d per-replica entries, want %d", i, len(p.PerReplica), reps)
				}
				i++
			}
		}
	}

	// The first rate's trace seed equals the base seed, so the
	// least-loaded 2-replica point must match cluster.Serve exactly.
	direct := directClusterServe(t, serveSweepCfg, 2, cluster.Config{Policy: cluster.LeastLoaded, MaxBatch: 8}, grid.Rates[0])
	p := pts[6] // policy {LeastLoaded}, replicas 2, rate 4
	if !reflect.DeepEqual(p.Stats, direct.Stats) || !reflect.DeepEqual(p.PerReplica, direct.PerReplica) {
		t.Error("sweep point differs from a direct cluster.Serve of the same configuration")
	}
}

// TestServeSweepDeterministicAcrossParallelism is the serving
// analogue of the Sweep determinism property: the full result slice —
// every percentile, per-replica share, and autoscale trajectory — is
// byte-identical at Parallelism 1 and 8 (run under -race in CI).
func TestServeSweepDeterministicAcrossParallelism(t *testing.T) {
	grid := ServeGrid{
		Rates:      []float64{3, 6},
		Replicas:   []int{1, 2},
		MaxBatches: []int{4, 8},
		Policies:   []ServePolicy{{}, {LeastLoaded: true}, {Autoscale: true}, {Static: true}},
	}
	grid.Parallelism = 1
	serial, err := ServeSweep(serveSweepCfg, grid)
	if err != nil {
		t.Fatal(err)
	}
	grid.Parallelism = 8
	parallel, err := ServeSweep(serveSweepCfg, grid)
	if err != nil {
		t.Fatal(err)
	}
	if len(serial) != len(parallel) {
		t.Fatalf("length mismatch: %d vs %d", len(serial), len(parallel))
	}
	for i := range serial {
		if !reflect.DeepEqual(serial[i], parallel[i]) {
			t.Errorf("point %d differs between parallelism 1 and 8", i)
		}
	}
}

// TestServeSweepSameRateSharesTrace: points at one rate see one
// arrival process, so the policy axis compares like for like — the
// request count and arrival-dependent queue stats line up across
// replica counts without the trace changing under them.
func TestServeSweepSameRateSharesTrace(t *testing.T) {
	pts, err := ServeSweep(serveSweepCfg, ServeGrid{
		Rates: []float64{5}, Replicas: []int{1, 2},
	})
	if err != nil {
		t.Fatal(err)
	}
	a, b := pts[0].Stats.Requests, pts[1].Stats.Requests
	if len(a) != len(b) {
		t.Fatalf("request ledgers differ in length: %d vs %d", len(a), len(b))
	}
	arrivals := func(rs []RequestStats) map[int]float64 {
		m := make(map[int]float64, len(rs))
		for _, r := range rs {
			m[r.ID] = r.Arrival
		}
		return m
	}
	if !reflect.DeepEqual(arrivals(a), arrivals(b)) {
		t.Error("same-rate points must share one arrival trace")
	}
}

// TestServeSweepPerPointErrors: a combination that cannot build and a
// length mix ChatTrace rejects both fail individually while the rest
// of the sweep proceeds. (Static points no longer fail at Replicas >
// 1 — static batching rides the cluster kernel; see
// TestServeSweepStaticCluster.)
func TestServeSweepPerPointErrors(t *testing.T) {
	// FP8 weights cannot build on A100: that combination's points
	// carry the build error, the fp16 combination survives.
	pts, err := ServeSweep(serveSweepCfg, ServeGrid{
		Rates:   []float64{4},
		Schemes: []Scheme{{"fp8", "fp8"}, {"fp16", "fp16"}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if pts[0].Err == nil {
		t.Error("fp8 combination on A100 must fail per point")
	}
	if pts[1].Err != nil {
		t.Errorf("fp16 combination must survive: %v", pts[1].Err)
	}

	// A length mix under ChatTrace's median floor (16) passes grid
	// validation but fails its own points with the generator's error;
	// the valid mix's points survive.
	pts, err = ServeSweep(serveSweepCfg, ServeGrid{
		Rates:       []float64{4},
		LengthMixes: []LengthMix{{Input: 8, Output: 64}, {Input: 256, Output: 64}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) != 2 {
		t.Fatalf("got %d points, want 2", len(pts))
	}
	if pts[0].Err == nil || !strings.Contains(pts[0].Err.Error(), "medians") {
		t.Errorf("sub-floor mix must fail per point with ChatTrace's error, got %v", pts[0].Err)
	}
	if pts[1].Err != nil {
		t.Errorf("valid mix must survive: %v", pts[1].Err)
	}
}

// TestServeSweepStaticCluster: the Policies × Replicas grid has no
// static hole left — multi-replica static points succeed, match a
// direct static cluster.Serve run byte for byte, and never preempt.
func TestServeSweepStaticCluster(t *testing.T) {
	grid := ServeGrid{
		Rates:    []float64{6},
		Replicas: []int{1, 2, 4},
		Policies: []ServePolicy{{Static: true}, {Static: true, LeastLoaded: true}},
	}
	pts, err := ServeSweep(serveSweepCfg, grid)
	if err != nil {
		t.Fatal(err)
	}
	for i, p := range pts {
		if p.Err != nil {
			t.Errorf("static point %d (%d replicas) failed: %v", i, p.Replicas, p.Err)
			continue
		}
		if p.Stats.Completed != serveSweepCfg.Requests {
			t.Errorf("static point %d completed %d/%d", i, p.Stats.Completed, serveSweepCfg.Requests)
		}
		if p.Stats.Preemptions != 0 {
			t.Errorf("static point %d preempted %d times", i, p.Stats.Preemptions)
		}
		if len(p.PerReplica) != p.Replicas {
			t.Errorf("static point %d has %d per-replica entries, want %d", i, len(p.PerReplica), p.Replicas)
		}
	}
	direct := directClusterServe(t, serveSweepCfg, 2, cluster.Config{Static: true, MaxBatch: 8}, 6)
	p := pts[1] // policy {Static}, replicas 2
	if !reflect.DeepEqual(p.Stats, direct.Stats) || !reflect.DeepEqual(p.PerReplica, direct.PerReplica) {
		t.Error("static sweep point differs from a direct static cluster.Serve of the same configuration")
	}
}

// TestServeSweepPolicyReplicasBurstCube is the acceptance grid of the
// static-on-DES port: {Static, Continuous} × Replicas{1,2,8} ×
// BurstFactors{1,4} returns zero per-point errors.
func TestServeSweepPolicyReplicasBurstCube(t *testing.T) {
	grid := ServeGrid{
		Rates:        []float64{8},
		Replicas:     []int{1, 2, 8},
		Policies:     []ServePolicy{{Static: true}, {}},
		BurstFactors: []float64{1, 4},
	}
	pts, err := ServeSweep(serveSweepCfg, grid)
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) != 2*3*2 {
		t.Fatalf("got %d points, want 12", len(pts))
	}
	for i, p := range pts {
		if p.Err != nil {
			t.Errorf("point %d (%v, %d replicas, burst %g) failed: %v",
				i, p.Policy, p.Replicas, p.BurstFactor, p.Err)
		}
		if p.Stats.Completed != serveSweepCfg.Requests {
			t.Errorf("point %d completed %d/%d", i, p.Stats.Completed, serveSweepCfg.Requests)
		}
	}
}

// TestServeSweepAutoscalePoint: autoscale points report the scaling
// high-water mark and stay within the point's replica ceiling.
func TestServeSweepAutoscalePoint(t *testing.T) {
	cfg := serveSweepCfg
	cfg.Requests = 60
	pts, err := ServeSweep(cfg, ServeGrid{
		Rates:    []float64{12},
		Replicas: []int{3},
		Policies: []ServePolicy{{Autoscale: true}},
	})
	if err != nil {
		t.Fatal(err)
	}
	p := pts[0]
	if p.Err != nil {
		t.Fatal(p.Err)
	}
	if p.PeakReplicas < 1 || p.PeakReplicas > 3 {
		t.Errorf("peak replicas %d outside [1, 3]", p.PeakReplicas)
	}
	if p.Stats.Completed != cfg.Requests {
		t.Errorf("completed %d/%d", p.Stats.Completed, cfg.Requests)
	}
}

// TestInvalidKVBudgetRejected: a negative KVBudgetGiB used to fall
// through the `budget > 0` guard and silently auto-size from device
// memory (and +Inf overflowed the allocator's block count). Every
// serving shape — one replica, a fixed fleet, an autoscaled fleet —
// must reject non-finite and negative device and host-tier budgets.
func TestInvalidKVBudgetRejected(t *testing.T) {
	base := serveSweepCfg
	grids := map[string]ServeGrid{
		"single":    {Rates: []float64{1}},
		"fleet":     {Rates: []float64{1}, Replicas: []int{2}, Policies: []ServePolicy{{LeastLoaded: true}}},
		"autoscale": {Rates: []float64{1}, Replicas: []int{2}, Policies: []ServePolicy{{Autoscale: true}}},
	}
	for name, grid := range grids {
		for _, budget := range []float64{-1, -0.5, math.NaN(), math.Inf(1)} {
			badBudget := base
			badBudget.KVBudgetGiB = budget
			if _, err := ServeSweep(badBudget, grid); err == nil ||
				!strings.Contains(err.Error(), "invalid KV budget") {
				t.Errorf("%s: KV budget %v must be rejected, got %v", name, budget, err)
			}
			badHost := base
			badHost.HostKVGiB = budget
			if _, err := ServeSweep(badHost, grid); err == nil ||
				!strings.Contains(err.Error(), "invalid KV budget") {
				t.Errorf("%s: host KV budget %v must be rejected, got %v", name, budget, err)
			}
		}
		// Positive budgets still pass through unchanged.
		explicit := base
		explicit.KVBudgetGiB = 4
		if pts, err := ServeSweep(explicit, grid); err != nil || pts[0].Err != nil {
			t.Errorf("%s: explicit positive budget must work: %v %v", name, err, pts)
		}
	}
}

func TestServeSweepValidation(t *testing.T) {
	base := serveSweepCfg
	cases := []struct {
		name string
		cfg  ServeSweepConfig
		grid ServeGrid
		want string
	}{
		{"no rates", base, ServeGrid{}, "no rates"},
		{"zero rate", base, ServeGrid{Rates: []float64{0}}, "positive"},
		{"negative rate", base, ServeGrid{Rates: []float64{-2}}, "positive"},
		{"NaN rate", base, ServeGrid{Rates: []float64{math.NaN()}}, "positive"},
		{"Inf rate", base, ServeGrid{Rates: []float64{math.Inf(1)}}, "positive"},
		{"zero replicas", base, ServeGrid{Rates: []float64{1}, Replicas: []int{0}}, "≥ 1"},
		{"zero max batch", base, ServeGrid{Rates: []float64{1}, MaxBatches: []int{0}}, "≥ 1"},
		{"sub-one burst", base, ServeGrid{Rates: []float64{1}, BurstFactors: []float64{0.5}}, "burst factor"},
		{"NaN burst", base, ServeGrid{Rates: []float64{1}, BurstFactors: []float64{math.NaN()}}, "burst factor"},
		{"Inf burst", base, ServeGrid{Rates: []float64{1}, BurstFactors: []float64{math.Inf(1)}}, "burst factor"},
		{"zero-median mix", base, ServeGrid{
			Rates: []float64{1}, LengthMixes: []LengthMix{{Input: 0, Output: 64}},
		}, "positive medians"},
	}
	for _, c := range cases {
		if _, err := ServeSweep(c.cfg, c.grid); err == nil {
			t.Errorf("%s: want error", c.name)
		} else if !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: error %v does not mention %q", c.name, err, c.want)
		}
	}

	noBatch := base
	noBatch.MaxBatch = 0
	if _, err := ServeSweep(noBatch, ServeGrid{Rates: []float64{1}}); err == nil {
		t.Error("unset MaxBatch with no MaxBatches axis must fail")
	}
	// A negative budget must not fall through to auto-sizing, and +Inf
	// must not overflow the allocator's block count: both the device
	// and the host-tier budgets reject every non-finite or negative
	// value.
	for _, budget := range []float64{-1, -4, math.NaN(), math.Inf(1)} {
		badBudget := base
		badBudget.KVBudgetGiB = budget
		if _, err := ServeSweep(badBudget, ServeGrid{Rates: []float64{1}}); err == nil ||
			!strings.Contains(err.Error(), "invalid KV budget") {
			t.Errorf("KV budget %v must be rejected, got %v", budget, err)
		}
		badHost := base
		badHost.HostKVGiB = budget
		if _, err := ServeSweep(badHost, ServeGrid{Rates: []float64{1}}); err == nil ||
			!strings.Contains(err.Error(), "invalid KV budget") {
			t.Errorf("host KV budget %v must be rejected, got %v", budget, err)
		}
	}
	explicit := base
	explicit.KVBudgetGiB = 4
	if pts, err := ServeSweep(explicit, ServeGrid{Rates: []float64{1}}); err != nil || pts[0].Err != nil {
		t.Errorf("explicit positive budget must work: %v %v", err, pts)
	}
	badTrace := base
	badTrace.Requests = 0
	if _, err := ServeSweep(badTrace, ServeGrid{Rates: []float64{1}}); err == nil {
		t.Error("zero-request trace shape must fail up front")
	}
	for name, mut := range map[string]func(*ServeSweepConfig){
		"BurstLenS": func(c *ServeSweepConfig) { c.BurstLenS = -2 },
	} {
		bad := base
		mut(&bad)
		if _, err := ServeSweep(bad, ServeGrid{Rates: []float64{1}}); err == nil ||
			!strings.Contains(err.Error(), "negative serve tuning") {
			t.Errorf("negative %s must fail the whole call up front, got %v", name, err)
		}
	}
	// NaN slips past a "< 0" check, and a non-finite value would fail
	// every point (Sigma) or silently change the trace (BurstLenS).
	for name, mut := range map[string]func(*ServeSweepConfig){
		"NaN Sigma":     func(c *ServeSweepConfig) { c.Sigma = math.NaN() },
		"Inf Sigma":     func(c *ServeSweepConfig) { c.Sigma = math.Inf(1) },
		"NaN BurstLenS": func(c *ServeSweepConfig) { c.BurstLenS = math.NaN() },
		"Inf BurstLenS": func(c *ServeSweepConfig) { c.BurstLenS = math.Inf(1) },
	} {
		bad := base
		mut(&bad)
		if _, err := ServeSweep(bad, ServeGrid{Rates: []float64{1}}); err == nil ||
			!strings.Contains(err.Error(), "serve tuning") {
			t.Errorf("%s must fail the whole call up front, got %v", name, err)
		}
	}
}

// TestServeSweepAllCombosFailJoined: when every configuration
// combination fails to build, the call fails with all distinct causes
// joined — not just the first.
func TestServeSweepAllCombosFailJoined(t *testing.T) {
	_, err := ServeSweep(serveSweepCfg, ServeGrid{
		Rates:   []float64{4},
		Devices: []string{"A100", "NoSuchDevice"},
		Schemes: []Scheme{{"fp8", "fp8"}},
	})
	if err == nil {
		t.Fatal("all-failing combinations must fail the call")
	}
	msg := err.Error()
	if !strings.Contains(msg, "fp8") || !strings.Contains(msg, "NoSuchDevice") {
		t.Errorf("joined error must name every distinct cause, got: %v", msg)
	}
}

// TestServeSweepTraceAxisOrderAndDeterminism pins the trace axes'
// position in the nesting (… ▸ MaxBatches ▸ BurstFactors ▸
// LengthMixes ▸ Rates) and the determinism property over them: the
// full result slice is byte-identical at Parallelism 1 and 8, static
// and autoscale policies included (run under -race in CI).
func TestServeSweepTraceAxisOrderAndDeterminism(t *testing.T) {
	grid := ServeGrid{
		Rates:        []float64{4, 8},
		Replicas:     []int{2},
		BurstFactors: []float64{1, 4},
		LengthMixes:  []LengthMix{{Input: 128, Output: 48}, {Input: 512, Output: 96}},
		Policies:     []ServePolicy{{}, {Static: true}, {Static: true, Autoscale: true}},
	}
	grid.Parallelism = 1
	serial, err := ServeSweep(serveSweepCfg, grid)
	if err != nil {
		t.Fatal(err)
	}
	if len(serial) != 3*2*2*2 {
		t.Fatalf("got %d points, want 24", len(serial))
	}
	i := 0
	for _, pol := range grid.Policies {
		for _, burst := range grid.BurstFactors {
			for _, mix := range grid.LengthMixes {
				for _, rate := range grid.Rates {
					p := serial[i]
					if p.Policy != pol || p.BurstFactor != burst || p.Mix != mix || p.Rate != rate {
						t.Errorf("point %d = %v burst %g mix %+v @%g, want %v burst %g mix %+v @%g",
							i, p.Policy, p.BurstFactor, p.Mix, p.Rate, pol, burst, mix, rate)
					}
					if p.Err != nil {
						t.Errorf("point %d failed: %v", i, p.Err)
					}
					i++
				}
			}
		}
	}
	grid.Parallelism = 8
	parallel, err := ServeSweep(serveSweepCfg, grid)
	if err != nil {
		t.Fatal(err)
	}
	for i := range serial {
		if !reflect.DeepEqual(serial[i], parallel[i]) {
			t.Errorf("point %d differs between parallelism 1 and 8", i)
		}
	}
}

// TestServeSweepTraceSeedIsolation: points at one (burst, mix, rate)
// axis position share a single arrival process across the policy and
// replica axes, while every distinct position draws from an isolated
// seed stream — changing one shape never changes another's traffic.
func TestServeSweepTraceSeedIsolation(t *testing.T) {
	grid := ServeGrid{
		Rates:        []float64{5, 9},
		Replicas:     []int{1, 2},
		BurstFactors: []float64{1, 6},
	}
	pts, err := ServeSweep(serveSweepCfg, grid)
	if err != nil {
		t.Fatal(err)
	}
	arrivals := func(p ServeSweepPoint) map[int]float64 {
		t.Helper()
		if p.Err != nil {
			t.Fatalf("point failed: %v", p.Err)
		}
		m := make(map[int]float64, len(p.Stats.Requests))
		for _, r := range p.Stats.Requests {
			m[r.ID] = r.Arrival
		}
		return m
	}
	// Nesting is Replicas ▸ BurstFactors ▸ Rates: index = (reps*2 +
	// burst)*2 + rate.
	at := func(reps, burst, rate int) ServeSweepPoint { return pts[(reps*2+burst)*2+rate] }
	// Same position, different replica counts: one arrival process.
	if !reflect.DeepEqual(arrivals(at(0, 1, 0)), arrivals(at(1, 1, 0))) {
		t.Error("points at one trace-shape position must share one arrival process")
	}
	// Distinct positions (burst, or rate, or both): isolated streams.
	base := arrivals(at(0, 0, 0))
	for name, other := range map[string]ServeSweepPoint{
		"burst factor": at(0, 1, 0),
		"rate":         at(0, 0, 1),
	} {
		if reflect.DeepEqual(base, arrivals(other)) {
			t.Errorf("distinct %s positions must not share an arrival process", name)
		}
	}

	// The isolation also holds between mix positions: different
	// medians at one rate draw different arrival gaps (the stream is
	// private per position, not sliced from one sequence).
	mixes, err := ServeSweep(serveSweepCfg, ServeGrid{
		Rates:       []float64{5},
		LengthMixes: []LengthMix{{Input: 128, Output: 48}, {Input: 512, Output: 96}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if reflect.DeepEqual(arrivals(mixes[0]), arrivals(mixes[1])) {
		t.Error("distinct mix positions must not share an arrival process")
	}
}

// TestServeSweepPointsIsolated: points that share a trace and recycle
// kernel arenas still run as if each had its own. With LeanStats on
// and off, at Parallelism 1 and 4, every point is identical apart
// from its ledger; no two ledgers of a non-lean run share memory,
// whatever lean runs recycled before them; and a trace-shape position
// whose ChatTrace shape is rejected fails only its own points.
func TestServeSweepPointsIsolated(t *testing.T) {
	grid := ServeGrid{
		Rates:       []float64{3, 6},
		Replicas:    []int{1, 2},
		Policies:    []ServePolicy{{}, {Static: true, LeastLoaded: true}},
		LengthMixes: []LengthMix{{Input: 128, Output: 48}, {Input: 8, Output: 64}, {Input: 512, Output: 96}},
	}
	type run struct {
		lean bool
		par  int
	}
	// Lean runs go first, so the non-lean runs draw arenas holding
	// recycled ledgers.
	runs := []run{{true, 1}, {true, 4}, {false, 1}, {false, 4}}
	var ref []ServeSweepPoint
	for _, r := range runs {
		cfg := serveSweepCfg
		cfg.LeanStats = r.lean
		grid.Parallelism = r.par
		pts, err := ServeSweep(cfg, grid)
		if err != nil {
			t.Fatal(err)
		}
		if len(pts) != 2*2*3*2 {
			t.Fatalf("lean %v parallelism %d: got %d points, want 24", r.lean, r.par, len(pts))
		}
		for i, p := range pts {
			rejected := p.Mix.Input == 8
			if rejected != (p.Err != nil) || rejected && !strings.Contains(p.Err.Error(), "medians") {
				t.Errorf("lean %v parallelism %d point %d (mix %+v): error %v", r.lean, r.par, i, p.Mix, p.Err)
			}
			switch {
			case r.lean && p.Stats.Requests != nil:
				t.Errorf("lean point %d kept a ledger", i)
			case !r.lean && !rejected && len(p.Stats.Requests) != cfg.Requests:
				t.Errorf("point %d: ledger of %d entries, want %d", i, len(p.Stats.Requests), cfg.Requests)
			}
		}
		if !r.lean {
			// Stamp every entry of each ledger with its point's index:
			// a ledger sharing memory with another loses its stamps.
			for i := range pts {
				for j := range pts[i].Stats.Requests {
					pts[i].Stats.Requests[j].ID = i
				}
			}
			for i := range pts {
				for _, rs := range pts[i].Stats.Requests {
					if rs.ID != i {
						t.Fatalf("parallelism %d: point %d's ledger shares memory with point %d's", r.par, i, rs.ID)
					}
				}
				pts[i].Stats.Requests = nil
			}
		}
		if ref == nil {
			ref = pts
			continue
		}
		for i := range pts {
			if !reflect.DeepEqual(pts[i], ref[i]) {
				t.Errorf("lean %v parallelism %d: point %d differs from the lean serial run", r.lean, r.par, i)
			}
		}
	}
}

// TestServeSweepLeanStats: LeanStats drops only the per-request
// ledger — every aggregate (percentiles, means, throughput,
// per-replica shares, peaks) is byte-identical to the full run.
func TestServeSweepLeanStats(t *testing.T) {
	grid := ServeGrid{
		Rates:        []float64{6},
		Replicas:     []int{2},
		Policies:     []ServePolicy{{}, {Static: true}, {Autoscale: true}},
		BurstFactors: []float64{3},
	}
	full, err := ServeSweep(serveSweepCfg, grid)
	if err != nil {
		t.Fatal(err)
	}
	lean := serveSweepCfg
	lean.LeanStats = true
	slim, err := ServeSweep(lean, grid)
	if err != nil {
		t.Fatal(err)
	}
	for i := range full {
		if len(full[i].Stats.Requests) != serveSweepCfg.Requests {
			t.Errorf("point %d: full run must keep the ledger (%d entries)", i, len(full[i].Stats.Requests))
		}
		if slim[i].Stats.Requests != nil {
			t.Errorf("point %d: LeanStats must drop the ledger, got %d entries", i, len(slim[i].Stats.Requests))
		}
		want := full[i]
		want.Stats.Requests = nil
		if !reflect.DeepEqual(slim[i], want) {
			t.Errorf("point %d: LeanStats changed aggregates", i)
		}
	}
}

func TestKnees(t *testing.T) {
	mk := func(reps int, rate, p99 float64, err error) ServeSweepPoint {
		return ServeSweepPoint{
			Device: "A100", Framework: "vLLM", Replicas: reps, MaxBatch: 8, Rate: rate,
			Stats: ServeStats{P99Latency: p99}, Err: err,
		}
	}
	pts := []ServeSweepPoint{
		mk(1, 5, 1.0, nil), mk(1, 10, 4.0, nil), mk(1, 20, 9.0, nil),
		mk(2, 5, 0.5, nil), mk(2, 10, 1.5, nil), mk(2, 20, 2.5, nil),
		mk(4, 5, 0, errBoom), mk(4, 10, 0, errBoom),
	}
	knees, err := Knees(pts, 6.0)
	if err != nil {
		t.Fatalf("Knees: %v", err)
	}
	if len(knees) != 3 {
		t.Fatalf("got %d knees, want 3", len(knees))
	}
	if !knees[0].Met || knees[0].Rate != 10 {
		t.Errorf("1 replica: knee %+v, want rate 10", knees[0])
	}
	if !knees[1].Met || knees[1].Rate != 20 {
		t.Errorf("2 replicas: knee %+v, want rate 20", knees[1])
	}
	if knees[2].Met {
		t.Errorf("4 replicas (all errored): knee %+v, want unmet", knees[2])
	}
	if knees[0].Replicas != 1 || knees[1].Replicas != 2 || knees[2].Replicas != 4 {
		t.Error("knees must preserve grid order of configurations")
	}
}

// TestKneesSkipsNonFiniteStats is the regression test for the NaN-SLO
// bug: `NaN > slo` is false, so an unguarded degenerate point used to
// count as SLO-compliant and could become the knee. Non-finite points
// must be skipped, and an all-degenerate configuration must still
// appear with Met false.
func TestKneesSkipsNonFiniteStats(t *testing.T) {
	mk := func(reps int, rate, p99, tput float64) ServeSweepPoint {
		return ServeSweepPoint{
			Device: "A100", Framework: "vLLM", Replicas: reps, MaxBatch: 8, Rate: rate,
			Stats: ServeStats{P99Latency: p99, Throughput: tput},
		}
	}
	pts := []ServeSweepPoint{
		// Config 1: a NaN P99 at the highest rate must not win.
		mk(1, 5, 1.0, 100), mk(1, 10, math.NaN(), 100),
		// Config 2: finite P99 but overflowed throughput at the top rate.
		mk(2, 5, 1.0, 100), mk(2, 10, 1.0, math.Inf(1)),
		// Config 3: every point degenerate — present but unmet.
		mk(4, 5, math.NaN(), 100), mk(4, 10, math.Inf(1), 100),
	}
	knees, err := Knees(pts, 6.0)
	if err != nil {
		t.Fatalf("Knees: %v", err)
	}
	if len(knees) != 3 {
		t.Fatalf("got %d knees, want 3", len(knees))
	}
	if !knees[0].Met || knees[0].Rate != 5 {
		t.Errorf("NaN-P99 point must not be the knee: %+v", knees[0])
	}
	if !knees[1].Met || knees[1].Rate != 5 {
		t.Errorf("Inf-throughput point must not be the knee: %+v", knees[1])
	}
	if knees[2].Met {
		t.Errorf("all-degenerate configuration must be unmet: %+v", knees[2])
	}
}

// TestKneesRejectsBadSLO: a NaN, infinite, zero, or negative SLO would
// silently qualify nothing (or everything); it is a caller error.
func TestKneesRejectsBadSLO(t *testing.T) {
	pts := []ServeSweepPoint{{Rate: 5, Stats: ServeStats{P99Latency: 1}}}
	for _, bad := range []float64{0, -1, math.NaN(), math.Inf(1), math.Inf(-1)} {
		if _, err := Knees(pts, bad); err == nil {
			t.Errorf("SLO %v must be rejected", bad)
		} else if !strings.Contains(err.Error(), "SLO") {
			t.Errorf("SLO %v error %v must name the SLO", bad, err)
		}
	}
}

// TestServeSweepTraceReplayByteIdentity is the tentpole's round-trip
// property: the trace a sweep point would synthesize, recorded to the
// file format and read back, replays through continuous and static
// policies with Stats byte-identical to the synthesized run — and the
// replay sweep itself is byte-identical at Parallelism 1 and 8 (run
// under -race in CI).
func TestServeSweepTraceReplayByteIdentity(t *testing.T) {
	recorded, err := ServePointTrace(serveSweepCfg, ServeGrid{Rates: []float64{6}})
	if err != nil {
		t.Fatalf("ServePointTrace: %v", err)
	}
	var buf bytes.Buffer
	if err := WriteTrace(&buf, recorded, TraceMeta{Source: "test"}); err != nil {
		t.Fatalf("WriteTrace: %v", err)
	}
	replayed, _, err := ReadTrace(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatalf("ReadTrace: %v", err)
	}
	for i := range replayed {
		if replayed[i] != recorded[i] {
			t.Fatalf("request %d survived the file format changed: %+v vs %+v", i, replayed[i], recorded[i])
		}
	}

	synth := ServeGrid{
		Rates:    []float64{6},
		Replicas: []int{1, 2},
		Policies: []ServePolicy{{}, {Static: true}},
	}
	want, err := ServeSweep(serveSweepCfg, synth)
	if err != nil {
		t.Fatal(err)
	}
	replay := synth
	replay.Rates = nil // native-rate replay
	replay.Trace = replayed
	got, err := ServeSweep(serveSweepCfg, replay)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("replay sweep has %d points, want %d", len(got), len(want))
	}
	for i := range got {
		if got[i].Err != nil {
			t.Fatalf("replay point %d failed: %v", i, got[i].Err)
		}
		// The point's Rate reports the trace's native intensity and Mix
		// is zero on replay grids; the simulation outcome must match
		// bit for bit.
		if !reflect.DeepEqual(got[i].Stats, want[i].Stats) ||
			!reflect.DeepEqual(got[i].PerReplica, want[i].PerReplica) {
			t.Errorf("replay point %d (%v, %d replicas) differs from the synthesized run",
				i, got[i].Policy, got[i].Replicas)
		}
	}

	replay.Parallelism = 8
	parallel, err := ServeSweep(serveSweepCfg, replay)
	if err != nil {
		t.Fatal(err)
	}
	for i := range got {
		if !reflect.DeepEqual(got[i], parallel[i]) {
			t.Errorf("replay point %d differs between parallelism 1 and 8", i)
		}
	}
}

// TestServeSweepTraceReplayValidation: replay grids reject the
// trace-shape axes and invalid traces up front, and an instantaneous
// burst trace (no native rate) demands an explicit Rates axis.
func TestServeSweepTraceReplayValidation(t *testing.T) {
	trace := []TraceRequest{
		{ID: 0, Arrival: 0, Input: 64, Output: 16},
		{ID: 1, Arrival: 0.5, Input: 64, Output: 16},
	}
	cases := []struct {
		name string
		grid ServeGrid
		want string
	}{
		{"burst axis", ServeGrid{Trace: trace, BurstFactors: []float64{2}}, "trace-shape axes"},
		{"mix axis", ServeGrid{Trace: trace, LengthMixes: []LengthMix{{Input: 128, Output: 32}}}, "trace-shape axes"},
		{"out-of-order trace", ServeGrid{Trace: []TraceRequest{
			{ID: 0, Arrival: 1, Input: 64, Output: 16}, {ID: 1, Arrival: 0.5, Input: 64, Output: 16},
		}}, "time-ordered"},
		{"instantaneous burst", ServeGrid{Trace: []TraceRequest{
			{ID: 0, Arrival: 0, Input: 64, Output: 16}, {ID: 1, Arrival: 0, Input: 64, Output: 16},
		}}, "set Rates"},
	}
	for _, c := range cases {
		if _, err := ServeSweep(serveSweepCfg, c.grid); err == nil {
			t.Errorf("%s: want error", c.name)
		} else if !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: error %v does not mention %q", c.name, err, c.want)
		}
	}
	// The same trace with an explicit rate ladder is fine.
	pts, err := ServeSweep(serveSweepCfg, ServeGrid{Trace: trace, Rates: []float64{4, 8}})
	if err != nil {
		t.Fatal(err)
	}
	for i, p := range pts {
		if p.Err != nil {
			t.Errorf("rescaled replay point %d failed: %v", i, p.Err)
		}
		if p.Stats.Completed != len(trace) {
			t.Errorf("rescaled replay point %d completed %d/%d", i, p.Stats.Completed, len(trace))
		}
	}
}

// TestServePointTraceErrors: recording needs exactly one trace-shape
// position and a grid that is not itself a replay.
func TestServePointTraceErrors(t *testing.T) {
	if _, err := ServePointTrace(serveSweepCfg, ServeGrid{
		Trace: []TraceRequest{{Arrival: 0, Input: 8, Output: 8}},
	}); err == nil || !strings.Contains(err.Error(), "nothing to record") {
		t.Errorf("replay grid must have nothing to record, got %v", err)
	}
	for name, grid := range map[string]ServeGrid{
		"two rates":  {Rates: []float64{4, 8}},
		"two bursts": {Rates: []float64{4}, BurstFactors: []float64{1, 4}},
		"two mixes":  {Rates: []float64{4}, LengthMixes: []LengthMix{{Input: 128, Output: 32}, {Input: 512, Output: 64}}},
	} {
		if _, err := ServePointTrace(serveSweepCfg, grid); err == nil ||
			!strings.Contains(err.Error(), "trace-shape positions") {
			t.Errorf("%s: want a multi-position error, got %v", name, err)
		}
	}
	// A bursty one-position grid records its ChatTrace.
	reqs, err := ServePointTrace(serveSweepCfg, ServeGrid{
		Rates: []float64{6}, BurstFactors: []float64{4},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(reqs) != serveSweepCfg.Requests {
		t.Errorf("recorded %d requests, want %d", len(reqs), serveSweepCfg.Requests)
	}
}

// TestServeSweepStreamStats: StreamStats drops the ledger like
// LeanStats and keeps every non-percentile aggregate byte-identical to
// the exact path, while the P² percentiles track the exact ones.
func TestServeSweepStreamStats(t *testing.T) {
	cfg := serveSweepCfg
	cfg.Requests = 2000
	grid := ServeGrid{
		Rates:    []float64{10},
		Replicas: []int{2},
		Policies: []ServePolicy{{}, {Static: true}, {Autoscale: true}},
	}
	lean := cfg
	lean.LeanStats = true
	exact, err := ServeSweep(lean, grid)
	if err != nil {
		t.Fatal(err)
	}
	stream := cfg
	stream.StreamStats = true
	got, err := ServeSweep(stream, grid)
	if err != nil {
		t.Fatal(err)
	}
	zero := func(s *ServeStats) {
		s.P50Latency, s.P95Latency, s.P99Latency = 0, 0, 0
		s.P50QueueDelay, s.P95QueueDelay, s.P99QueueDelay = 0, 0, 0
	}
	for i := range got {
		if got[i].Err != nil {
			t.Fatalf("streaming point %d failed: %v", i, got[i].Err)
		}
		if got[i].Stats.Requests != nil {
			t.Errorf("point %d: StreamStats must drop the ledger", i)
		}
		check := func(name string, g, w float64) {
			if rel := math.Abs(g-w) / w; rel > 0.05 {
				t.Errorf("point %d %s: sketch %v vs exact %v (relative error %.2f%%)", i, name, g, w, 100*rel)
			}
		}
		check("P50Latency", got[i].Stats.P50Latency, exact[i].Stats.P50Latency)
		check("P95Latency", got[i].Stats.P95Latency, exact[i].Stats.P95Latency)
		check("P99Latency", got[i].Stats.P99Latency, exact[i].Stats.P99Latency)
		g, w := got[i], exact[i]
		zero(&g.Stats)
		zero(&w.Stats)
		if !reflect.DeepEqual(g, w) {
			t.Errorf("point %d: streaming non-percentile aggregates differ from exact", i)
		}
	}
}

var errBoom = errString("boom")

type errString string

func (e errString) Error() string { return string(e) }
