package llmbench

import (
	"errors"
	"fmt"
	"math"
	"strings"
	"testing"

	"llmbench/internal/hw"
	"llmbench/internal/model"
)

// TestServePolicyStringParseRoundTrip pins the textual policy surface:
// String() output parses back to the identical policy for every valid
// combination, and malformed topology tokens are rejected with errors
// that name the offending piece.
func TestServePolicyStringParseRoundTrip(t *testing.T) {
	valid := []ServePolicy{
		{},
		{LeastLoaded: true},
		{Static: true},
		{Static: true, LeastLoaded: true},
		{Autoscale: true},
		{LeastLoaded: true, Autoscale: true},
		{Static: true, Autoscale: true},
		{PrefillPool: 1, DecodePool: 3},
		{LeastLoaded: true, PrefillPool: 2, DecodePool: 6},
	}
	for _, p := range valid {
		got, err := ParseServePolicy(p.String())
		if err != nil {
			t.Errorf("%v: round-trip parse failed: %v", p, err)
			continue
		}
		if got != p {
			t.Errorf("round-trip drift: %v → %q → %v", p, p.String(), got)
		}
	}

	// Spellings beyond the canonical String() forms.
	for s, want := range map[string]ServePolicy{
		"continuous/round-robin":   {},
		"static:ll":                {Static: true, LeastLoaded: true},
		"autoscale":                {Autoscale: true},
		"aggregated/rr":            {},
		"disagg/1:3":               {PrefillPool: 1, DecodePool: 3},
		"ll/disagg/2:6":            {LeastLoaded: true, PrefillPool: 2, DecodePool: 6},
		"disagg/1:3/aggregated":    {}, // later tokens override earlier ones
		"continuous/rr/disagg/4:4": {PrefillPool: 4, DecodePool: 4},
	} {
		got, err := ParseServePolicy(s)
		if err != nil {
			t.Errorf("%q: %v", s, err)
			continue
		}
		if got != want {
			t.Errorf("%q parsed to %v, want %v", s, got, want)
		}
	}

	bad := []string{
		"",
		"disagg/0:3",           // zero share
		"disagg/1",             // missing decode share
		"disagg/a:b",           // non-numeric shares
		"disagg/-1:3",          // negative share
		"disagg/2:6:autoscale", // autoscale does not compose with disagg
		"static/disagg/1:3",    // static does not compose with disagg
		"continuous/fifo",      // unknown token
		"prefix/auto",          // the autoscaler routes least-loaded
	}
	for _, s := range bad {
		if _, err := ParseServePolicy(s); err == nil {
			t.Errorf("%q parsed without error, want reject", s)
		}
	}
	if _, err := ParseServePolicy("prefix/auto"); !errors.Is(err, ErrPrefixAutoscale) {
		t.Errorf("prefix/auto: err %v, want ErrPrefixAutoscale", err)
	}
	// A programmatically built grid fails the same way at sweep time.
	_, err := ServeSweep(ServeSweepConfig{
		System:   System{Model: "Mistral-7B", Device: "A100", Framework: "vLLM"},
		MaxBatch: 16, Requests: 8, InputMean: 64, OutputMean: 16,
	}, ServeGrid{Rates: []float64{4}, Policies: []ServePolicy{{Prefix: true, Autoscale: true}}})
	if !errors.Is(err, ErrPrefixAutoscale) {
		t.Errorf("ServeSweep with {Prefix, Autoscale}: err %v, want ErrPrefixAutoscale", err)
	}
	if got := (ServePolicy{Autoscale: true}).String(); got != "continuous/auto" {
		t.Errorf("{Autoscale}.String() = %q, want continuous/auto", got)
	}
}

// TestServeSweepAggregatedGolden pins the aggregated serving sweep
// byte-for-byte to the pre-disaggregation simulator: the fingerprints
// were generated at the commit before the topology axis existed. Any
// drift means the phase-split refactor changed aggregated behavior.
func TestServeSweepAggregatedGolden(t *testing.T) {
	cfg := ServeSweepConfig{
		System:   System{Model: "Mistral-7B", Device: "A100", Framework: "vLLM"},
		MaxBatch: 16,
		Seed:     7, Requests: 80, InputMean: 256, OutputMean: 64,
	}
	pts, err := ServeSweep(cfg, ServeGrid{
		Rates:    []float64{8, 16},
		Replicas: []int{2},
		Policies: []ServePolicy{{}, {LeastLoaded: true}, {Static: true}},
	})
	if err != nil {
		t.Fatal(err)
	}
	want := []string{
		"0x1.1dd1e651092bp+00|0x1.2b533bce6e858p+11|0x1.5a20137807277p+03|80",
		"0x1.32e030d816949p+00|0x1.29677b9992239p+12|0x1.5c28bd35d29bcp+02|80",
		"0x1.1a4dbb9e34cf4p+00|0x1.2b3cb7f14104ap+11|0x1.5a3a1e7c2b33bp+03|80",
		"0x1.2b5c93b9eee35p+00|0x1.28014a94bbde8p+12|0x1.5dce0aa024bc7p+02|80",
		"0x1.0dcb79d00ee48p+01|0x1.1b53366ee7c9fp+11|0x1.6dabff88194f4p+03|80",
		"0x1.2a0bdc479dce8p+01|0x1.f24bd4765c6e2p+11|0x1.9f9797fe58c57p+02|80",
	}
	if len(pts) != len(want) {
		t.Fatalf("got %d points, want %d", len(pts), len(want))
	}
	for i, p := range pts {
		if p.Err != nil {
			t.Fatalf("point %d (%v @ %g): %v", i, p.Policy, p.Rate, p.Err)
		}
		got := fmt.Sprintf("%x|%x|%x|%d",
			p.Stats.P99Latency, p.Stats.Throughput, p.Stats.MakespanS, p.Stats.Completed)
		if got != want[i] {
			t.Errorf("point %d (%v @ %g) drifted from pre-refactor output:\ngot  %s\nwant %s",
				i, p.Policy, p.Rate, got, want[i])
		}
	}
}

// TestServeSweepDisagg runs the topology axis end to end: aggregated
// and disaggregated policies in one grid, per-topology knees, and
// transfer-delay accounting only where a pool split exists.
func TestServeSweepDisagg(t *testing.T) {
	cfg := serveSweepCfg
	cfg.Requests = 40
	grid := ServeGrid{
		Rates:    []float64{4, 8},
		Replicas: []int{4},
		Policies: []ServePolicy{
			{LeastLoaded: true},
			{PrefillPool: 1, DecodePool: 3},
			{LeastLoaded: true, PrefillPool: 2, DecodePool: 2},
		},
	}
	pts, err := ServeSweep(cfg, grid)
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) != 6 {
		t.Fatalf("got %d points, want 6", len(pts))
	}
	for i, p := range pts {
		if p.Err != nil {
			t.Fatalf("point %d (%v @ %g): %v", i, p.Policy, p.Rate, p.Err)
		}
		if p.Stats.Completed != cfg.Requests {
			t.Errorf("point %d completed %d/%d", i, p.Stats.Completed, cfg.Requests)
		}
		if p.Policy.Disagg() {
			if !(p.Stats.MeanTransferDelay > 0) {
				t.Errorf("point %d (%v): MeanTransferDelay %v, want > 0", i, p.Policy, p.Stats.MeanTransferDelay)
			}
		} else if p.Stats.MeanTransferDelay != 0 {
			t.Errorf("point %d (%v): aggregated point reports transfer delay %v", i, p.Policy, p.Stats.MeanTransferDelay)
		}
	}
	// Each topology keys its own knee: three policies, three knees, in
	// grid order.
	knees, err := Knees(pts, 60)
	if err != nil {
		t.Fatal(err)
	}
	if len(knees) != len(grid.Policies) {
		t.Fatalf("got %d knees, want %d", len(knees), len(grid.Policies))
	}
	for i, k := range knees {
		if k.Policy != grid.Policies[i] {
			t.Errorf("knee %d keyed %v, want %v", i, k.Policy, grid.Policies[i])
		}
		if !k.Met {
			t.Errorf("knee %d (%v) unmet at a 60 s SLO", i, k.Policy)
		}
	}
	// Disagg policy strings carry the topology, so downstream tables
	// distinguish the fleets.
	if s := knees[1].Policy.String(); !strings.Contains(s, "disagg/1:3") {
		t.Errorf("disagg knee policy renders %q, want a disagg/1:3 suffix", s)
	}
}

// TestServeSweepDisaggIndivisibleFleet: a fleet the pool ratio cannot
// split fails its own points — naming the ratio and fleet — while the
// divisible replica count proceeds.
func TestServeSweepDisaggIndivisibleFleet(t *testing.T) {
	cfg := serveSweepCfg
	cfg.Requests = 10
	pts, err := ServeSweep(cfg, ServeGrid{
		Rates:    []float64{4},
		Replicas: []int{3, 4},
		Policies: []ServePolicy{{PrefillPool: 1, DecodePool: 3}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if pts[0].Err == nil || !strings.Contains(pts[0].Err.Error(), "divisible") {
		t.Errorf("3-replica 1:3 point: got err %v, want a divisibility error", pts[0].Err)
	}
	if pts[1].Err != nil {
		t.Errorf("4-replica 1:3 point failed: %v", pts[1].Err)
	}
}

// TestTransferCostInterconnect pins interconnect-pricing validation:
// catalog devices price cleanly, and zero/negative/NaN/Inf interconnect
// descriptions fail with ErrInterconnect at config time.
func TestTransferCostInterconnect(t *testing.T) {
	tc, err := transferCost(System{Model: "Mistral-7B", Device: "A100", Framework: "vLLM"})
	if err != nil {
		t.Fatal(err)
	}
	if tc.GBPerS != 600 || tc.LatencyS != 3e-6 || tc.BlockTokens != 16 || !(tc.BytesPerToken > 0) {
		t.Errorf("A100 transfer cost %+v does not match the catalog interconnect", tc)
	}

	m := model.MustGet("Mistral-7B")
	good := *hw.MustGet("A100")
	for name, mutate := range map[string]func(*hw.Device){
		"zero bandwidth":     func(d *hw.Device) { d.InterconnectGBs = 0 },
		"negative bandwidth": func(d *hw.Device) { d.InterconnectGBs = -600 },
		"NaN bandwidth":      func(d *hw.Device) { d.InterconnectGBs = math.NaN() },
		"Inf bandwidth":      func(d *hw.Device) { d.InterconnectGBs = math.Inf(1) },
		"zero latency":       func(d *hw.Device) { d.InterconnectLatencyUS = 0 },
		"NaN latency":        func(d *hw.Device) { d.InterconnectLatencyUS = math.NaN() },
		"Inf latency":        func(d *hw.Device) { d.InterconnectLatencyUS = math.Inf(1) },
	} {
		d := good
		mutate(&d)
		if _, err := transferCostFor("fake", m, &d); !errors.Is(err, ErrInterconnect) {
			t.Errorf("%s: got %v, want ErrInterconnect", name, err)
		}
	}
	if _, err := transferCost(System{Model: "no-such-model", Device: "A100"}); err == nil {
		t.Error("unknown model must fail")
	}
	if _, err := transferCost(System{Model: "Mistral-7B", Device: "no-such-device"}); err == nil {
		t.Error("unknown device must fail")
	}
}
