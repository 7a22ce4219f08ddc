package llmbench

import (
	"reflect"
	"strings"
	"testing"
)

// TestAxisSet covers every row of the axis table through Grid.Set and
// ServeGrid.Set: element trimming, empty elements, non-positive and
// non-finite values, bare scheme precisions, policy entries including
// disagg pool splits, and malformed length mixes. Every rejection names
// its axis.
func TestAxisSet(t *testing.T) {
	ok := []struct {
		axis, list string
		want       any // the Grid or ServeGrid the list fills
	}{
		{"batches", "1, 16,32 ,64", Grid{Batches: []int{1, 16, 32, 64}}},
		{"lengths", "1024", Grid{Lengths: []int{1024}}},
		{"devices", " A100, H100 ,MI300X", Grid{Devices: []string{"A100", "H100", "MI300X"}}},
		{"devices", " A100, H100 ,MI300X", ServeGrid{Devices: []string{"A100", "H100", "MI300X"}}},
		{"frameworks", "vLLM,TRT-LLM", Grid{Frameworks: []string{"vLLM", "TRT-LLM"}}},
		{"schemes", "fp16:fp16, int8:fp8 ,fp8", Grid{Schemes: []Scheme{{"fp16", "fp16"}, {"int8", "fp8"}, {"fp8", "fp8"}}}},
		{"schemes", "fp8", ServeGrid{Schemes: []Scheme{{"fp8", "fp8"}}}},
		{"rates", "0.5, 10 ,40", ServeGrid{Rates: []float64{0.5, 10, 40}}},
		{"replicas", "1,2, 4", ServeGrid{Replicas: []int{1, 2, 4}}},
		{"maxbatches", "32", ServeGrid{MaxBatches: []int{32}}},
		{"policies", "continuous, continuous:ll ,static,autoscale,ll:auto,static:ll,static:autoscale",
			ServeGrid{Policies: []ServePolicy{
				{}, {LeastLoaded: true}, {Static: true}, {Autoscale: true},
				{LeastLoaded: true, Autoscale: true}, {Static: true, LeastLoaded: true}, {Static: true, Autoscale: true},
			}}},
		{"policies", "disagg/1:3, ll:disagg/2:6 ,static/rr,aggregated,prefix",
			ServeGrid{Policies: []ServePolicy{
				{PrefillPool: 1, DecodePool: 3}, {LeastLoaded: true, PrefillPool: 2, DecodePool: 6},
				{Static: true}, {}, {Prefix: true},
			}}},
		{"bursts", "1, 4", ServeGrid{BurstFactors: []float64{1, 4}}},
		{"mixes", "512:128, 2048:256 ", ServeGrid{LengthMixes: []LengthMix{{512, 128}, {2048, 256}}}},
		{"prefix-shares", "0,0.5", ServeGrid{PrefixShares: []float64{0, 0.5}}},
	}
	for _, tc := range ok {
		var got any
		var err error
		switch tc.want.(type) {
		case Grid:
			var g Grid
			err = g.Set(tc.axis, tc.list)
			got = g
		case ServeGrid:
			var g ServeGrid
			err = g.Set(tc.axis, tc.list)
			got = g
		}
		if err != nil {
			t.Errorf("Set(%q, %q): %v", tc.axis, tc.list, err)
		} else if !reflect.DeepEqual(got, tc.want) {
			t.Errorf("Set(%q, %q) = %+v, want %+v", tc.axis, tc.list, got, tc.want)
		}
	}

	bad := map[string][]string{
		"batches":       {"1,x,3", "1,,2", "", "x", ",", "1,2,", "0", "1,0,2", "-4"},
		"lengths":       {"0", "1e3"},
		"devices":       {"A100,,H100", ",A100", "A100,", ",", " , ", ""},
		"frameworks":    {"vLLM,"},
		"schemes":       {"", "fp16:", ":fp8", "fp16,,int8"},
		"rates":         {"", "x", "0", "-1", "1,,2", "NaN", "Inf", "1,"},
		"replicas":      {"0", "1.5"},
		"maxbatches":    {"0"},
		"policies":      {"", "bogus", "continuous:,ll", ",", "prefix:auto", "disagg/2:6:autoscale", "static:disagg/1:3", "disagg/0:3", "disagg/1", "disagg/a:b"},
		"bursts":        {"0.5", "0", "Inf", "NaN", "x"},
		"mixes":         {"", "512", "512:", ":128", "0:128", "512:-1", "a:b", "512:128,,256:64", "512:128:1"},
		"prefix-shares": {"1", "-0.1", "NaN", "Inf", "x"},
	}
	for _, a := range Axes {
		lists, found := bad[a.Name]
		if !found {
			t.Errorf("axis %q has no rejection cases", a.Name)
		}
		for _, list := range lists {
			if a.Offline {
				var g Grid
				wantAxisError(t, a.Name, list, g.Set(a.Name, list))
			}
			if a.Serve {
				var g ServeGrid
				wantAxisError(t, a.Name, list, g.Set(a.Name, list))
			}
		}
	}

	// Names outside the table, and rows the grid lacks, are errors too.
	var g Grid
	var sg ServeGrid
	wantAxisError(t, "bogus", "1", g.Set("bogus", "1"))
	wantAxisError(t, "rates", "1", g.Set("rates", "1"))
	wantAxisError(t, "batches", "1", sg.Set("batches", "1"))
}

func wantAxisError(t *testing.T, axis, list string, err error) {
	t.Helper()
	if err == nil {
		t.Errorf("Set(%q, %q) must fail", axis, list)
	} else if !strings.Contains(err.Error(), axis) {
		t.Errorf("Set(%q, %q) error %v must name the axis", axis, list, err)
	}
}

// TestAxisSetMatchesServeSweep: a bad element fails Set and ServeSweep
// with the same message, because both run the row's element check.
func TestAxisSetMatchesServeSweep(t *testing.T) {
	cfg := ServeSweepConfig{MaxBatch: 1, Requests: 1, InputMean: 1, OutputMean: 1}
	cases := []struct {
		axis, list string
		grid       ServeGrid
	}{
		{"rates", "0", ServeGrid{Rates: []float64{0}}},
		{"replicas", "0", ServeGrid{Rates: []float64{1}, Replicas: []int{0}}},
		{"maxbatches", "0", ServeGrid{Rates: []float64{1}, MaxBatches: []int{0}}},
		{"bursts", "0.5", ServeGrid{Rates: []float64{1}, BurstFactors: []float64{0.5}}},
		{"mixes", "0:128", ServeGrid{Rates: []float64{1}, LengthMixes: []LengthMix{{0, 128}}}},
		{"prefix-shares", "1", ServeGrid{Rates: []float64{1}, PrefixShares: []float64{1}}},
		{"policies", "prefix:auto", ServeGrid{Rates: []float64{1}, Policies: []ServePolicy{{Prefix: true, Autoscale: true}}}},
	}
	for _, tc := range cases {
		var g ServeGrid
		setErr := g.Set(tc.axis, tc.list)
		_, sweepErr := resolveServeAxes(cfg, tc.grid)
		if setErr == nil || sweepErr == nil {
			t.Fatalf("%s %q: Set error %v, ServeSweep error %v; want both", tc.axis, tc.list, setErr, sweepErr)
		}
		if msg := strings.TrimPrefix(sweepErr.Error(), "llmbench: "); !strings.HasSuffix(setErr.Error(), msg) {
			t.Errorf("%s %q: Set error %q does not end with ServeSweep's %q", tc.axis, tc.list, setErr, msg)
		}
	}
}

// FuzzServeGridSet: for every ServeGrid row, a list Set accepts also
// passes ServeSweep's validation, and a rejected list's error names
// the axis — the invariant the single axis table exists to keep.
func FuzzServeGridSet(f *testing.F) {
	for _, seed := range []string{
		"1, 16,32 ,64", "1024", " A100, H100 ,MI300X", "fp16:fp16, int8:fp8 ,fp8", "0.5, 10 ,40",
		"continuous:ll,static:autoscale", "disagg/1:3, ll:disagg/2:6", "prefix", "1,4", "512:128, 2048:256",
		"0,0.5", "", ",", "1,,2", "0", "-4", "NaN", "Inf", "512:", "disagg/0:3", "prefix:auto",
	} {
		f.Add(seed)
	}
	cfg := ServeSweepConfig{MaxBatch: 1, Requests: 1, InputMean: 1, OutputMean: 1}
	f.Fuzz(func(t *testing.T, list string) {
		for _, a := range Axes {
			if !a.Serve {
				continue
			}
			g := ServeGrid{Rates: []float64{1}}
			if err := g.Set(a.Name, list); err != nil {
				if !strings.Contains(err.Error(), a.Name) {
					t.Errorf("Set(%q, %q) error %v does not name the axis", a.Name, list, err)
				}
				continue
			}
			if _, err := resolveServeAxes(cfg, g); err != nil {
				t.Errorf("Set(%q, %q) accepted a list ServeSweep rejects: %v", a.Name, list, err)
			}
		}
	})
}

// FuzzParseServePolicy: every policy ParseServePolicy accepts
// round-trips through String.
func FuzzParseServePolicy(f *testing.F) {
	for _, seed := range []string{
		"continuous", "static:ll", "ll/auto", "prefix", "round-robin", "aggregated", "disagg/1:3",
		"continuous/rr/disagg/2:6", "static/disagg/1:3", "disagg/1", "continuous:", "prefix:ll",
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, s string) {
		p, err := ParseServePolicy(s)
		if err != nil {
			return
		}
		back, err := ParseServePolicy(p.String())
		if err != nil || back != p {
			t.Errorf("ParseServePolicy(%q) = %+v; its String %q parses to %+v, %v", s, p, p.String(), back, err)
		}
	})
}
