package workload

import (
	"bytes"
	"math"
	"strings"
	"testing"
)

func testTrace(t testing.TB, n int) []Request {
	t.Helper()
	reqs, err := PoissonTrace(TraceConfig{
		Seed: 7, Requests: n, RatePerSec: 12,
		InputMean: 256, OutputMean: 96, LengthJitter: 0.3,
	})
	if err != nil {
		t.Fatalf("PoissonTrace: %v", err)
	}
	return reqs
}

// Record → Replay must reproduce the exact request slice — arrivals to
// the last bit — and Record of the replayed slice must reproduce the
// exact file bytes. Byte-identical replayed Stats rest on this.
func TestTraceRoundTrip(t *testing.T) {
	reqs := testTrace(t, 500)
	var buf bytes.Buffer
	meta := TraceMeta{Source: "poisson seed=7 rate=12", Note: "round-trip test"}
	if err := Record(&buf, reqs, meta); err != nil {
		t.Fatalf("Record: %v", err)
	}
	first := buf.String()

	got, gotMeta, err := Replay(strings.NewReader(first))
	if err != nil {
		t.Fatalf("Replay: %v", err)
	}
	if gotMeta != meta {
		t.Errorf("meta round-trip: got %+v, want %+v", gotMeta, meta)
	}
	if len(got) != len(reqs) {
		t.Fatalf("got %d requests, want %d", len(got), len(reqs))
	}
	for i := range got {
		if got[i] != reqs[i] {
			t.Fatalf("request %d: got %+v, want %+v", i, got[i], reqs[i])
		}
	}

	var buf2 bytes.Buffer
	if err := Record(&buf2, got, gotMeta); err != nil {
		t.Fatalf("second Record: %v", err)
	}
	if buf2.String() != first {
		t.Error("Record(Replay(Record(x))) is not byte-identical to Record(x)")
	}
}

func TestTraceRecordRejectsInvalid(t *testing.T) {
	cases := []struct {
		name string
		reqs []Request
	}{
		{"empty", nil},
		{"nan arrival", []Request{{Arrival: math.NaN(), Input: 8, Output: 8}}},
		{"inf arrival", []Request{{Arrival: math.Inf(1), Input: 8, Output: 8}}},
		{"negative arrival", []Request{{Arrival: -1, Input: 8, Output: 8}}},
		{"out of order", []Request{
			{Arrival: 2, Input: 8, Output: 8}, {ID: 1, Arrival: 1, Input: 8, Output: 8},
		}},
		{"zero input", []Request{{Arrival: 0, Input: 0, Output: 8}}},
		{"zero output", []Request{{Arrival: 0, Input: 8, Output: 0}}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var buf bytes.Buffer
			if err := Record(&buf, tc.reqs, TraceMeta{}); err == nil {
				t.Error("Record accepted an invalid trace")
			}
			if buf.Len() != 0 {
				t.Error("Record wrote bytes before rejecting")
			}
		})
	}
}

func TestTraceReplayRejectsMalformed(t *testing.T) {
	cases := []struct {
		name, data string
	}{
		{"empty file", ""},
		{"bad magic", "not-a-trace v1\n---\n" + traceHeader + "\n0,8,8\n"},
		{"future version", "llmbench-trace v2\n---\n" + traceHeader + "\n0,8,8\n"},
		{"no separator", traceMagic + "\nsource: x\n" + traceHeader + "\n0,8,8\n"},
		{"bad header line", traceMagic + "\njust words\n---\n" + traceHeader + "\n0,8,8\n"},
		{"bad column line", traceMagic + "\n---\ninput,output,arrival\n0,8,8\n"},
		{"missing field", traceMagic + "\n---\n" + traceHeader + "\n0,8\n"},
		{"extra field", traceMagic + "\n---\n" + traceHeader + "\n0,8,8,9\n"},
		{"bad number", traceMagic + "\n---\n" + traceHeader + "\n0,eight,8\n"},
		{"nan arrival", traceMagic + "\n---\n" + traceHeader + "\nNaN,8,8\n"},
		{"no rows", traceMagic + "\n---\n" + traceHeader + "\n"},
		{"bad count", traceMagic + "\nrequests: zero\n---\n" + traceHeader + "\n0,8,8\n"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if _, _, err := Replay(strings.NewReader(tc.data)); err == nil {
				t.Error("Replay accepted a malformed trace")
			}
		})
	}
}

// A truncated file — header promising more rows than the body holds —
// must fail loudly instead of replaying a shorter day.
func TestTraceReplayDetectsTruncation(t *testing.T) {
	reqs := testTrace(t, 100)
	var buf bytes.Buffer
	if err := Record(&buf, reqs, TraceMeta{}); err != nil {
		t.Fatalf("Record: %v", err)
	}
	lines := strings.Split(strings.TrimRight(buf.String(), "\n"), "\n")
	truncated := strings.Join(lines[:len(lines)-10], "\n") + "\n"
	if _, _, err := Replay(strings.NewReader(truncated)); err == nil {
		t.Fatal("Replay accepted a truncated trace")
	} else if !strings.Contains(err.Error(), "truncated") {
		t.Errorf("truncation error should say so, got: %v", err)
	}
}

// Unknown header keys are additive metadata v1 readers tolerate.
func TestTraceReplayIgnoresUnknownHeaderKeys(t *testing.T) {
	data := traceMagic + "\nfuture-key: whatever\nrequests: 1\n---\n" + traceHeader + "\n0.5,8,4\n"
	reqs, _, err := Replay(strings.NewReader(data))
	if err != nil {
		t.Fatalf("Replay: %v", err)
	}
	if len(reqs) != 1 || reqs[0] != (Request{ID: 0, Arrival: 0.5, Input: 8, Output: 4}) {
		t.Errorf("got %+v", reqs)
	}
}

func TestNativeRateAndScaleToRate(t *testing.T) {
	reqs := testTrace(t, 400)
	native, err := NativeRate(reqs)
	if err != nil {
		t.Fatalf("NativeRate: %v", err)
	}
	wantNative := float64(len(reqs)) / reqs[len(reqs)-1].Arrival
	if native != wantNative {
		t.Errorf("native rate %v, want %v", native, wantNative)
	}

	// Scaling to the native rate aliases the input (traces are
	// immutable); scaling elsewhere rescales arrivals only.
	same, err := ScaleToRate(reqs, native)
	if err != nil {
		t.Fatalf("ScaleToRate(native): %v", err)
	}
	if &same[0] != &reqs[0] {
		t.Error("scaling to the native rate must alias the input")
	}
	doubled, err := ScaleToRate(reqs, 2*native)
	if err != nil {
		t.Fatalf("ScaleToRate(2×): %v", err)
	}
	gotRate, err := NativeRate(doubled)
	if err != nil {
		t.Fatalf("NativeRate(doubled): %v", err)
	}
	if math.Abs(gotRate-2*native) > 1e-9*native {
		t.Errorf("rescaled rate %v, want %v", gotRate, 2*native)
	}
	for i := range doubled {
		if doubled[i].Input != reqs[i].Input || doubled[i].Output != reqs[i].Output || doubled[i].ID != reqs[i].ID {
			t.Fatalf("row %d: rescaling changed more than arrivals", i)
		}
	}
	if err := ValidateTrace(doubled); err != nil {
		t.Errorf("rescaled trace invalid: %v", err)
	}

	for _, bad := range []float64{0, -3, math.NaN(), math.Inf(1)} {
		if _, err := ScaleToRate(reqs, bad); err == nil {
			t.Errorf("ScaleToRate accepted rate %v", bad)
		}
	}
	burst := []Request{{Arrival: 0, Input: 8, Output: 8}, {ID: 1, Arrival: 0, Input: 8, Output: 8}}
	if _, err := NativeRate(burst); err == nil {
		t.Error("NativeRate accepted an instantaneous burst trace")
	}
}

// FuzzReadTrace: Replay never panics, and a trace it accepts survives
// Record → Replay unchanged (metadata as Record normalises it).
func FuzzReadTrace(f *testing.F) {
	var rec bytes.Buffer
	if err := Record(&rec, testTrace(f, 3), TraceMeta{Source: "poisson seed=7", Note: "seed"}); err != nil {
		f.Fatal(err)
	}
	f.Add(rec.String())
	for _, seed := range []string{
		"", "not-a-trace v1\n---\n" + traceHeader + "\n0,8,8\n",
		traceMagic + "\n---\n" + traceHeader + "\n0,8,8\n",
		traceMagic + "\nrequests: 2\nx: y\n# note\n---\n" + traceHeader + "\n0.5,8,8\n\n1e-3,1,1\n",
		traceMagic + "\n---\n" + traceHeader + "\n0,8,8,9\n",
		traceMagic + "\nrequests: zero\n---\n" + traceHeader + "\n0,8,8\n",
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data string) {
		reqs, meta, err := Replay(strings.NewReader(data))
		if err != nil {
			return
		}
		var buf bytes.Buffer
		if err := Record(&buf, reqs, meta); err != nil {
			t.Fatalf("Record of an accepted trace: %v", err)
		}
		back, backMeta, err := Replay(&buf)
		if err != nil {
			t.Fatalf("Replay of a recorded trace: %v", err)
		}
		want := TraceMeta{Source: headerSafe(meta.Source), Note: headerSafe(meta.Note)}
		if backMeta != want {
			t.Errorf("meta round-trip: got %+v, want %+v", backMeta, want)
		}
		if len(back) != len(reqs) {
			t.Fatalf("round-trip: %d requests, want %d", len(back), len(reqs))
		}
		for i := range reqs {
			if back[i] != reqs[i] {
				t.Fatalf("request %d: got %+v, want %+v", i, back[i], reqs[i])
			}
		}
	})
}
