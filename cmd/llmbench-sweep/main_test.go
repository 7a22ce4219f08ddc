package main

import (
	"bytes"
	"math"
	"strings"
	"testing"
)

// The list flags are llmbench.Axes rows, and the root package's
// TestAxisSet covers every parsing and checking case. The tests here
// pin the flag wiring: each flag reaches its row, and a bad list fails
// at flag-parse time with an error naming the flag.

// sweepOutput runs the command and returns its stdout.
func sweepOutput(t *testing.T, args ...string) string {
	t.Helper()
	var out bytes.Buffer
	if err := run(args, &out); err != nil {
		t.Fatalf("%q: %v", args, err)
	}
	return out.String()
}

// TestErrorLineOnePrefix: main prints every error behind exactly one
// "llmbench-sweep: " prefix, whether the error comes from the llmbench
// package (which carries its own "llmbench: ") or from the command.
func TestErrorLineOnePrefix(t *testing.T) {
	cases := []struct {
		args []string
		want string
	}{
		{[]string{"-serve", "-rates", "1", "-kvbudget", "-1"},
			"llmbench-sweep: invalid KV budget -1 GiB (want a finite value ≥ 0)"},
		{[]string{"-serve", "-rates", "1", "-model", "LLaMA-2-70B", "-devices", "A100"},
			"llmbench-sweep: LLaMA-2-70B does not fit on A100 for serving"},
		{[]string{"-serve"},
			"llmbench-sweep: -serve needs -rates (e.g. -rates 5,10,20) or -trace"},
	}
	for _, c := range cases {
		err := run(c.args, &bytes.Buffer{})
		if err == nil {
			t.Fatalf("%q: want an error", c.args)
		}
		if got := errorLine(err); got != c.want {
			t.Errorf("%q prints %q, want %q", c.args, got, c.want)
		}
	}
}

// wantFlagErrors requires every bad list for the flag to fail the
// command with an error naming the flag.
func wantFlagErrors(t *testing.T, flag string, bads ...string) {
	t.Helper()
	for _, bad := range bads {
		var out bytes.Buffer
		if err := run([]string{flag, bad}, &out); err == nil {
			t.Errorf("%s %q: want an error, got\n%s", flag, bad, out.String())
		} else if !strings.Contains(err.Error(), flag) {
			t.Errorf("%s %q: error %v must name the flag", flag, bad, err)
		}
	}
}

// wantRows requires every line to appear in the output.
func wantRows(t *testing.T, out string, lines ...string) {
	t.Helper()
	for _, l := range lines {
		if !strings.Contains(out, l) {
			t.Errorf("output missing %q:\n%s", l, out)
		}
	}
}

func TestParseInts(t *testing.T) {
	out := sweepOutput(t, "-batches", "1, 16,32 ,64", "-lengths", "128", "-j", "1")
	wantRows(t, out, "| 1 | 128 |", "| 16 | 128 |", "| 32 | 128 |", "| 64 | 128 |")
}

func TestParseIntsSingle(t *testing.T) {
	out := sweepOutput(t, "-batches", "8", "-lengths", "1024", "-j", "1")
	if rows := strings.Count(out, "\n| 8 | 1024 |"); rows != 1 || strings.Count(out, "\n|") != 3 {
		t.Errorf("single-element lists must sweep one point:\n%s", out)
	}
}

func TestParseIntsErrors(t *testing.T) {
	wantFlagErrors(t, "-batches", "0", "1,,2")
	wantFlagErrors(t, "-lengths", "0")
	wantFlagErrors(t, "-replicas", "0")
	wantFlagErrors(t, "-maxbatches", "-1")
}

func TestParseFloats(t *testing.T) {
	wantFlagErrors(t, "-rates", "0", "NaN")
	wantFlagErrors(t, "-bursts", "0.5")
	wantFlagErrors(t, "-prefix-shares", "1")
}

func TestParseList(t *testing.T) {
	out := sweepOutput(t, "-devices", " A100, H100 ,MI300X", "-batches", "1", "-lengths", "128", "-j", "1")
	wantRows(t, out, "| A100 | vLLM |", "| H100 | vLLM |", "| MI300X | vLLM |")
}

// TestParseListRejectsEmptyElements: "-devices A100,,H100" used to
// silently drop the empty element; it is a flag-parse error.
func TestParseListRejectsEmptyElements(t *testing.T) {
	wantFlagErrors(t, "-devices", "A100,,H100", " , ")
	wantFlagErrors(t, "-frameworks", "vLLM,")
}

func TestParseSchemes(t *testing.T) {
	out := sweepOutput(t, "-device", "H100", "-schemes", "fp16:fp16, int8:fp8 ,fp8",
		"-batches", "1", "-lengths", "128", "-j", "1")
	wantRows(t, out, "| fp16/fp16 |", "| int8/fp8 |", "| fp8/fp8 |")
	wantFlagErrors(t, "-schemes", "fp16:")
}

func TestParsePolicies(t *testing.T) {
	wantFlagErrors(t, "-policies", "bogus", "continuous:,ll")
}

// TestParsePoliciesDisagg: malformed pool splits and illegal
// compositions fail at flag-parse time, naming the flag.
func TestParsePoliciesDisagg(t *testing.T) {
	wantFlagErrors(t, "-policies", "static:disagg/1:3", "disagg/0:3")
}

// TestValidateSLO: -slo must be rejected at parse time — a NaN SLO
// would otherwise qualify nothing while `NaN > slo` comparisons stay
// silently false — and the error must name the flag.
func TestValidateSLO(t *testing.T) {
	for _, ok := range []float64{0, 0.5, 6, 1e6} {
		if err := validateSLO(ok); err != nil {
			t.Errorf("validateSLO(%v) = %v, want nil", ok, err)
		}
	}
	for _, bad := range []float64{-1, math.NaN(), math.Inf(1), math.Inf(-1)} {
		if err := validateSLO(bad); err == nil {
			t.Errorf("validateSLO(%v) must fail", bad)
		} else if !strings.Contains(err.Error(), "-slo") {
			t.Errorf("validateSLO(%v) error %v must name the -slo flag", bad, err)
		}
	}
}

func TestParseMixes(t *testing.T) {
	wantFlagErrors(t, "-mixes", "512", "0:128")
}
