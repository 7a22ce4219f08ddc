package workload

// Versioned trace record/replay: any serving trace — synthesized or
// captured from production — can be written to a small self-describing
// file and replayed deterministically through any policy, replica
// count, and batching configuration. The format is a YAML-ish header
// (magic + version line, then "key: value" metadata) followed by a
// CSV body of one request per row:
//
//	llmbench-trace v1
//	source: poisson rate=10 seed=42
//	requests: 3
//	---
//	arrival_s,input_tokens,output_tokens
//	0.05954086040192683,481,130
//	0.1585619738626371,553,131
//	0.26885842810122786,512,118
//
// Arrival offsets are seconds since trace start, written with
// full-precision formatting (strconv 'g', -1) so Record → Replay is
// byte-exact: replaying a recorded trace yields the identical
// []Request (IDs are row indices) and therefore byte-identical Stats
// under the DES determinism contract. Rows must be in non-decreasing
// arrival order with finite, non-negative offsets and positive token
// counts; a "requests:" header, when present, must match the row
// count — a truncated file fails loudly instead of replaying a
// shorter day.

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"strconv"
	"strings"
)

// traceMagic is the first line of every trace file; the trailing
// version number gates incompatible future revisions.
const traceMagic = "llmbench-trace v1"

// traceHeader is the CSV column line; replay rejects anything else so
// column reordering cannot silently swap inputs and outputs.
const traceHeader = "arrival_s,input_tokens,output_tokens"

// TraceMeta is the optional descriptive header of a trace file. Both
// fields are informative only; replay semantics depend solely on the
// body rows.
type TraceMeta struct {
	// Source describes how the trace was produced, e.g.
	// "poisson rate=10 seed=42" or "prod us-east 2026-08-01".
	Source string
	// Note is a free-form annotation.
	Note string
}

// ValidateTrace checks that a request slice is a replayable trace:
// non-empty, arrivals finite, non-negative, and non-decreasing, and
// token counts positive. Record refuses to write anything Replay
// would reject.
func ValidateTrace(reqs []Request) error {
	if len(reqs) == 0 {
		return fmt.Errorf("workload: empty trace")
	}
	prev := 0.0
	for i, r := range reqs {
		if math.IsNaN(r.Arrival) || math.IsInf(r.Arrival, 0) || r.Arrival < 0 {
			return fmt.Errorf("workload: trace row %d has bad arrival %v (want finite, ≥ 0)", i, r.Arrival)
		}
		if r.Arrival < prev {
			return fmt.Errorf("workload: trace row %d arrival %v precedes row %d (%v); rows must be time-ordered",
				i, r.Arrival, i-1, prev)
		}
		if r.Input < 1 || r.Output < 1 {
			return fmt.Errorf("workload: trace row %d has non-positive lengths (input %d, output %d)",
				i, r.Input, r.Output)
		}
		prev = r.Arrival
	}
	return nil
}

// Record writes a trace in the versioned file format. The trace is
// validated first (see ValidateTrace); metadata values have newlines
// stripped so they cannot corrupt the header.
func Record(w io.Writer, reqs []Request, meta TraceMeta) error {
	if err := ValidateTrace(reqs); err != nil {
		return err
	}
	bw := bufio.NewWriter(w)
	fmt.Fprintln(bw, traceMagic)
	if s := headerSafe(meta.Source); s != "" {
		fmt.Fprintf(bw, "source: %s\n", s)
	}
	if n := headerSafe(meta.Note); n != "" {
		fmt.Fprintf(bw, "note: %s\n", n)
	}
	fmt.Fprintf(bw, "requests: %d\n", len(reqs))
	fmt.Fprintln(bw, "---")
	fmt.Fprintln(bw, traceHeader)
	for _, r := range reqs {
		bw.WriteString(strconv.FormatFloat(r.Arrival, 'g', -1, 64))
		bw.WriteByte(',')
		bw.WriteString(strconv.Itoa(r.Input))
		bw.WriteByte(',')
		bw.WriteString(strconv.Itoa(r.Output))
		bw.WriteByte('\n')
	}
	return bw.Flush()
}

// headerSafe collapses a metadata value onto one line.
func headerSafe(s string) string {
	return strings.TrimSpace(strings.NewReplacer("\n", " ", "\r", " ").Replace(s))
}

// Replay reads a trace file written by Record (or by any producer of
// the documented format) back into a request slice with IDs assigned
// in row order. The returned trace satisfies ValidateTrace, so it can
// be handed to any Serve* simulator directly; replaying one recorded
// trace through different configurations is deterministic to the bit.
func Replay(r io.Reader) ([]Request, TraceMeta, error) {
	var meta TraceMeta
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 1<<20)
	if !sc.Scan() {
		return nil, meta, fmt.Errorf("workload: empty trace file")
	}
	// The error never quotes the line it read: a reader fed an
	// arbitrary file must not echo that file's contents to its caller.
	if strings.TrimSpace(sc.Text()) != traceMagic {
		return nil, meta, fmt.Errorf("workload: not a trace file (first line is not %q)", traceMagic)
	}
	// Header: "key: value" lines up to the "---" separator.
	wantRows := -1
	sawSep := false
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "---" {
			sawSep = true
			break
		}
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		key, val, found := strings.Cut(line, ":")
		if !found {
			return nil, meta, fmt.Errorf("workload: bad trace header line %q (want key: value)", line)
		}
		val = strings.TrimSpace(val)
		switch strings.TrimSpace(key) {
		case "source":
			meta.Source = val
		case "note":
			meta.Note = val
		case "requests":
			n, err := strconv.Atoi(val)
			if err != nil || n < 1 {
				return nil, meta, fmt.Errorf("workload: bad trace header requests: %q", val)
			}
			wantRows = n
		default:
			// Unknown keys are ignored so v1 readers tolerate additive
			// metadata; unknown *columns* are not (see below).
		}
	}
	if !sawSep {
		return nil, meta, fmt.Errorf("workload: trace header not terminated by ---")
	}
	if !sc.Scan() || strings.TrimSpace(sc.Text()) != traceHeader {
		return nil, meta, fmt.Errorf("workload: trace body must start with %q", traceHeader)
	}
	var reqs []Request
	if wantRows > 0 {
		reqs = make([]Request, 0, wantRows)
	}
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" {
			continue
		}
		row := len(reqs)
		aStr, rest, ok1 := strings.Cut(line, ",")
		inStr, outStr, ok2 := strings.Cut(rest, ",")
		if !ok1 || !ok2 || strings.Contains(outStr, ",") {
			return nil, meta, fmt.Errorf("workload: trace row %d: want 3 comma-separated fields, got %q", row, line)
		}
		arrival, errA := strconv.ParseFloat(strings.TrimSpace(aStr), 64)
		in, errI := strconv.Atoi(strings.TrimSpace(inStr))
		out, errO := strconv.Atoi(strings.TrimSpace(outStr))
		if errA != nil || errI != nil || errO != nil {
			return nil, meta, fmt.Errorf("workload: trace row %d: bad values in %q", row, line)
		}
		reqs = append(reqs, Request{ID: row, Arrival: arrival, Input: in, Output: out})
	}
	if err := sc.Err(); err != nil {
		return nil, meta, fmt.Errorf("workload: reading trace: %w", err)
	}
	if wantRows >= 0 && wantRows != len(reqs) {
		return nil, meta, fmt.Errorf("workload: trace header says %d requests but body has %d rows (truncated file?)",
			wantRows, len(reqs))
	}
	if err := ValidateTrace(reqs); err != nil {
		return nil, meta, err
	}
	return reqs, meta, nil
}

// NativeRate is a trace's empirical mean arrival rate: requests per
// second over the span from time zero to the last arrival. It is the
// reference intensity rate-rescaled replay scales against. Traces
// whose last arrival is not positive (a single instantaneous burst at
// t=0) have no meaningful rate and return an error.
func NativeRate(reqs []Request) (float64, error) {
	if len(reqs) == 0 {
		return 0, fmt.Errorf("workload: empty trace")
	}
	last := reqs[len(reqs)-1].Arrival
	if !(last > 0) {
		return 0, fmt.Errorf("workload: trace spans no time (last arrival %v); native rate undefined", last)
	}
	return float64(len(reqs)) / last, nil
}

// ScaleToRate replays a trace at a what-if intensity: arrival offsets
// are multiplied by NativeRate/rate so the rescaled trace's mean rate
// is exactly rate, while request order, lengths, and the relative
// shape of the arrival process (bursts, lulls) are preserved — the
// standard trace-scaling technique for capacity ladders over recorded
// traffic. Scaling to the native rate returns the input unchanged
// (aliased, not copied; traces are treated as immutable).
func ScaleToRate(reqs []Request, rate float64) ([]Request, error) {
	if !(rate > 0) || math.IsInf(rate, 0) {
		return nil, fmt.Errorf("workload: replay rate %v must be positive and finite", rate)
	}
	native, err := NativeRate(reqs)
	if err != nil {
		return nil, err
	}
	factor := native / rate
	if factor == 1 {
		return reqs, nil
	}
	out := make([]Request, len(reqs))
	for i, r := range reqs {
		r.Arrival *= factor
		out[i] = r
	}
	return out, nil
}
