package llmbench

import (
	"errors"
	"fmt"
	"math"
	"strconv"
	"strings"
)

// Axis is one row of the sweep-axis table: the comma-separated list
// form of one Grid or ServeGrid axis. Grid.Set and ServeGrid.Set parse
// lists through it, llmbench-sweep registers one flag per row, and the
// dashboard fills its serving grid from query parameters through it.
// A row's element check is the one ServeSweep's validation runs, so a
// parsed list and a grid built in code fail with the same message.
type Axis struct {
	// Name keys the row: the llmbench-sweep flag and the name Set takes.
	Name string
	// Usage describes the list's elements, for flag help.
	Usage string
	// Offline and Serve report which grids have the axis: Grid and
	// ServeGrid respectively.
	Offline, Serve bool

	set func(grid any, list string) error
}

// Axes is the sweep-axis table. Adding a serve axis is one row here
// plus its ServeGrid field.
var Axes = []Axis{
	listAxis("batches", "batch sizes", strconv.Atoi, checkBatch,
		func(g *Grid) *[]int { return &g.Batches }, nil),
	listAxis("lengths", "input = output lengths in tokens", strconv.Atoi, checkLength,
		func(g *Grid) *[]int { return &g.Lengths }, nil),
	listAxis("devices", "device axis (overrides the base device per point)", parseName, nil,
		func(g *Grid) *[]string { return &g.Devices }, func(g *ServeGrid) *[]string { return &g.Devices }),
	listAxis("frameworks", "framework axis (overrides the base framework per point)", parseName, nil,
		func(g *Grid) *[]string { return &g.Frameworks }, func(g *ServeGrid) *[]string { return &g.Frameworks }),
	listAxis("schemes", "weights:kv precision axis, e.g. fp16:fp16,int8:fp8; a bare precision sets both",
		parseScheme, nil,
		func(g *Grid) *[]Scheme { return &g.Schemes }, func(g *ServeGrid) *[]Scheme { return &g.Schemes }),
	listAxis("rates", "arrival rates in req/s", parseFloat, checkRate,
		nil, func(g *ServeGrid) *[]float64 { return &g.Rates }),
	listAxis("replicas", "replica counts (the capacity ceiling of autoscale policies)", strconv.Atoi, checkReplicas,
		nil, func(g *ServeGrid) *[]int { return &g.Replicas }),
	listAxis("maxbatches", "per-replica batch caps", strconv.Atoi, checkMaxBatch,
		nil, func(g *ServeGrid) *[]int { return &g.MaxBatches }),
	listAxis("policies", "policy axis; each entry joins ':'- or '/'-separated tokens from "+
		"{continuous|static, rr|round-robin|ll|least-loaded|prefix, autoscale, aggregated, disagg/<p>:<d>} — "+
		"static composes with every router and with autoscale (e.g. static:ll, static:autoscale); "+
		"prefix routes to cache-warm replicas (see prefix-shares) and is mutually exclusive with ll; "+
		"disagg/<p>:<d> splits each point's fleet into prefill and decode pools in that ratio "+
		"(e.g. ll:disagg/1:3) and composes with rr/ll but not static or autoscale",
		ParseServePolicy, ServePolicy.validate,
		nil, func(g *ServeGrid) *[]ServePolicy { return &g.Policies }),
	listAxis("bursts", "burst-factor axis ≥ 1 (1 = no bursts); setting it switches traces "+
		"from plain Poisson to bursty heavy-tailed chat arrivals (workload.ChatTrace)",
		parseFloat, checkBurst,
		nil, func(g *ServeGrid) *[]float64 { return &g.BurstFactors }),
	listAxis("mixes", "input:output length-median axis, e.g. 512:128,2048:256; "+
		"setting it switches traces to heavy-tailed chat arrivals",
		parseMix, checkMix,
		nil, func(g *ServeGrid) *[]LengthMix { return &g.LengthMixes }),
	listAxis("prefix-shares", "shared-prefix share axis in [0,1), e.g. 0,0.5; each share s "+
		"prepends a fleet-wide system prompt of s×(input median) tokens to every request and "+
		"gives every replica a tiered prefix cache (GPU prefix blocks + CPU offload tier); "+
		"setting it switches traces to chat arrivals",
		parseFloat, checkShare,
		nil, func(g *ServeGrid) *[]float64 { return &g.PrefixShares }),
}

// Set parses a comma-separated list into the named axis (a Grid row of
// Axes), replacing its values. Elements are trimmed; empty elements and
// elements the axis rejects fail with an error naming the axis.
func (g *Grid) Set(name, list string) error { return setAxis(g, name, list) }

// Set parses a comma-separated list into the named axis (a ServeGrid
// row of Axes), replacing its values. Elements are trimmed; empty
// elements and elements ServeSweep would reject fail with an error
// naming the axis.
func (g *ServeGrid) Set(name, list string) error { return setAxis(g, name, list) }

func setAxis(grid any, name, list string) error {
	for _, a := range Axes {
		if a.Name == name {
			return a.set(grid, list)
		}
	}
	return fmt.Errorf("llmbench: unknown sweep axis %q", name)
}

// listAxis builds one table row from its element parser and check
// (nil when any parsed element is valid) and the grid fields the list
// fills (nil for a grid without the axis).
func listAxis[T any](name, usage string, parse func(string) (T, error), check func(T) error,
	offline func(*Grid) *[]T, serve func(*ServeGrid) *[]T) Axis {
	return Axis{
		Name: name, Usage: usage, Offline: offline != nil, Serve: serve != nil,
		set: func(grid any, list string) error {
			var field *[]T
			switch g := grid.(type) {
			case *Grid:
				if offline != nil {
					field = offline(g)
				}
			case *ServeGrid:
				if serve != nil {
					field = serve(g)
				}
			}
			if field == nil {
				return fmt.Errorf("llmbench: %T has no %s axis", grid, name)
			}
			vs, err := splitList(list, parse, check)
			if err != nil {
				return fmt.Errorf("llmbench: bad %s list %q: %w", name, list, err)
			}
			*field = vs
			return nil
		},
	}
}

// splitList splits a comma-separated list, trims each element, and
// parses and checks it; empty elements are rejected, not dropped.
func splitList[T any](list string, parse func(string) (T, error), check func(T) error) ([]T, error) {
	parts := strings.Split(list, ",")
	out := make([]T, 0, len(parts))
	for _, p := range parts {
		p = strings.TrimSpace(p)
		if p == "" {
			return nil, errors.New("empty element")
		}
		v, err := parse(p)
		if err != nil {
			return nil, err
		}
		if check != nil {
			if err := check(v); err != nil {
				return nil, err
			}
		}
		out = append(out, v)
	}
	return out, nil
}

// checkEach runs an axis's element check over a grid's values.
func checkEach[T any](vs []T, check func(T) error) error {
	for _, v := range vs {
		if err := check(v); err != nil {
			return err
		}
	}
	return nil
}

func parseName(s string) (string, error) { return s, nil }

func parseFloat(s string) (float64, error) { return strconv.ParseFloat(s, 64) }

// parseScheme parses "weights:kv"; a bare precision applies to both.
func parseScheme(s string) (Scheme, error) {
	w, kv, found := strings.Cut(s, ":")
	if !found {
		kv = w
	}
	if w == "" || kv == "" {
		return Scheme{}, fmt.Errorf("scheme %q: want weights:kv", s)
	}
	return Scheme{Weights: w, KV: kv}, nil
}

// parseMix parses one "input:output" length-median pair.
func parseMix(s string) (LengthMix, error) {
	in, out, found := strings.Cut(s, ":")
	if !found {
		return LengthMix{}, fmt.Errorf("mix %q: want input:output", s)
	}
	i, err1 := strconv.Atoi(strings.TrimSpace(in))
	o, err2 := strconv.Atoi(strings.TrimSpace(out))
	if err1 != nil || err2 != nil {
		return LengthMix{}, fmt.Errorf("mix %q: want integer input:output medians", s)
	}
	return LengthMix{Input: i, Output: o}, nil
}

// atLeastOne is the element check of the count axes.
func atLeastOne(what string) func(int) error {
	return func(n int) error {
		if n < 1 {
			return fmt.Errorf("%s %d must be ≥ 1", what, n)
		}
		return nil
	}
}

// The element checks. Their errors carry no package prefix: Set wraps
// them with the axis and list, ServeSweep's validation with "llmbench: ".
var (
	checkBatch    = atLeastOne("batch size")
	checkLength   = atLeastOne("length")
	checkReplicas = atLeastOne("replica count")
	checkMaxBatch = atLeastOne("max batch")
)

func checkRate(r float64) error {
	if !(r > 0) || math.IsInf(r, 0) {
		return fmt.Errorf("arrival rate %v must be positive and finite", r)
	}
	return nil
}

func checkBurst(b float64) error {
	if !(b >= 1) || math.IsInf(b, 0) {
		return fmt.Errorf("burst factor %v must be ≥ 1 and finite", b)
	}
	return nil
}

func checkShare(s float64) error {
	if !(s >= 0) || s >= 1 {
		return fmt.Errorf("prefix share %v must be in [0, 1)", s)
	}
	return nil
}

// checkMix rejects non-positive medians; ChatTrace's stricter floor
// (≥ 16) surfaces per point so one bad mix cannot abort the sweep.
func checkMix(m LengthMix) error {
	if m.Input < 1 || m.Output < 1 {
		return fmt.Errorf("length mix %+v must have positive medians", m)
	}
	return nil
}
