package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"

	"llmbench"
	"llmbench/internal/cluster"
	"llmbench/internal/kvcache"
	"llmbench/internal/sched"
	"llmbench/internal/workload"
)

// --- spans -----------------------------------------------------------------

// span is one host-time interval around a call into a layer, in
// seconds since the child process began measuring.
type span struct {
	ID     int     `json:"id"`
	Parent int     `json:"parent"` // -1 for a root span
	Name   string  `json:"name"`
	Start  float64 `json:"start_s"`
	End    float64 `json:"end_s"`
}

// spans records nested spans in memory; the traced child writes them
// out when it ends. Untraced children record the same few coarse spans
// and use them as their timers.
type spans struct {
	t0   time.Time
	list []span
	open []int
}

func newSpans() *spans { return &spans{t0: time.Now()} }

func (s *spans) begin(name string) {
	parent := -1
	if n := len(s.open); n > 0 {
		parent = s.open[n-1]
	}
	id := len(s.list)
	s.list = append(s.list, span{ID: id, Parent: parent, Name: name, Start: time.Since(s.t0).Seconds()})
	s.open = append(s.open, id)
}

// end closes the innermost open span and returns its duration.
func (s *spans) end() float64 {
	id := s.open[len(s.open)-1]
	s.open = s.open[:len(s.open)-1]
	s.list[id].End = time.Since(s.t0).Seconds()
	return s.list[id].End - s.list[id].Start
}

// total sums the durations of every span with the given name.
func (s *spans) total(name string) float64 {
	var t float64
	for _, sp := range s.list {
		if sp.Name == name {
			t += sp.End - sp.Start
		}
	}
	return t
}

func (s *spans) write(path string) error {
	b, err := json.MarshalIndent(s.list, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

// --- counting allocator ----------------------------------------------------

// Allocator operations the wrapper counts.
const (
	opAlloc = iota
	opExtend
	opFree
	opCanAlloc
	opMaxExtend
	numOps
)

var opNames = [numOps]string{"alloc", "extend", "free", "canalloc", "maxextend"}

// sampleEvery is the share of calls the wrapper times: timing every
// call costs more than the cheapest calls themselves.
const sampleEvery = 64

// countingAlloc forwards every kvcache.Allocator call to the replica's
// own allocator, counts each call exactly and times one call in
// sampleEvery with the clock's own cost subtracted. Each replica has
// its own wrapper; the kernel never advances one station on two
// goroutines at once, so the counters need no synchronisation.
type countingAlloc struct {
	inner   kvcache.Allocator
	clock   time.Duration
	calls   [numOps]int64
	sampled [numOps]int64
	timed   [numOps]time.Duration
}

func (a *countingAlloc) start(op int) (time.Time, bool) {
	n := a.calls[op]
	a.calls[op]++
	if n%sampleEvery != 0 {
		return time.Time{}, false
	}
	return time.Now(), true
}

func (a *countingAlloc) stop(op int, t0 time.Time) {
	a.timed[op] += time.Since(t0) - a.clock
	a.sampled[op]++
}

func (a *countingAlloc) Alloc(tokens int) (kvcache.Seq, error) {
	t0, on := a.start(opAlloc)
	s, err := a.inner.Alloc(tokens)
	if on {
		a.stop(opAlloc, t0)
	}
	return s, err
}

func (a *countingAlloc) Extend(seq kvcache.Seq, tokens int) error {
	t0, on := a.start(opExtend)
	err := a.inner.Extend(seq, tokens)
	if on {
		a.stop(opExtend, t0)
	}
	return err
}

func (a *countingAlloc) Free(seq kvcache.Seq) {
	t0, on := a.start(opFree)
	a.inner.Free(seq)
	if on {
		a.stop(opFree, t0)
	}
}

func (a *countingAlloc) CanAlloc(tokens int) bool {
	t0, on := a.start(opCanAlloc)
	ok := a.inner.CanAlloc(tokens)
	if on {
		a.stop(opCanAlloc, t0)
	}
	return ok
}

func (a *countingAlloc) MaxExtendSteps(seqs []kvcache.Seq, limit int) int {
	t0, on := a.start(opMaxExtend)
	k := a.inner.MaxExtendSteps(seqs, limit)
	if on {
		a.stop(opMaxExtend, t0)
	}
	return k
}

func (a *countingAlloc) UsedBytes() float64     { return a.inner.UsedBytes() }
func (a *countingAlloc) WasteBytes() float64    { return a.inner.WasteBytes() }
func (a *countingAlloc) CapacityBytes() float64 { return a.inner.CapacityBytes() }

// prefixGauges is the allocator view cluster.Prefix routing scores
// with (kvcache.PrefixPaged and kvcache.Tiered have it).
type prefixGauges interface {
	HotPrefixTokens() int
	RestorablePrefixTokens() int
}

type discounter struct{ d kvcache.PrefillDiscounter }

func (x discounter) TakePrefillDiscount() (int, float64) { return x.d.TakePrefillDiscount() }

type gauges struct{ g prefixGauges }

func (x gauges) HotPrefixTokens() int        { return x.g.HotPrefixTokens() }
func (x gauges) RestorablePrefixTokens() int { return x.g.RestorablePrefixTokens() }

// wrapAlloc returns a counting view of inner that implements
// kvcache.PrefillDiscounter and the prefix gauges exactly when inner
// does: the kernel and the router find them by type assertion, so a
// wrapper that dropped one would silently simulate something else.
func wrapAlloc(inner kvcache.Allocator, clock time.Duration) (kvcache.Allocator, *countingAlloc) {
	c := &countingAlloc{inner: inner, clock: clock}
	d, isD := inner.(kvcache.PrefillDiscounter)
	g, isG := inner.(prefixGauges)
	switch {
	case isD && isG:
		return struct {
			*countingAlloc
			discounter
			gauges
		}{c, discounter{d}, gauges{g}}, c
	case isD:
		return struct {
			*countingAlloc
			discounter
		}{c, discounter{d}}, c
	case isG:
		return struct {
			*countingAlloc
			gauges
		}{c, gauges{g}}, c
	}
	return c, c
}

// --- tracer ----------------------------------------------------------------

// tracer instruments one traced run from outside the program: it
// wraps allocators and spans each cluster.Serve call. A nil tracer is
// an untraced run: wrap and serve pass straight through.
type tracer struct {
	sp        *spans
	clock     time.Duration
	allocs    []*countingAlloc
	requests  int
	generated int // output tokens of every served request
}

func newTracer(sp *spans) *tracer { return &tracer{sp: sp, clock: clockCost()} }

func (t *tracer) wrap(a kvcache.Allocator) kvcache.Allocator {
	if t == nil {
		return a
	}
	w, c := wrapAlloc(a, t.clock)
	t.allocs = append(t.allocs, c)
	return w
}

func (t *tracer) serve(cfg cluster.Config, reqs []workload.Request) (cluster.Stats, error) {
	if t == nil {
		return cluster.Serve(cfg, reqs)
	}
	for _, r := range reqs {
		t.generated += r.Output
	}
	t.requests += len(reqs)
	t.sp.begin("cluster.Serve")
	defer t.sp.end()
	return cluster.Serve(cfg, reqs)
}

// clockCost is the median host cost of one time.Now/time.Since pair,
// the overhead each sampled allocator call subtracts.
func clockCost() time.Duration {
	const n = 4097
	d := make([]time.Duration, n)
	for i := range d {
		t0 := time.Now()
		d[i] = time.Since(t0)
	}
	sort.Slice(d, func(i, j int) bool { return d[i] < d[j] })
	return d[n/2]
}

// kvcacheMetrics adds the allocator counters of a traced run: exact
// call counts, mean sampled nanoseconds per call, and the estimated
// total allocator time.
func (t *tracer) kvcacheMetrics(m map[string]float64) {
	var calls, sampled [numOps]int64
	var timed [numOps]time.Duration
	for _, a := range t.allocs {
		for op := 0; op < numOps; op++ {
			calls[op] += a.calls[op]
			sampled[op] += a.sampled[op]
			timed[op] += a.timed[op]
		}
	}
	var self float64
	for op, name := range opNames {
		var ns float64
		if sampled[op] > 0 {
			ns = float64(timed[op].Nanoseconds()) / float64(sampled[op])
		}
		m["kvcache."+name+"_calls"] = float64(calls[op])
		m["kvcache."+name+"_ns"] = ns
		self += ns * float64(calls[op]) / 1e9
	}
	m["kvcache.self_s"] = self
	m["des.tokens_per_extend"] = ratio(float64(t.generated), float64(calls[opExtend]))
	m["des.windows_per_req"] = ratio(float64(calls[opMaxExtend]), float64(t.requests))
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// --- probes ----------------------------------------------------------------

// probeEngine prices the first 20k requests of reqs on a private
// engine, one DecodeStepVec(1+i%maxBatch, Input, Output) call each:
// once with the memo cold, once warm. Prefill pricing is timed over
// the same requests.
func probeEngine(sys llmbench.System, reqs []workload.Request, maxBatch int, m map[string]float64) error {
	reqs = reqs[:min(len(reqs), 20_000)]
	const builds = 64
	t0 := time.Now()
	for i := 0; i < builds; i++ {
		if _, err := llmbench.NewEngine(sys); err != nil {
			return err
		}
	}
	m["engine.build_us"] = time.Since(t0).Seconds() * 1e6 / builds
	eng, err := llmbench.NewEngine(sys)
	if err != nil {
		return err
	}
	pass := func() (float64, error) {
		t0 := time.Now()
		for i, r := range reqs {
			if _, err := eng.DecodeStepVec(1+i%maxBatch, r.Input, r.Output); err != nil {
				return 0, err
			}
		}
		return float64(time.Since(t0).Nanoseconds()) / float64(len(reqs)), nil
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	if m["engine.cold_stepvec_ns"], err = pass(); err != nil {
		return err
	}
	runtime.ReadMemStats(&after)
	m["engine.cold_alloc_mb"] = float64(after.TotalAlloc-before.TotalAlloc) / (1 << 20)
	if m["engine.warm_stepvec_ns"], err = pass(); err != nil {
		return err
	}
	t0 = time.Now()
	for i, r := range reqs {
		if _, err := eng.PrefillSeconds(1+i%maxBatch, r.Input); err != nil {
			return err
		}
	}
	m["engine.prefill_ns"] = float64(time.Since(t0).Nanoseconds()) / float64(len(reqs))
	return nil
}

// probeSched times StreamAggregator.Observe over one synthetic
// completion per request of the trace.
func probeSched(reqs []workload.Request, m map[string]float64) {
	agg := sched.NewStreamAggregator()
	t0 := time.Now()
	for _, r := range reqs {
		agg.Observe(sched.RequestStats{
			ID: r.ID, Input: r.Input, Output: r.Output, Arrival: r.Arrival, Started: r.Arrival,
			FirstTok: r.Arrival + 1e-3*float64(r.Input),
			Finished: r.Arrival + 1e-3*float64(r.Input+r.Output),
		})
	}
	m["sched.observe_ns"] = float64(time.Since(t0).Nanoseconds()) / float64(len(reqs))
}

// --- CPU profile attribution ---------------------------------------------

// cpuBuckets maps the repository's packages to the cpu.* metrics;
// runtime packages go to cpu.runtime and everything else to cpu.other.
var cpuBuckets = map[string]string{
	"llmbench/internal/engine":   "cpu.engine",
	"llmbench/internal/des":      "cpu.des",
	"llmbench/internal/kvcache":  "cpu.kvcache",
	"llmbench/internal/cluster":  "cpu.cluster",
	"llmbench/internal/sched":    "cpu.sched",
	"llmbench/internal/workload": "cpu.workload",
	"llmbench":                   "cpu.llmbench",
}

// cpuShares groups the flat samples of a CPU profile by Go package,
// as `go tool pprof -top` lists them, and adds each bucket's share of
// all samples.
func cpuShares(profile string, m map[string]float64) error {
	for _, b := range cpuBuckets {
		m[b] = 0
	}
	m["cpu.runtime"], m["cpu.other"] = 0, 0
	var stderr bytes.Buffer
	cmd := exec.Command("go", "tool", "pprof", "-top", "-nodecount=1000000", "-nodefraction=0", profile)
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return fmt.Errorf("go tool pprof: %w: %s", err, stderr.String())
	}
	sc := bufio.NewScanner(bytes.NewReader(out))
	header := false
	for sc.Scan() {
		f := strings.Fields(sc.Text())
		if !header {
			header = len(f) > 0 && f[0] == "flat"
			continue
		}
		if len(f) < 6 {
			continue
		}
		pct, err := strconv.ParseFloat(strings.TrimSuffix(f[1], "%"), 64)
		if err != nil {
			return fmt.Errorf("go tool pprof: bad flat%% %q", f[1])
		}
		m[cpuBucket(f[5])] += pct / 100
	}
	return sc.Err()
}

// cpuBucket names the cpu.* metric of a profiled function, from its
// package path: the name up to the first '.' after the last '/',
// ignoring generic type arguments.
func cpuBucket(fn string) string {
	if i := strings.IndexByte(fn, '['); i >= 0 {
		fn = fn[:i]
	}
	pkg := fn
	slash := strings.LastIndex(fn, "/") + 1
	if dot := strings.Index(fn[slash:], "."); dot >= 0 {
		pkg = fn[:slash+dot]
	}
	if b, ok := cpuBuckets[pkg]; ok {
		return b
	}
	if pkg == "runtime" || strings.HasPrefix(pkg, "runtime/") || strings.HasPrefix(pkg, "internal/runtime/") {
		return "cpu.runtime"
	}
	return "cpu.other"
}
