// Package dashboard serves the interactive LLM-Inference-Bench
// dashboard — the paper's companion artifact — as a self-contained
// net/http handler: an experiment browser that renders every
// reproduced figure as an SVG chart (log/linear toggle) with its data
// table and notes.
package dashboard

import (
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"net/http"
	"os"
	"strconv"
	"strings"
	"sync"

	"llmbench"
	"llmbench/internal/experiments"
	"llmbench/internal/metrics"
	"llmbench/internal/workload"
)

// Handler returns the dashboard's HTTP handler. parallelism bounds
// the worker pool interactive regeneration fans out on (the
// `llmbench-dashboard -j` flag): custom sweeps evaluate their grid
// points concurrently and multi-id /api/run requests regenerate
// experiments concurrently. Values below 1 mean GOMAXPROCS. Output is
// deterministic at any setting (internal/pool orders results by
// submission).
func Handler(parallelism int) http.Handler {
	s := &server{cache: make(map[string]*experiments.Output), parallelism: parallelism}
	mux := http.NewServeMux()
	mux.HandleFunc("/", s.index)
	mux.HandleFunc("/api/experiments", s.list)
	mux.HandleFunc("/api/run", s.run)
	mux.HandleFunc("/api/sweep", s.sweep)
	mux.HandleFunc("/api/serve", s.serve)
	mux.HandleFunc("/api/servesweep", s.serveSweep)
	return mux
}

type server struct {
	mu          sync.Mutex
	cache       map[string]*experiments.Output
	parallelism int
}

type expInfo struct {
	ID       string   `json:"id"`
	Title    string   `json:"title"`
	Workload string   `json:"workload"`
	Modules  []string `json:"modules"`
}

func (s *server) list(w http.ResponseWriter, r *http.Request) {
	all := experiments.All()
	out := make([]expInfo, len(all))
	for i, e := range all {
		out[i] = expInfo{ID: e.ID, Title: e.Title, Workload: e.Workload, Modules: e.Modules}
	}
	writeJSON(w, out)
}

type seriesJSON struct {
	Label  string       `json:"label"`
	Points [][2]float64 `json:"points"`
}

type figureJSON struct {
	ID     string       `json:"id"`
	Title  string       `json:"title"`
	XLabel string       `json:"xlabel"`
	YLabel string       `json:"ylabel"`
	Series []seriesJSON `json:"series"`
	Notes  []string     `json:"notes"`
}

type runResponse struct {
	Figure   *figureJSON `json:"figure,omitempty"`
	Text     string      `json:"text,omitempty"`
	Markdown string      `json:"markdown"`
}

func (s *server) run(w http.ResponseWriter, r *http.Request) {
	id := r.URL.Query().Get("id")
	if id == "all" {
		s.runAll(w)
		return
	}
	exp, err := experiments.Get(id)
	if err != nil {
		http.Error(w, err.Error(), http.StatusNotFound)
		return
	}
	s.mu.Lock()
	out, ok := s.cache[id]
	s.mu.Unlock()
	if !ok {
		out, err = exp.Run()
		if err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
			return
		}
		s.mu.Lock()
		s.cache[id] = out
		s.mu.Unlock()
	}
	resp := runResponse{Markdown: out.Markdown(), Text: out.Text}
	if out.Figure != nil {
		resp.Figure = toJSON(out.Figure)
	}
	writeJSON(w, resp)
}

// runAll regenerates every experiment concurrently on the -j worker
// pool and fills the cache, so subsequent clicks render instantly.
func (s *server) runAll(w http.ResponseWriter) {
	all := experiments.All()
	ids := make([]string, len(all))
	for i, e := range all {
		ids[i] = e.ID
	}
	outs, err := experiments.RunExperiments(ids, s.parallelism)
	if err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	s.mu.Lock()
	for i, out := range outs {
		s.cache[ids[i]] = out
	}
	s.mu.Unlock()
	writeJSON(w, runResponse{Markdown: fmt.Sprintf("regenerated %d experiments", len(ids))})
}

// sweep runs an ad-hoc batch sweep:
// /api/sweep?model=…&device=…&framework=…&tp=N&len=1024
func (s *server) sweep(w http.ResponseWriter, r *http.Request) {
	q := query{values: r.URL.Query()}
	get := q.get
	tp, err := strconv.Atoi(get("tp", "1"))
	if err != nil || tp < 1 {
		http.Error(w, "dashboard: bad tp", http.StatusBadRequest)
		return
	}
	// Cap the sweep length: sweeps run on process-shared cached
	// engines whose step-cost memo grows with context, so an
	// unbounded query parameter would let clients grow server memory
	// without bound (the paper's own grids stop at 2048).
	const maxSweepLen = 8192
	length, err := strconv.Atoi(get("len", "1024"))
	if err != nil || length < 1 || length > maxSweepLen {
		http.Error(w, fmt.Sprintf("dashboard: len must be in [1, %d]", maxSweepLen), http.StatusBadRequest)
		return
	}
	sys := llmbench.System{
		Model: get("model", "LLaMA-3-8B"), Device: get("device", "A100"), Framework: get("framework", "vLLM"),
		TP: tp,
	}
	// Sweep builds through the process-wide engine cache, so a repeated
	// sweep of one system reuses its engine and memoised step costs, and
	// fans the points over the -j pool in grid order.
	pts, err := llmbench.Sweep(sys, llmbench.Grid{
		Batches: workload.PaperBatches, Lengths: []int{length}, Parallelism: s.parallelism,
	})
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	fig := &metrics.Figure{
		ID:     "sweep",
		Title:  fmt.Sprintf("%s on %d× %s via %s (len %d)", sys.Model, tp, sys.Device, sys.Framework, length),
		XLabel: "Batch size", YLabel: "Throughput (tokens/s)",
	}
	for _, p := range pts {
		if p.Err != nil {
			fig.Note("batch %d skipped: %v", p.Batch, p.Err)
			continue
		}
		fig.Add("throughput", float64(p.Batch), p.Result.Throughput)
		fig.Add("TTFT (s)", float64(p.Batch), p.Result.TTFTSeconds)
		fig.Add("ITL (ms)", float64(p.Batch), p.Result.ITLSeconds*1000)
	}
	writeJSON(w, runResponse{Figure: toJSON(fig), Markdown: fig.Markdown()})
}

// serve runs an interactive cluster-serving simulation on the shared
// DES kernel (internal/des via the root llmbench API):
// /api/serve?model=…&device=…&framework=…&replicas=4&rate=20&requests=200
// With autoscale=1 the fleet scales dynamically between 1 and
// `replicas` instead of being fixed. The simulation is deterministic,
// so the table below is reproducible.
func (s *server) serve(w http.ResponseWriter, r *http.Request) {
	// Bounded knobs: serving simulations run on process-shared cached
	// engines, so unbounded query parameters would let clients grow
	// server memory and burn CPU without limit.
	q := query{values: r.URL.Query()}
	// replicas and rate are one entry each of the llmbench.Axes rows
	// replicas (integers ≥ 1) and rates (positive and finite, so NaN
	// fails), capped at 64 replicas and 1000 req/s. An empty replicas=
	// is a bad list, not the default.
	var grid llmbench.ServeGrid
	replicas := "4"
	if vs, ok := q.values["replicas"]; ok {
		replicas = vs[0]
	}
	if err := grid.Set("replicas", replicas); err != nil || len(grid.Replicas) != 1 || grid.Replicas[0] > 64 {
		q.err = fmt.Errorf("dashboard: replicas must be one integer in [1, 64]")
	}
	p := serveParams{
		sys: llmbench.System{
			Model:     q.get("model", "LLaMA-3-8B"),
			Device:    q.get("device", "A100"),
			Framework: q.get("framework", "vLLM"),
		},
		requests:  q.atoiIn("requests", "200", 1, 2000),
		maxBatch:  q.atoiIn("maxbatch", "32", 1, 256),
		inMean:    q.atoiIn("inmean", "512", 1, 8192),
		outMean:   q.atoiIn("outmean", "128", 1, 8192),
		autoscale: q.get("autoscale", "") == "1",
	}
	if err := grid.Set("rates", q.get("rate", "10")); (err != nil || len(grid.Rates) != 1 || grid.Rates[0] > 1000) && q.err == nil {
		q.err = fmt.Errorf("dashboard: rate must be in (0, 1000]")
	}
	if q.err != nil {
		http.Error(w, q.err.Error(), http.StatusBadRequest)
		return
	}
	p.replicas, p.rate = grid.Replicas[0], grid.Rates[0]
	s.serveSim(w, p)
}

// serveSweep runs a serving-capacity grid (llmbench.ServeSweep) —
// arrival rates × replica counts, optionally × trace shape — and
// renders the P99-latency-vs-rate chart capacity planning reads, one
// series per replica count (per replica count × trace shape when the
// shape axes are set):
// /api/servesweep?model=…&device=…&framework=…&rates=5,10,20&replicas=1,2,4
// The list parameters rates, replicas, bursts, mixes and prefixshare
// are the llmbench.Axes rows rates, replicas, bursts, mixes and
// prefix-shares, parsed and checked by ServeGrid.Set: bursts is the
// ChatTrace burst-factor axis (values ≥ 1), mixes the "in:out"
// length-median axis (e.g. 512:128,2048:256), and prefixshare one share
// in [0,1) of the input median spent on a fleet-wide shared system
// prompt (every replica gets a tiered prefix cache and the table gains
// a cache-hit-rate column — the workload the prefix policy routes for).
// policy is one entry of the llmbench.ParseServePolicy grammar — ':'-
// or '/'-joined tokens from {continuous|static, rr|round-robin,
// ll|least-loaded, prefix, auto|autoscale, aggregated, disagg/<p>:<d>},
// e.g. ll, static/ll, static/auto, ll/disagg/1:3. Other optional
// parameters: maxbatch, requests, inmean, outmean, slo (seconds; draws
// the knee per configuration into the table), trace (path of a
// recorded llmbench-trace file on the server's filesystem — no upload
// needed; replays it at every point, at its native rate when rates is
// absent or rescaled to each rate otherwise; incompatible with bursts,
// mixes and prefixshare), stream (=1 aggregates incrementally with P²
// percentile sketches — required for traces over 100k requests).
func (s *server) serveSweep(w http.ResponseWriter, r *http.Request) {
	q := query{values: r.URL.Query()}
	get := q.get
	stream := get("stream", "") == "1"
	tracePath := get("trace", "")
	var grid llmbench.ServeGrid
	if tracePath != "" {
		var err error
		grid.Trace, err = readTraceFile(tracePath, stream)
		if err != nil {
			http.Error(w, "dashboard: "+err.Error(), http.StatusBadRequest)
			return
		}
	}
	// On trace replays an absent rates axis means one native-rate
	// point; everywhere else it defaults to 5,10,20.
	rates := "5,10,20"
	if tracePath != "" {
		rates = ""
	}
	for _, p := range []struct{ param, axis, def string }{
		{"rates", "rates", rates},
		{"replicas", "replicas", "1,2,4"},
		{"bursts", "bursts", ""},
		{"mixes", "mixes", ""},
		{"prefixshare", "prefix-shares", ""},
	} {
		if v := get(p.param, p.def); v != "" {
			if err := grid.Set(p.axis, v); err != nil {
				http.Error(w, "dashboard: "+err.Error(), http.StatusBadRequest)
				return
			}
		}
	}
	if err := checkServeSweepBounds(grid); err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	maxBatch := q.atoiIn("maxbatch", "32", 1, 256)
	requests := q.atoiIn("requests", "150", 1, 1000)
	if tracePath != "" {
		// Replay points run the recorded trace; report its true size.
		requests = len(grid.Trace)
	}
	inMean := q.atoiIn("inmean", "512", 1, 8192)
	outMean := q.atoiIn("outmean", "128", 1, 8192)
	if q.err != nil {
		http.Error(w, q.err.Error(), http.StatusBadRequest)
		return
	}
	// slo is optional, but a present-and-invalid value is a 400 like
	// every other parameter, not a silently missing knee section.
	slo := 0.0
	if sloStr := get("slo", ""); sloStr != "" {
		// The positive-form bound rejects NaN; +Inf satisfies v > 0
		// and needs its own check, or every point would "meet" the SLO.
		v, err := strconv.ParseFloat(sloStr, 64)
		if err != nil || !(v > 0) || math.IsInf(v, 0) {
			http.Error(w, "dashboard: slo must be a positive, finite number of seconds", http.StatusBadRequest)
			return
		}
		slo = v
	}
	policy, err := llmbench.ParseServePolicy(get("policy", "ll"))
	if err != nil {
		http.Error(w, "dashboard: "+err.Error(), http.StatusBadRequest)
		return
	}
	grid.Policies = []llmbench.ServePolicy{policy}
	grid.Parallelism = s.parallelism
	pts, err := llmbench.ServeSweep(llmbench.ServeSweepConfig{
		System: llmbench.System{
			Model:     get("model", "Mistral-7B"),
			Device:    get("device", "A100"),
			Framework: get("framework", "vLLM"),
		},
		MaxBatch: maxBatch,
		Seed:     42, Requests: requests, InputMean: inMean, OutputMean: outMean,
		StreamStats: stream,
	}, grid)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}

	// Shaped grids label every series and row with the trace shape so
	// one chart can contrast burst factors and length mixes; plain
	// grids keep the replica-count-only rendering.
	shaped := len(grid.BurstFactors) > 0 || len(grid.LengthMixes) > 0
	shapeOf := func(burst float64, mix llmbench.LengthMix) string {
		return fmt.Sprintf("burst ×%g, %d:%d", burst, mix.Input, mix.Output)
	}
	fig := &metrics.Figure{
		ID: "servesweep",
		Title: fmt.Sprintf("%s on %s via %s — %s, %d reqs/point",
			get("model", "Mistral-7B"), get("device", "A100"), get("framework", "vLLM"),
			policy, requests),
		XLabel: "Arrival rate (req/s)", YLabel: "P99 latency (s)",
	}
	var md strings.Builder
	prefixed := len(grid.PrefixShares) > 0
	if prefixed {
		fmt.Fprintf(&md, "### Serving capacity sweep (%s, shared prefix %g)\n\n", policy, grid.PrefixShares[0])
	} else {
		fmt.Fprintf(&md, "### Serving capacity sweep (%s)\n\n", policy)
	}
	shapeHdr := ""
	if shaped {
		shapeHdr = " Burst | In:Out |"
	}
	hitHdr := ""
	if prefixed {
		hitHdr = " Hit (%) |"
	}
	fmt.Fprintf(&md, "| Replicas |%s Rate (req/s) | Throughput (tok/s) | p50 (s) | p95 (s) | p99 (s) | Queue p99 (s) |%s Preempt |\n", shapeHdr, hitHdr)
	fmt.Fprintf(&md, "|---|%s---|---|---|---|---|---|%s---|\n",
		strings.Repeat("---|", strings.Count(shapeHdr, "|")),
		strings.Repeat("---|", strings.Count(hitHdr, "|")))
	for _, p := range pts {
		label := fmt.Sprintf("%d replica(s)", p.Replicas)
		shapeCols := ""
		if shaped {
			label = fmt.Sprintf("%s, %s", label, shapeOf(p.BurstFactor, p.Mix))
			shapeCols = fmt.Sprintf(" ×%g | %d:%d |", p.BurstFactor, p.Mix.Input, p.Mix.Output)
		}
		hitCol := ""
		if prefixed {
			hitCol = fmt.Sprintf(" %.1f |", p.Stats.CacheHitRate*100)
		}
		if p.Err != nil {
			fig.Note("%s @ %g req/s skipped: %v", label, p.Rate, p.Err)
			blank := ""
			if prefixed {
				blank = " |"
			}
			fmt.Fprintf(&md, "| %d |%s %g | — (%v) | | | | |%s |\n", p.Replicas, shapeCols, p.Rate, p.Err, blank)
			continue
		}
		fig.Add(label, p.Rate, p.Stats.P99Latency)
		fmt.Fprintf(&md, "| %d |%s %g | %.0f | %.2f | %.2f | %.2f | %.2f |%s %d |\n",
			p.Replicas, shapeCols, p.Rate, p.Stats.Throughput,
			p.Stats.P50Latency, p.Stats.P95Latency, p.Stats.P99Latency,
			p.Stats.P99QueueDelay, hitCol, p.Stats.Preemptions)
	}
	if slo > 0 {
		kneeUnit := "replica count"
		if shaped {
			kneeUnit = "replica count × trace shape"
		}
		knees, err := llmbench.Knees(pts, slo)
		if err != nil {
			http.Error(w, "dashboard: "+err.Error(), http.StatusBadRequest)
			return
		}
		fmt.Fprintf(&md, "\nKnee per %s (highest swept rate with p99 ≤ %gs):\n\n", kneeUnit, slo)
		for _, k := range knees {
			cfgName := fmt.Sprintf("%d replica(s)", k.Replicas)
			if shaped {
				cfgName = fmt.Sprintf("%s, %s", cfgName, shapeOf(k.BurstFactor, k.Mix))
			}
			if k.Met {
				fmt.Fprintf(&md, "- %s: %g req/s (p99 %.2fs)\n", cfgName, k.Rate, k.Stats.P99Latency)
			} else {
				fmt.Fprintf(&md, "- %s: no swept rate meets the SLO\n", cfgName)
			}
		}
	}
	writeJSON(w, runResponse{Figure: toJSON(fig), Markdown: md.String()})
}

// query wraps a request's parameters with defaulting and bounded
// integer parsing, recording the first violation — the shared input
// plumbing of the sweep, serve and serveSweep handlers.
type query struct {
	values map[string][]string
	err    error
}

// get returns the parameter or def when absent/empty.
func (q *query) get(key, def string) string {
	if vs := q.values[key]; len(vs) > 0 && vs[0] != "" {
		return vs[0]
	}
	return def
}

// atoiIn parses an integer parameter bounded to [lo, hi], recording
// the first out-of-range value in q.err.
func (q *query) atoiIn(key, def string, lo, hi int) int {
	v, err := strconv.Atoi(q.get(key, def))
	if err != nil || v < lo || v > hi {
		if q.err == nil {
			q.err = fmt.Errorf("dashboard: %s must be an integer in [%d, %d]", key, lo, hi)
		}
		return lo
	}
	return v
}

// errTraceNotFile rejects a trace path that names a directory, a
// device or a FIFO: the size cap cannot bound those, and a read from a
// device or a FIFO can block the handler forever.
var errTraceNotFile = errors.New("trace: not a regular file")

// readTraceFile loads a recorded llmbench-trace file from the
// server's filesystem — the upload-less replay path. The file is
// capped at 64 MiB, and traces beyond 100k requests must opt into
// streaming aggregation (stream=1): the exact path would ledger and
// sort every completion inside one HTTP request.
func readTraceFile(path string, stream bool) ([]llmbench.TraceRequest, error) {
	const maxTraceBytes = 64 << 20
	const maxExactRequests = 100_000
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("trace: %v", err)
	}
	defer f.Close()
	if st, err := f.Stat(); err != nil {
		return nil, fmt.Errorf("trace: %v", err)
	} else if !st.Mode().IsRegular() {
		return nil, errTraceNotFile
	} else if st.Size() > maxTraceBytes {
		return nil, fmt.Errorf("trace file is %d bytes (max %d)", st.Size(), int64(maxTraceBytes))
	}
	reqs, _, err := llmbench.ReadTrace(f)
	if err != nil {
		return nil, err
	}
	if len(reqs) > maxExactRequests && !stream {
		return nil, fmt.Errorf("trace has %d requests; pass stream=1 to replay more than %d",
			len(reqs), maxExactRequests)
	}
	return reqs, nil
}

// checkServeSweepBounds applies /api/servesweep's server-protection
// bounds to a parsed grid: every point is a full DES run on
// process-shared engines, so axis lengths and values are capped, and
// with four multiplying axes the whole grid stays at the pre-shape-axes
// worst case (maxAxis² points). Mix medians stay in [16, 8192]
// (ChatTrace's floor and the trace-length cap), and one request sweeps
// one shared-prefix share.
func checkServeSweepBounds(g llmbench.ServeGrid) error {
	const maxAxis = 8
	inMix := func(n int) bool { return n >= 16 && n <= 8192 }
	for _, ax := range []struct {
		param   string
		n, maxN int
		within  func(i int) bool
		bound   string
	}{
		{"rates", len(g.Rates), maxAxis, func(i int) bool { return g.Rates[i] <= 1000 }, "≤ 1000"},
		{"replicas", len(g.Replicas), maxAxis, func(i int) bool { return g.Replicas[i] <= 64 }, "≤ 64"},
		{"bursts", len(g.BurstFactors), maxAxis, func(i int) bool { return g.BurstFactors[i] <= 64 }, "≤ 64"},
		{"mixes", len(g.LengthMixes), maxAxis, func(i int) bool {
			return inMix(g.LengthMixes[i].Input) && inMix(g.LengthMixes[i].Output)
		}, "medians in [16, 8192]"},
		{"prefixshare", len(g.PrefixShares), 1, func(int) bool { return true }, ""},
	} {
		if ax.n > ax.maxN {
			return fmt.Errorf("dashboard: at most %d %s values", ax.maxN, ax.param)
		}
		for i := 0; i < ax.n; i++ {
			if !ax.within(i) {
				return fmt.Errorf("dashboard: %s values must be %s", ax.param, ax.bound)
			}
		}
	}
	if n := max(1, len(g.Rates)) * max(1, len(g.Replicas)) * max(1, len(g.BurstFactors)) * max(1, len(g.LengthMixes)); n > maxAxis*maxAxis {
		return fmt.Errorf("dashboard: grid too large (%d points, max %d)", n, maxAxis*maxAxis)
	}
	return nil
}

type serveParams struct {
	sys                llmbench.System
	replicas, requests int
	maxBatch           int
	inMean, outMean    int
	rate               float64
	autoscale          bool
}

func (s *server) serveSim(w http.ResponseWriter, p serveParams) {
	// One deployment is a one-point serving sweep.
	cfg := llmbench.ServeSweepConfig{
		System: p.sys, Replicas: p.replicas, MaxBatch: p.maxBatch,
		Seed: 42, Requests: p.requests, InputMean: p.inMean, OutputMean: p.outMean,
	}
	grid := llmbench.ServeGrid{
		Rates:    []float64{p.rate},
		Policies: []llmbench.ServePolicy{{LeastLoaded: true}},
	}
	if p.autoscale {
		grid.Policies = []llmbench.ServePolicy{{Autoscale: true}}
		grid.BurstFactors = []float64{4}
		cfg.BurstLenS = 4
	}
	pts, err := llmbench.ServeSweep(cfg, grid)
	if err == nil {
		err = pts[0].Err
	}
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	pt := pts[0]
	stats := pt.Stats
	var md strings.Builder
	if p.autoscale {
		fmt.Fprintf(&md, "### Autoscaled serving: %s on %s via %s (1..%d replicas, bursty %g req/s)\n\n",
			p.sys.Model, p.sys.Device, p.sys.Framework, p.replicas, p.rate)
		fmt.Fprintf(&md, "peak %d replicas\n\n", pt.PeakReplicas)
	} else {
		fmt.Fprintf(&md, "### Cluster serving: %s on %d× %s via %s (%g req/s, least-loaded)\n\n",
			p.sys.Model, p.replicas, p.sys.Device, p.sys.Framework, p.rate)
	}
	fmt.Fprintf(&md, "| metric | value |\n|---|---|\n")
	fmt.Fprintf(&md, "| completed | %d |\n", stats.Completed)
	fmt.Fprintf(&md, "| throughput | %.0f tok/s |\n", stats.Throughput)
	fmt.Fprintf(&md, "| latency p50 / p95 / p99 | %.2f / %.2f / %.2f s |\n",
		stats.P50Latency, stats.P95Latency, stats.P99Latency)
	fmt.Fprintf(&md, "| queue delay p50 / p95 / p99 | %.2f / %.2f / %.2f s |\n",
		stats.P50QueueDelay, stats.P95QueueDelay, stats.P99QueueDelay)
	fmt.Fprintf(&md, "| mean latency / TTFT | %.2f / %.2f s |\n", stats.MeanLatency, stats.MeanTTFT)
	fmt.Fprintf(&md, "| makespan | %.1f s |\n", stats.MakespanS)
	if len(pt.PerReplica) > 0 {
		fmt.Fprintf(&md, "\n| replica | completed | busy (s) | util |\n|---|---|---|---|\n")
		for i, rep := range pt.PerReplica {
			fmt.Fprintf(&md, "| %d | %d | %.1f | %.0f%% |\n", i, rep.Completed, rep.BusyS, rep.Util*100)
		}
	}
	writeJSON(w, runResponse{Markdown: md.String()})
}

func toJSON(f *metrics.Figure) *figureJSON {
	out := &figureJSON{ID: f.ID, Title: f.Title, XLabel: f.XLabel, YLabel: f.YLabel, Notes: f.Notes}
	for _, s := range f.Series {
		sj := seriesJSON{Label: s.Label}
		for _, p := range s.Points {
			sj.Points = append(sj.Points, [2]float64{p.X, p.Y})
		}
		out.Series = append(out.Series, sj)
	}
	return out
}

func writeJSON(w http.ResponseWriter, v interface{}) {
	w.Header().Set("Content-Type", "application/json")
	if err := json.NewEncoder(w).Encode(v); err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
	}
}

func (s *server) index(w http.ResponseWriter, r *http.Request) {
	if r.URL.Path != "/" {
		http.NotFound(w, r)
		return
	}
	w.Header().Set("Content-Type", "text/html; charset=utf-8")
	fmt.Fprint(w, indexHTML)
}

const indexHTML = `<!DOCTYPE html>
<html lang="en">
<head>
<meta charset="utf-8">
<title>LLM-Inference-Bench Dashboard</title>
<style>
 body { font-family: system-ui, sans-serif; margin: 0; display: flex; height: 100vh; }
 #side { width: 340px; overflow-y: auto; border-right: 1px solid #ccc; padding: 12px; }
 #main { flex: 1; overflow-y: auto; padding: 16px; }
 .exp { cursor: pointer; padding: 6px 8px; border-radius: 6px; margin-bottom: 2px; }
 .exp:hover { background: #eef; }
 .exp.active { background: #dde6ff; }
 .exp b { display: block; }
 .exp small { color: #555; }
 svg { background: #fafafa; border: 1px solid #ddd; border-radius: 8px; }
 table { border-collapse: collapse; font-size: 13px; margin-top: 12px; }
 td, th { border: 1px solid #ccc; padding: 3px 8px; text-align: right; }
 th { background: #f0f0f0; }
 .legend { display: flex; flex-wrap: wrap; gap: 10px; margin: 8px 0; font-size: 13px; }
 .legend span { display: inline-flex; align-items: center; gap: 4px; }
 .swatch { width: 14px; height: 3px; display: inline-block; }
 .note { color: #864; font-size: 13px; margin-top: 6px; }
 #logtoggle { margin-left: 16px; }
 pre { background: #f6f6f6; padding: 10px; overflow-x: auto; }
</style>
</head>
<body>
<div id="side"><h3>LLM-Inference-Bench</h3>
<div style="border:1px solid #ccc;border-radius:8px;padding:8px;margin-bottom:10px;font-size:13px">
 <b>Custom sweep</b><br>
 <input id="sw-model" value="LLaMA-3-8B" size="12" title="model">
 <input id="sw-device" value="A100" size="6" title="device">
 <input id="sw-fw" value="vLLM" size="8" title="framework"><br>
 tp <input id="sw-tp" value="1" size="2"> len <input id="sw-len" value="1024" size="5">
 <button onclick="sweep()">run</button>
</div>
<div style="border:1px solid #ccc;border-radius:8px;padding:8px;margin-bottom:10px;font-size:13px">
 <b>Serving simulator</b> (DES kernel)<br>
 <input id="sv-model" value="Mistral-7B" size="12" title="model">
 <input id="sv-device" value="A100" size="6" title="device">
 <input id="sv-fw" value="vLLM" size="8" title="framework"><br>
 replicas <input id="sv-replicas" value="4" size="2">
 rate <input id="sv-rate" value="20" size="4">
 reqs <input id="sv-reqs" value="200" size="4"><br>
 <label><input type="checkbox" id="sv-auto"> autoscale 1..N</label>
 <button onclick="serve()">simulate</button>
</div>
<div style="border:1px solid #ccc;border-radius:8px;padding:8px;margin-bottom:10px;font-size:13px">
 <b>Capacity sweep</b> (rate × replicas)<br>
 <input id="ss-model" value="Mistral-7B" size="12" title="model">
 <input id="ss-device" value="A100" size="6" title="device">
 <input id="ss-fw" value="vLLM" size="8" title="framework"><br>
 rates <input id="ss-rates" value="5,10,20,40" size="10">
 replicas <input id="ss-replicas" value="1,2,4" size="6"><br>
 bursts <input id="ss-bursts" value="" size="5" title="ChatTrace burst-factor axis, e.g. 1,4 (empty = Poisson)">
 mixes <input id="ss-mixes" value="" size="10" title="in:out length-median axis, e.g. 512:128,2048:256"><br>
 prefix share <input id="ss-share" value="" size="4" title="shared system-prompt share of the input median, in [0,1); empty = no shared prefix"><br>
 policy <select id="ss-policy">
  <option value="ll">continuous/least-loaded</option>
  <option value="rr">continuous/round-robin</option>
  <option value="prefix">continuous/prefix-affinity</option>
  <option value="autoscale">autoscale</option>
  <option value="static">static/round-robin</option>
  <option value="static/ll">static/least-loaded</option>
  <option value="static/auto">static autoscale</option>
  <option value="disagg/1:3">disagg 1:3 (prefill:decode)</option>
  <option value="ll/disagg/1:3">disagg 1:3/least-loaded</option>
  <option value="ll/disagg/2:2">disagg 2:2/least-loaded</option>
 </select>
 SLO p99 ≤ <input id="ss-slo" value="6" size="3">s
 <button onclick="serveSweep()">sweep</button>
</div>
<button onclick="runAll()" style="margin-bottom:8px">regenerate all (pooled)</button>
<div id="list">loading…</div></div>
<div id="main"><p>Select a figure or table on the left. Every entry regenerates the
corresponding table/figure of the SC'24 paper from the simulation engine.</p></div>
<script>
const colors = ["#e6194b","#3cb44b","#4363d8","#f58231","#911eb4","#46f0f0",
 "#f032e6","#bcf60c","#fabebe","#008080","#e6beff","#9a6324","#800000",
 "#aaffc3","#808000","#000075","#808080","#ffd8b1","#000000","#ffe119"];
let active = null;
async function load() {
  const res = await fetch("/api/experiments");
  const exps = await res.json();
  const list = document.getElementById("list");
  list.innerHTML = "";
  for (const e of exps) {
    const div = document.createElement("div");
    div.className = "exp"; div.id = "exp-" + e.id;
    div.innerHTML = "<b>" + e.id + "</b><small>" + e.title + "</small>";
    div.onclick = () => show(e);
    list.appendChild(div);
  }
}
async function show(e) {
  if (active) document.getElementById("exp-"+active).classList.remove("active");
  active = e.id;
  document.getElementById("exp-"+e.id).classList.add("active");
  const main = document.getElementById("main");
  main.innerHTML = "<p>running " + e.id + "…</p>";
  const res = await fetch("/api/run?id=" + e.id);
  if (!res.ok) { main.innerHTML = "<pre>" + await res.text() + "</pre>"; return; }
  const data = await res.json();
  main.innerHTML = "<h2>" + e.id + " — " + e.title + "</h2>" +
    "<p><i>" + e.workload + " · modules: " + e.modules.join(", ") + "</i></p>";
  if (data.figure) {
    const ctl = document.createElement("div");
    ctl.innerHTML = '<label><input type="checkbox" id="logtoggle" checked> log-scale Y</label>';
    main.appendChild(ctl);
    const holder = document.createElement("div");
    main.appendChild(holder);
    const render = () => { holder.innerHTML = svgChart(data.figure,
      document.getElementById("logtoggle").checked); };
    ctl.querySelector("input").onchange = render;
    render();
    for (const n of (data.figure.notes || [])) {
      const p = document.createElement("div"); p.className = "note"; p.textContent = "⚠ " + n;
      main.appendChild(p);
    }
  }
  const pre = document.createElement("pre");
  pre.textContent = data.markdown;
  main.appendChild(pre);
}
function svgChart(fig, logY) {
  const W = 860, H = 440, L = 70, R = 20, T = 20, B = 50;
  let xs = [], ys = [];
  for (const s of fig.series) for (const p of s.points) { xs.push(p[0]); ys.push(p[1]); }
  ys = ys.filter(v => !logY || v > 0);
  if (!xs.length || !ys.length) return "<p>no data</p>";
  const xmin = Math.min(...xs), xmax = Math.max(...xs);
  let ymin = Math.min(...ys), ymax = Math.max(...ys);
  if (logY) { ymin = Math.log10(ymin); ymax = Math.log10(ymax); }
  if (ymax === ymin) ymax = ymin + 1;
  const X = x => L + (x - xmin) / (xmax - xmin || 1) * (W - L - R);
  const Y = y => { const v = logY ? Math.log10(y) : y;
    return H - B - (v - ymin) / (ymax - ymin) * (H - T - B); };
  let out = '<svg width="' + W + '" height="' + H + '">';
  for (let i = 0; i <= 5; i++) {
    const fy = ymin + (ymax - ymin) * i / 5;
    const yy = H - B - (H - T - B) * i / 5;
    const label = logY ? (Math.pow(10, fy)).toPrecision(3) : fy.toPrecision(3);
    out += '<line x1="' + L + '" y1="' + yy + '" x2="' + (W-R) + '" y2="' + yy +
      '" stroke="#eee"/><text x="4" y="' + (yy+4) + '" font-size="11">' + label + '</text>';
  }
  const uniq = [...new Set(xs)].sort((a,b)=>a-b);
  for (const x of uniq) {
    out += '<text x="' + X(x) + '" y="' + (H-B+16) + '" font-size="11" text-anchor="middle">' +
      x + '</text>';
  }
  out += '<text x="' + (W/2) + '" y="' + (H-8) + '" font-size="12" text-anchor="middle">' +
    fig.xlabel + '</text>';
  fig.series.forEach((s, i) => {
    const c = colors[i % colors.length];
    const pts = s.points.filter(p => !logY || p[1] > 0)
      .map(p => X(p[0]) + "," + Y(p[1])).join(" ");
    if (s.points.length > 1) out += '<polyline points="' + pts +
      '" fill="none" stroke="' + c + '" stroke-width="2"/>';
    for (const p of s.points) {
      if (logY && p[1] <= 0) continue;
      out += '<circle cx="' + X(p[0]) + '" cy="' + Y(p[1]) + '" r="3.5" fill="' + c +
        '"><title>' + s.label + ': (' + p[0] + ', ' + p[1].toPrecision(4) + ')</title></circle>';
    }
  });
  out += '</svg><div class="legend">';
  fig.series.forEach((s, i) => {
    out += '<span><span class="swatch" style="background:' + colors[i % colors.length] +
      '"></span>' + s.label + '</span>';
  });
  out += '</div>';
  return out;
}
async function sweep() {
  const main = document.getElementById("main");
  const q = new URLSearchParams({
    model: document.getElementById("sw-model").value,
    device: document.getElementById("sw-device").value,
    framework: document.getElementById("sw-fw").value,
    tp: document.getElementById("sw-tp").value,
    len: document.getElementById("sw-len").value,
  });
  main.innerHTML = "<p>sweeping…</p>";
  const res = await fetch("/api/sweep?" + q);
  if (!res.ok) { main.innerHTML = "<pre>" + await res.text() + "</pre>"; return; }
  const data = await res.json();
  main.innerHTML = "<h2>Custom sweep</h2>";
  const holder = document.createElement("div");
  main.appendChild(holder);
  holder.innerHTML = svgChart(data.figure, false);
  const pre = document.createElement("pre");
  pre.textContent = data.markdown;
  main.appendChild(pre);
}
async function serve() {
  const main = document.getElementById("main");
  const q = new URLSearchParams({
    model: document.getElementById("sv-model").value,
    device: document.getElementById("sv-device").value,
    framework: document.getElementById("sv-fw").value,
    replicas: document.getElementById("sv-replicas").value,
    rate: document.getElementById("sv-rate").value,
    requests: document.getElementById("sv-reqs").value,
  });
  if (document.getElementById("sv-auto").checked) q.set("autoscale", "1");
  main.innerHTML = "<p>simulating serving…</p>";
  const res = await fetch("/api/serve?" + q);
  if (!res.ok) { main.innerHTML = "<pre>" + await res.text() + "</pre>"; return; }
  const data = await res.json();
  main.innerHTML = "<h2>Serving simulation</h2>";
  const pre = document.createElement("pre");
  pre.textContent = data.markdown;
  main.appendChild(pre);
}
async function serveSweep() {
  const main = document.getElementById("main");
  const q = new URLSearchParams({
    model: document.getElementById("ss-model").value,
    device: document.getElementById("ss-device").value,
    framework: document.getElementById("ss-fw").value,
    rates: document.getElementById("ss-rates").value,
    replicas: document.getElementById("ss-replicas").value,
    policy: document.getElementById("ss-policy").value,
    slo: document.getElementById("ss-slo").value,
  });
  const bursts = document.getElementById("ss-bursts").value.trim();
  if (bursts) q.set("bursts", bursts);
  const mixes = document.getElementById("ss-mixes").value.trim();
  if (mixes) q.set("mixes", mixes);
  const share = document.getElementById("ss-share").value.trim();
  if (share) q.set("prefixshare", share);
  main.innerHTML = "<p>sweeping serving capacity…</p>";
  const res = await fetch("/api/servesweep?" + q);
  if (!res.ok) { main.innerHTML = "<pre>" + await res.text() + "</pre>"; return; }
  const data = await res.json();
  main.innerHTML = "<h2>Serving capacity sweep</h2>";
  const holder = document.createElement("div");
  main.appendChild(holder);
  holder.innerHTML = svgChart(data.figure, false);
  for (const n of (data.figure.notes || [])) {
    const p = document.createElement("div"); p.className = "note"; p.textContent = "⚠ " + n;
    main.appendChild(p);
  }
  const pre = document.createElement("pre");
  pre.textContent = data.markdown;
  main.appendChild(pre);
}
async function runAll() {
  const main = document.getElementById("main");
  main.innerHTML = "<p>regenerating every experiment on the worker pool…</p>";
  const res = await fetch("/api/run?id=all");
  if (!res.ok) { main.innerHTML = "<pre>" + await res.text() + "</pre>"; return; }
  const data = await res.json();
  main.innerHTML = "<p>" + data.markdown + " — cached; entries now render instantly.</p>";
}
load();
</script>
</body>
</html>
`
