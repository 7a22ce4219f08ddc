package dashboard

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"net/url"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"llmbench"
	"llmbench/internal/cluster"
	"llmbench/internal/dtype"
	"llmbench/internal/hw"
	"llmbench/internal/kvcache"
	"llmbench/internal/model"
	"llmbench/internal/workload"
)

func TestIndex(t *testing.T) {
	srv := httptest.NewServer(Handler(2))
	defer srv.Close()
	res, err := http.Get(srv.URL + "/")
	if err != nil {
		t.Fatal(err)
	}
	defer res.Body.Close()
	if res.StatusCode != http.StatusOK {
		t.Fatalf("status %d", res.StatusCode)
	}
	buf := make([]byte, 1<<16)
	n, _ := res.Body.Read(buf)
	body := string(buf[:n])
	if !strings.Contains(body, "LLM-Inference-Bench") {
		t.Error("index page missing title")
	}
	if res404, _ := http.Get(srv.URL + "/nope"); res404.StatusCode != http.StatusNotFound {
		t.Error("unknown path must 404")
	}
}

func TestListEndpoint(t *testing.T) {
	srv := httptest.NewServer(Handler(2))
	defer srv.Close()
	res, err := http.Get(srv.URL + "/api/experiments")
	if err != nil {
		t.Fatal(err)
	}
	defer res.Body.Close()
	var exps []expInfo
	if err := json.NewDecoder(res.Body).Decode(&exps); err != nil {
		t.Fatal(err)
	}
	if len(exps) != 51 {
		t.Errorf("dashboard lists %d experiments, want 51", len(exps))
	}
}

func TestRunEndpointFigure(t *testing.T) {
	srv := httptest.NewServer(Handler(2))
	defer srv.Close()
	res, err := http.Get(srv.URL + "/api/run?id=fig2b")
	if err != nil {
		t.Fatal(err)
	}
	defer res.Body.Close()
	var out runResponse
	if err := json.NewDecoder(res.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	if out.Figure == nil || len(out.Figure.Series) == 0 {
		t.Fatal("figure missing")
	}
	if out.Figure.XLabel == "" || out.Markdown == "" {
		t.Error("figure metadata incomplete")
	}
	// Cached second call must match.
	res2, err := http.Get(srv.URL + "/api/run?id=fig2b")
	if err != nil {
		t.Fatal(err)
	}
	defer res2.Body.Close()
	var out2 runResponse
	if err := json.NewDecoder(res2.Body).Decode(&out2); err != nil {
		t.Fatal(err)
	}
	if out2.Markdown != out.Markdown {
		t.Error("cache must return identical result")
	}
}

func TestSweepEndpoint(t *testing.T) {
	srv := httptest.NewServer(Handler(2))
	defer srv.Close()
	res, err := http.Get(srv.URL + "/api/sweep?model=Mistral-7B&device=H100&framework=TRT-LLM&len=512")
	if err != nil {
		t.Fatal(err)
	}
	defer res.Body.Close()
	if res.StatusCode != http.StatusOK {
		t.Fatalf("status %d", res.StatusCode)
	}
	var out runResponse
	if err := json.NewDecoder(res.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	if out.Figure == nil || len(out.Figure.Series) != 3 {
		t.Fatalf("sweep figure incomplete: %+v", out.Figure)
	}
	// Errors: unknown model, bad tp, TRT-LLM on AMD, bad length.
	for _, q := range []string{
		"?model=GPT-5", "?tp=zero", "?device=MI250&framework=TRT-LLM", "?len=-3",
	} {
		r2, err := http.Get(srv.URL + "/api/sweep" + q)
		if err != nil {
			t.Fatal(err)
		}
		r2.Body.Close()
		if r2.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400", q, r2.StatusCode)
		}
	}
}

func TestServeEndpoint(t *testing.T) {
	srv := httptest.NewServer(Handler(2))
	defer srv.Close()
	res, err := http.Get(srv.URL + "/api/serve?model=Mistral-7B&device=A100&framework=vLLM&replicas=3&rate=15&requests=60")
	if err != nil {
		t.Fatal(err)
	}
	defer res.Body.Close()
	if res.StatusCode != http.StatusOK {
		t.Fatalf("status %d", res.StatusCode)
	}
	var out runResponse
	if err := json.NewDecoder(res.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"latency p50 / p95 / p99", "queue delay p50 / p95 / p99", "| replica |"} {
		if !strings.Contains(out.Markdown, want) {
			t.Errorf("serving table missing %q:\n%s", want, out.Markdown)
		}
	}
	// The fixed-fleet table reports exactly the hand-built cluster.Serve
	// run of the same deployment: 3 least-loaded Mistral-7B replicas on
	// A100s, the seed-42 Poisson trace, device-sized KV pools.
	direct := directServe(t, 3, 60, 15)
	want := []string{
		fmt.Sprintf("| completed | %d |", direct.Completed),
		fmt.Sprintf("| throughput | %.0f tok/s |", direct.Throughput),
		fmt.Sprintf("| latency p50 / p95 / p99 | %.2f / %.2f / %.2f s |", direct.P50Latency, direct.P95Latency, direct.P99Latency),
		fmt.Sprintf("| queue delay p50 / p95 / p99 | %.2f / %.2f / %.2f s |", direct.P50QueueDelay, direct.P95QueueDelay, direct.P99QueueDelay),
		fmt.Sprintf("| mean latency / TTFT | %.2f / %.2f s |", direct.MeanLatency, direct.MeanTTFT),
		fmt.Sprintf("| makespan | %.1f s |", direct.MakespanS),
	}
	for i, rep := range direct.PerReplica {
		want = append(want, fmt.Sprintf("| %d | %d | %.1f | %.0f%% |", i, rep.Completed, rep.BusyS, rep.Util*100))
	}
	for _, line := range want {
		if !strings.Contains(out.Markdown, line+"\n") {
			t.Errorf("serving table missing the direct run's %q:\n%s", line, out.Markdown)
		}
	}

	// Autoscaled variant reports the scaling trajectory.
	res2, err := http.Get(srv.URL + "/api/serve?model=Mistral-7B&device=A100&framework=vLLM&replicas=4&rate=15&requests=60&autoscale=1")
	if err != nil {
		t.Fatal(err)
	}
	defer res2.Body.Close()
	if res2.StatusCode != http.StatusOK {
		t.Fatalf("autoscale status %d", res2.StatusCode)
	}
	var out2 runResponse
	if err := json.NewDecoder(res2.Body).Decode(&out2); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out2.Markdown, "peak") {
		t.Errorf("autoscale output missing trajectory:\n%s", out2.Markdown)
	}

	// Errors: unknown model, replica/rate bounds.
	for _, q := range []string{
		"?model=GPT-5", "?replicas=100000", "?rate=-2", "?requests=zero",
		"?rate=NaN", "?rate=nan", "?rate=Inf", "?rate=0", "?rate=1000.5", "?rate=ten", "?rate=5,10",
		"?replicas=0", "?replicas=65", "?replicas=2,4", "?replicas=x", "?replicas=",
	} {
		r2, err := http.Get(srv.URL + "/api/serve" + q)
		if err != nil {
			t.Fatal(err)
		}
		r2.Body.Close()
		if r2.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400", q, r2.StatusCode)
		}
	}
	// The rate and replica bounds are inclusive.
	for _, q := range []string{"rate=1000&replicas=1", "rate=10&replicas=64"} {
		r3, err := http.Get(srv.URL + "/api/serve?requests=5&" + q)
		if err != nil {
			t.Fatal(err)
		}
		r3.Body.Close()
		if r3.StatusCode != http.StatusOK {
			t.Errorf("%s: status %d, want 200", q, r3.StatusCode)
		}
	}
}

// directServe runs the /api/serve fixed-fleet deployment by hand on
// cluster.Serve: Mistral-7B on A100s via vLLM, least-loaded routing,
// MaxBatch 32, the seed-42 Poisson trace with 512/128-token means, and
// each replica's KV pool sized to the device memory left after fp16
// weights.
func directServe(t *testing.T, replicas, requests int, rate float64) cluster.Stats {
	t.Helper()
	sys := llmbench.System{Model: "Mistral-7B", Device: "A100", Framework: "vLLM"}
	eng, err := llmbench.CachedEngine(sys)
	if err != nil {
		t.Fatal(err)
	}
	m, d := model.MustGet(sys.Model), hw.MustGet(sys.Device)
	cfg := cluster.Config{Policy: cluster.LeastLoaded, MaxBatch: 32}
	for i := 0; i < replicas; i++ {
		alloc, err := kvcache.NewPaged(16, m.KVBytesPerToken(dtype.FP16), d.MemBytes()*0.88-m.WeightBytes(dtype.FP16))
		if err != nil {
			t.Fatal(err)
		}
		cfg.Replicas = append(cfg.Replicas, cluster.Replica{Engine: eng, Alloc: alloc})
	}
	reqs, err := workload.PoissonTrace(workload.TraceConfig{
		Seed: 42, Requests: requests, RatePerSec: rate,
		InputMean: 512, OutputMean: 128, LengthJitter: 0.3,
	})
	if err != nil {
		t.Fatal(err)
	}
	st, err := cluster.Serve(cfg, reqs)
	if err != nil {
		t.Fatal(err)
	}
	return st
}

func TestServeSweepEndpoint(t *testing.T) {
	srv := httptest.NewServer(Handler(2))
	defer srv.Close()
	res, err := http.Get(srv.URL + "/api/servesweep?model=Mistral-7B&device=A100&framework=vLLM&rates=5,15&replicas=1,2&requests=60&slo=6")
	if err != nil {
		t.Fatal(err)
	}
	defer res.Body.Close()
	if res.StatusCode != http.StatusOK {
		t.Fatalf("status %d", res.StatusCode)
	}
	var out runResponse
	if err := json.NewDecoder(res.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	// One P99 series per replica count, two rate points each.
	if out.Figure == nil || len(out.Figure.Series) != 2 {
		t.Fatalf("capacity figure incomplete: %+v", out.Figure)
	}
	for _, s := range out.Figure.Series {
		if len(s.Points) != 2 {
			t.Errorf("series %q has %d points, want 2", s.Label, len(s.Points))
		}
	}
	for _, want := range []string{"| Replicas |", "Knee per replica count"} {
		if !strings.Contains(out.Markdown, want) {
			t.Errorf("capacity table missing %q:\n%s", want, out.Markdown)
		}
	}

	// Errors: unknown model, empty/oversized/out-of-range axes, bad
	// policy, bad trace-shape axes.
	for _, q := range []string{
		"?model=GPT-5", "?rates=0", "?rates=1,2,3,4,5,6,7,8,9",
		"?replicas=0", "?replicas=100000", "?policy=bogus", "?requests=999999",
		"?bursts=0.5", "?bursts=x", "?mixes=512", "?mixes=8:128", "?mixes=512:128:1",
		"?rates=1,2,3,4,5,6,7,8&replicas=1,2,3,4,5,6,7,8&bursts=1,4", // 128 points > 64 cap
		"?slo=6s", "?slo=-1",
	} {
		r2, err := http.Get(srv.URL + "/api/servesweep" + q)
		if err != nil {
			t.Fatal(err)
		}
		r2.Body.Close()
		if r2.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400", q, r2.StatusCode)
		}
	}
}

// TestServeSweepEndpointDisagg: topology policy forms reach the
// endpoint through the full policy grammar — a disagg pool split runs
// the sweep; malformed splits and illegal compositions are 400s.
func TestServeSweepEndpointDisagg(t *testing.T) {
	srv := httptest.NewServer(Handler(2))
	defer srv.Close()
	res, err := http.Get(srv.URL + "/api/servesweep?model=Mistral-7B&device=A100&framework=vLLM" +
		"&rates=5,15&replicas=4&policy=ll/disagg/1:3&requests=40&slo=60")
	if err != nil {
		t.Fatal(err)
	}
	defer res.Body.Close()
	if res.StatusCode != http.StatusOK {
		t.Fatalf("status %d", res.StatusCode)
	}
	var out runResponse
	if err := json.NewDecoder(res.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.Markdown, "disagg/1:3") {
		t.Errorf("disagg sweep table does not name the topology:\n%s", out.Markdown)
	}
	for _, q := range []string{
		"?rates=5&replicas=4&policy=disagg/0:3",
		"?rates=5&replicas=4&policy=disagg/1",
		"?rates=5&replicas=4&policy=static/disagg/1:3",
		"?rates=5&replicas=4&policy=disagg/2:6:autoscale",
	} {
		r2, err := http.Get(srv.URL + "/api/servesweep" + q)
		if err != nil {
			t.Fatal(err)
		}
		r2.Body.Close()
		if r2.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400", q, r2.StatusCode)
		}
	}
}

// TestServeSweepEndpointTraceReplay: the upload-less replay path — a
// recorded trace file on the server's filesystem drives the sweep,
// with and without streaming aggregation; conflicting or unreadable
// trace parameters are 400s, as is a non-finite SLO.
func TestServeSweepEndpointTraceReplay(t *testing.T) {
	srv := httptest.NewServer(Handler(2))
	defer srv.Close()

	reqs, err := llmbench.ServePointTrace(llmbench.ServeSweepConfig{
		System:   llmbench.System{Model: "Mistral-7B", Device: "A100", Framework: "vLLM"},
		MaxBatch: 8, Seed: 11, Requests: 40, InputMean: 256, OutputMean: 64,
	}, llmbench.ServeGrid{Rates: []float64{8}})
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "day.trace")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := llmbench.WriteTrace(f, reqs, llmbench.TraceMeta{Source: "dashboard test"}); err != nil {
		t.Fatal(err)
	}
	f.Close()

	for _, extra := range []string{"", "&stream=1", "&rates=5,15"} {
		res, err := http.Get(srv.URL + "/api/servesweep?model=Mistral-7B&device=A100&framework=vLLM" +
			"&replicas=1,2&slo=6&trace=" + url.QueryEscape(path) + extra)
		if err != nil {
			t.Fatal(err)
		}
		body, _ := io.ReadAll(res.Body)
		res.Body.Close()
		if res.StatusCode != http.StatusOK {
			t.Fatalf("%q: status %d: %s", extra, res.StatusCode, body)
		}
		var out runResponse
		if err := json.Unmarshal(body, &out); err != nil {
			t.Fatal(err)
		}
		if out.Figure == nil || len(out.Figure.Series) != 2 {
			t.Fatalf("%q: want one series per replica count, got %+v", extra, out.Figure)
		}
		if !strings.Contains(out.Markdown, "Knee") {
			t.Errorf("%q: replay output missing knee table:\n%s", extra, out.Markdown)
		}
	}

	for _, q := range []string{
		"&trace=" + url.QueryEscape(path) + "&bursts=1,4",
		"&trace=" + url.QueryEscape(path) + "&mixes=256:64",
		"&trace=" + url.QueryEscape(filepath.Join(t.TempDir(), "missing.trace")),
		"&slo=%2BInf", "&slo=NaN",
	} {
		r2, err := http.Get(srv.URL + "/api/servesweep?model=Mistral-7B&device=A100&framework=vLLM&rates=5" + q)
		if err != nil {
			t.Fatal(err)
		}
		r2.Body.Close()
		if r2.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400", q, r2.StatusCode)
		}
	}
}

// TestServeSweepEndpointTraceDoesNotLeak: trace is a path on the
// server's filesystem, so a file that is not a trace must fail without
// echoing its contents to the client.
func TestServeSweepEndpointTraceDoesNotLeak(t *testing.T) {
	srv := httptest.NewServer(Handler(2))
	defer srv.Close()
	const secret = "root:x:0:0:secret-first-line"
	path := filepath.Join(t.TempDir(), "passwd")
	if err := os.WriteFile(path, []byte(secret+"\nmore\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	res, err := http.Get(srv.URL + "/api/servesweep?trace=" + url.QueryEscape(path))
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(res.Body)
	res.Body.Close()
	if res.StatusCode != http.StatusBadRequest {
		t.Errorf("status %d, want 400", res.StatusCode)
	}
	if strings.Contains(string(body), "secret") {
		t.Errorf("response leaks the file's first line: %s", body)
	}
}

// TestServeSweepEndpointTraceNotFile: a trace path naming a directory
// fails at the boundary with errTraceNotFile instead of being read.
func TestServeSweepEndpointTraceNotFile(t *testing.T) {
	rec := httptest.NewRecorder()
	Handler(1).ServeHTTP(rec, httptest.NewRequest(http.MethodGet,
		"/api/servesweep?trace="+url.QueryEscape(t.TempDir()), nil))
	if rec.Code != http.StatusBadRequest || !strings.Contains(rec.Body.String(), errTraceNotFile.Error()) {
		t.Errorf("directory as trace: status %d, body %q; want 400 with %q", rec.Code, rec.Body.String(), errTraceNotFile)
	}
}

// TestServeSweepEndpointShaped: the trace-shape axes (bursts, mixes)
// and the cluster-capable static policy reach the endpoint — one
// series per replica count × trace shape, shape columns in the table,
// and zero skipped points even at multi-replica static.
func TestServeSweepEndpointShaped(t *testing.T) {
	srv := httptest.NewServer(Handler(2))
	defer srv.Close()
	res, err := http.Get(srv.URL + "/api/servesweep?model=Mistral-7B&device=A100&framework=vLLM" +
		"&rates=5,15&replicas=2&bursts=1,4&mixes=256:64&policy=static&requests=40&slo=6")
	if err != nil {
		t.Fatal(err)
	}
	defer res.Body.Close()
	if res.StatusCode != http.StatusOK {
		t.Fatalf("status %d", res.StatusCode)
	}
	var out runResponse
	if err := json.NewDecoder(res.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	if out.Figure == nil || len(out.Figure.Series) != 2 {
		t.Fatalf("want one series per burst factor, got %+v", out.Figure)
	}
	if len(out.Figure.Notes) != 0 {
		t.Errorf("static @ 2 replicas must not skip points: %v", out.Figure.Notes)
	}
	for _, want := range []string{"| Burst |", "×4", "256:64", "static/rr", "Knee"} {
		if !strings.Contains(out.Markdown, want) {
			t.Errorf("shaped capacity table missing %q:\n%s", want, out.Markdown)
		}
	}
}

func TestRunEndpointTableAndErrors(t *testing.T) {
	srv := httptest.NewServer(Handler(2))
	defer srv.Close()
	res, err := http.Get(srv.URL + "/api/run?id=tab1")
	if err != nil {
		t.Fatal(err)
	}
	defer res.Body.Close()
	var out runResponse
	if err := json.NewDecoder(res.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	if out.Figure != nil || out.Text == "" {
		t.Error("tables must return text, not a figure")
	}
	if res2, _ := http.Get(srv.URL + "/api/run?id=fig99"); res2.StatusCode != http.StatusNotFound {
		t.Error("unknown experiment must 404")
	}
}
