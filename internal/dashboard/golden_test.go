package dashboard

import (
	"flag"
	"io"
	"net/http"
	"net/http/httptest"
	"net/url"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"

	"llmbench"
)

var update = flag.Bool("update", false, "rewrite the testdata goldens from the current responses")

// TestGoldenResponses pins the JSON bodies of the sweep and serving
// endpoints, byte for byte: /api/sweep, /api/servesweep across plain,
// shaped, shared-prefix, disaggregated and trace-replay grids and every
// policy the index page's <select> offers, and /api/serve fixed and
// autoscaled.
func TestGoldenResponses(t *testing.T) {
	srv := httptest.NewServer(Handler(2))
	defer srv.Close()

	reqs, err := llmbench.ServePointTrace(llmbench.ServeSweepConfig{
		System:   llmbench.System{Model: "Mistral-7B", Device: "A100", Framework: "vLLM"},
		MaxBatch: 8, Seed: 11, Requests: 40, InputMean: 256, OutputMean: 64,
	}, llmbench.ServeGrid{Rates: []float64{8}})
	if err != nil {
		t.Fatal(err)
	}
	trace := filepath.Join(t.TempDir(), "day.trace")
	f, err := os.Create(trace)
	if err != nil {
		t.Fatal(err)
	}
	if err := llmbench.WriteTrace(f, reqs, llmbench.TraceMeta{Source: "dashboard golden"}); err != nil {
		t.Fatal(err)
	}
	f.Close()

	const sys = "model=Mistral-7B&device=A100&framework=vLLM"
	cases := []struct{ name, url string }{
		{"sweep", "/api/sweep?model=Mistral-7B&device=H100&framework=TRT-LLM&tp=2&len=512"},
		{"servesweep-plain", "/api/servesweep?" + sys + "&rates=5,15&replicas=1,2&requests=40&slo=6"},
		{"servesweep-shaped", "/api/servesweep?" + sys + "&rates=5,15&replicas=2&bursts=1,4&mixes=256:64&policy=static&requests=30&slo=6"},
		{"servesweep-prefixshare", "/api/servesweep?" + sys + "&rates=10&replicas=2&policy=prefix&prefixshare=0.5&mixes=512:128&requests=30&slo=6"},
		{"servesweep-disagg", "/api/servesweep?" + sys + "&rates=5,15&replicas=4&policy=ll/disagg/1:3&requests=30&slo=60"},
		{"servesweep-trace", "/api/servesweep?" + sys + "&rates=5,15&replicas=1,2&slo=6&trace=" + url.QueryEscape(trace)},
		{"serve-fixed", "/api/serve?" + sys + "&replicas=3&rate=15&requests=60"},
		{"serve-autoscale", "/api/serve?" + sys + "&replicas=4&rate=20&requests=60&autoscale=1"},
	}
	policies := regexp.MustCompile(`<option value="([^"]+)">`).FindAllStringSubmatch(indexHTML, -1)
	if len(policies) == 0 {
		t.Fatal("index page has no policy options")
	}
	for _, m := range policies {
		pol := m[1]
		cases = append(cases, struct{ name, url string }{
			"servesweep-policy-" + strings.NewReplacer("/", "_", ":", "-").Replace(pol),
			"/api/servesweep?" + sys + "&rates=5,15&replicas=4&requests=30&slo=6&policy=" + url.QueryEscape(pol),
		})
	}
	for _, tc := range cases {
		res, err := http.Get(srv.URL + tc.url)
		if err != nil {
			t.Fatal(err)
		}
		body, err := io.ReadAll(res.Body)
		res.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		if res.StatusCode != http.StatusOK {
			t.Fatalf("%s: status %d: %s", tc.url, res.StatusCode, body)
		}
		path := filepath.Join("testdata", tc.name+".golden")
		if *update {
			if err := os.WriteFile(path, body, 0o644); err != nil {
				t.Fatal(err)
			}
			continue
		}
		want, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if string(body) != string(want) {
			t.Errorf("%s: response drifted from %s:\ngot\n%s\nwant\n%s", tc.url, path, body, want)
		}
	}
}
