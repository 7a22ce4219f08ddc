package dashboard

import (
	"net/http"
	"net/http/httptest"
	"net/url"
	"testing"
)

// fuzzQuery serves one GET of path with the raw query string and
// requires a 200 or a 400: a malformed query is the client's error, and
// nothing a client sends may surface as a 500 or a panic. The request
// is built by hand so that every raw string reaches the handler, the
// way a lenient client library would send it.
func fuzzQuery(t *testing.T, h http.Handler, path, raw string) {
	req := &http.Request{Method: http.MethodGet, URL: &url.URL{Path: path, RawQuery: raw}, Header: http.Header{}}
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	if rec.Code != http.StatusOK && rec.Code != http.StatusBadRequest {
		t.Fatalf("%s?%s: status %d: %s", path, raw, rec.Code, rec.Body.String())
	}
}

// The fuzz seeds are small, fast points of each parameter, plus
// malformed and out-of-range values at the bounds.
const fuzzSys = "model=Mistral-7B&device=A100&framework=vLLM"

func FuzzServeQuery(f *testing.F) {
	for _, q := range []string{
		fuzzSys + "&replicas=2&rate=15&requests=20",
		fuzzSys + "&replicas=2&rate=20&requests=20&autoscale=1",
		"replicas=1&rate=1e3&requests=1&maxbatch=1&inmean=1&outmean=1",
		"replicas=65&rate=10",
		"replicas=&rate=NaN",
		"rate=Inf&requests=0",
		"rate=-1&maxbatch=257",
		"model=nope&requests=5",
		"replicas=1,2&rate=5,10",
		"%zz&rate=%",
	} {
		f.Add(q)
	}
	h := Handler(1)
	f.Fuzz(func(t *testing.T, raw string) { fuzzQuery(t, h, "/api/serve", raw) })
}

func FuzzServeSweepQuery(f *testing.F) {
	for _, q := range []string{
		fuzzSys + "&rates=5,15&replicas=1,2&requests=20&slo=6",
		fuzzSys + "&rates=5&replicas=2&bursts=1,4&mixes=256:64&policy=static&requests=10",
		fuzzSys + "&rates=10&replicas=2&policy=prefix&prefixshare=0.5&mixes=512:128&requests=10",
		fuzzSys + "&rates=5&replicas=4&policy=ll/disagg/1:3&requests=10&slo=60",
		fuzzSys + "&rates=5&replicas=2&policy=auto&requests=10&stream=1",
		"rates=5&replicas=1&requests=5&slo=NaN",
		"rates=5&replicas=1&requests=5&slo=Inf",
		"rates=1,2,3,4,5,6,7,8,9&replicas=1",
		"rates=5&replicas=1&mixes=8:8",
		"rates=5&replicas=1&prefixshare=1",
		"rates=5&replicas=1&policy=disagg/0:1",
		"rates=5&replicas=1&trace=testdata",
		"rates=5&replicas=1&trace=/dev/null",
		"rates=,&replicas=1&bursts=0.5",
	} {
		f.Add(q)
	}
	h := Handler(1)
	f.Fuzz(func(t *testing.T, raw string) { fuzzQuery(t, h, "/api/servesweep", raw) })
}
