package main

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite the testdata goldens from the current output")

// TestGoldenOutput pins llmbench-sweep's stdout, byte for byte, for one
// command line per front-end feature: offline grids with and without
// configuration axes, serving grids across routing, shape, prefix and
// topology axes (a disagg split that does not divide its fleet prints
// an error row), and a -record run replayed through -trace. The temp
// directory in the replay header is normalised to $TMP.
func TestGoldenOutput(t *testing.T) {
	dir := t.TempDir()
	trace := filepath.Join(dir, "day.trace")
	serve := []string{"-serve", "-model", "Mistral-7B", "-device", "A100", "-framework", "vLLM", "-j", "2"}
	cases := []struct {
		name string
		args []string
	}{
		{"offline-plain", []string{"-model", "LLaMA-3-8B", "-device", "A100", "-framework", "vLLM",
			"-batches", "1, 16,64", "-lengths", "128,1024", "-j", "2"}},
		{"offline-axes", []string{"-model", "LLaMA-3-8B", "-devices", "A100,H100", "-frameworks", "vLLM,TRT-LLM",
			"-schemes", "fp16:fp16, fp8", "-batches", "16", "-lengths", "512", "-j", "2"}},
		{"serve-policies", append(serve, "-rates", "5,20", "-replicas", "1,2",
			"-policies", "rr,ll,static:autoscale", "-requests", "40", "-slo", "6")},
		{"serve-shaped", append(serve, "-rates", "10", "-replicas", "2", "-policies", "static,continuous",
			"-bursts", "1,4", "-mixes", "512:128, 2048:256", "-requests", "40", "-slo", "6")},
		{"serve-prefix", append(serve, "-rates", "10", "-replicas", "2", "-policies", "rr,prefix",
			"-prefix-shares", "0,0.5", "-chunked", "-requests", "40", "-slo", "6")},
		{"serve-disagg", append(serve, "-rates", "10,20", "-replicas", "3,4", "-policies", "ll,ll:disagg/1:3",
			"-requests", "40", "-slo", "6")},
		{"serve-record", append(serve, "-rates", "8", "-requests", "40", "-record", trace)},
		{"serve-replay", append(serve, "-trace", trace, "-replicas", "1,2", "-policies", "ll,static", "-slo", "6")},
	}
	for _, tc := range cases {
		var out bytes.Buffer
		if err := run(tc.args, &out); err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		got := strings.ReplaceAll(out.String(), dir, "$TMP")
		path := filepath.Join("testdata", tc.name+".golden")
		if *update {
			if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
				t.Fatal(err)
			}
			continue
		}
		want, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if got != string(want) {
			t.Errorf("%s: stdout drifted from %s:\ngot\n%s\nwant\n%s", tc.name, path, got, want)
		}
	}
}
