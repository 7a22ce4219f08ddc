package experiments

import (
	"flag"
	"os"
	"path/filepath"
	"testing"
)

var update = flag.Bool("update", false, "rewrite the testdata goldens from the current output")

// TestServingExtensionsGolden pins serving experiments
// byte-for-byte: each golden is the `llmbench run <id>` output (the
// Markdown plus the CLI's trailing newline). ext3 and ext8 exercise
// recompute preemption under KV pressure, ext4 chunked prefill, and
// ext9 the autoscaler against fixed fleets.
func TestServingExtensionsGolden(t *testing.T) {
	for _, id := range []string{"ext3", "ext4", "ext8", "ext9"} {
		exp, err := Get(id)
		if err != nil {
			t.Fatal(err)
		}
		out, err := exp.Run()
		if err != nil {
			t.Fatalf("%s: %v", id, err)
		}
		got := out.Markdown() + "\n"
		path := filepath.Join("testdata", id+".golden")
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
			t.Errorf("%s drifted from %s:\ngot\n%s\nwant\n%s", id, path, got, want)
		}
	}
}
