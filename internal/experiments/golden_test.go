package experiments

import (
	"flag"
	"os"
	"path/filepath"
	"testing"
)

var update = flag.Bool("update", false, "rewrite the testdata goldens from the current output")

// TestServingExtensionsGolden pins every registered experiment
// byte-for-byte: each golden is the `llmbench run <id>` output (the
// Markdown plus the CLI's trailing newline). The paper's figures and
// tables are pinned with the serving extensions, so a change to any
// layer under them (engine pricing, the DES kernel, the allocators)
// must either leave every golden unchanged or refresh it with
// `go test ./internal/experiments -update` on purpose.
func TestServingExtensionsGolden(t *testing.T) {
	for _, exp := range All() {
		id := exp.ID
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
