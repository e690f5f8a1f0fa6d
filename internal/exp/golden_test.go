package exp

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"testing"

	"sinrcast/internal/stats"
)

var update = flag.Bool("update", false, "rewrite the golden tables under testdata/")

// TestE13Golden pins the protocol×scenario matrix byte for byte in
// every sink format. It runs under -short too, so the race-detector
// smoke drives concurrent trials through every protocol. Regenerate
// with `go test ./internal/exp -run TestE13Golden -update` and review
// the diff: a change is a change of simulated behaviour.
func TestE13Golden(t *testing.T) {
	cfg := Config{Seed: 2014, Trials: 2, Scale: 0.5, Workers: 4}
	tb, err := E13ProtocolMatrix(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, format := range stats.SinkFormats() {
		var buf bytes.Buffer
		sink, err := stats.NewSink(format, &buf)
		if err != nil {
			t.Fatal(err)
		}
		if err := sink.Emit(tb); err != nil {
			t.Fatal(err)
		}
		if err := sink.Close(); err != nil {
			t.Fatal(err)
		}
		path := filepath.Join("testdata", "e13_scale0.5_trials2_seed2014."+format)
		if *update {
			if err := os.MkdirAll("testdata", 0o755); err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
				t.Fatal(err)
			}
			continue
		}
		want, err := os.ReadFile(path)
		if err != nil {
			t.Fatalf("%v (regenerate with -update)", err)
		}
		if !bytes.Equal(buf.Bytes(), want) {
			t.Errorf("%s: E13 table differs from %s:\ngot:\n%s\nwant:\n%s", format, path, buf.Bytes(), want)
		}
	}
}
