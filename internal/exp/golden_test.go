package exp

import (
	"bytes"
	"flag"
	"fmt"
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
		checkGolden(t, "e13_scale0.5_trials2_seed2014."+format, buf.Bytes())
	}
}

// TestE14Golden pins E14's deterministic columns — everything but the
// wall-clock rounds/s — at scale 0.01, where the top point is n=10⁴:
// inside auto's approximate band, so the engine column pins what
// sinr.Choose picks there. Regenerate with
// `go test ./internal/exp -run TestE14Golden -update`.
func TestE14Golden(t *testing.T) {
	if testing.Short() {
		t.Skip("floods 10⁴-station deployments")
	}
	cfg := Config{Seed: 2014, Trials: 2, Scale: 0.01, Workers: 4}
	tb, err := E14LargeNScaling(cfg)
	if err != nil {
		t.Fatal(err)
	}
	last := len(tb.Headers) - 1
	if tb.Headers[last] != "rounds/s" {
		t.Fatalf("E14's last column is %q, want the wall-clock rounds/s", tb.Headers[last])
	}
	det := stats.NewTable(tb.Title, tb.Headers[:last]...)
	for _, row := range tb.Rows {
		det.Rows = append(det.Rows, row[:last])
	}
	var buf bytes.Buffer
	sink, err := stats.NewSink("csv", &buf)
	if err != nil {
		t.Fatal(err)
	}
	if err := sink.Emit(det); err != nil {
		t.Fatal(err)
	}
	if err := sink.Close(); err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "e14_scale0.01_trials2_seed2014.csv", buf.Bytes())
}

// checkGolden compares got with testdata/name, or rewrites that file
// under -update.
func checkGolden(t *testing.T, name string, got []byte) {
	t.Helper()
	path := filepath.Join("testdata", name)
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (regenerate with -update)", err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("%s differs:\n%s", path, firstDiff(got, want))
	}
}

// firstDiff renders the first differing line of two golden texts.
func firstDiff(got, want []byte) string {
	g, w := bytes.Split(got, []byte("\n")), bytes.Split(want, []byte("\n"))
	for i := 0; i < len(g) || i < len(w); i++ {
		var gl, wl []byte
		if i < len(g) {
			gl = g[i]
		}
		if i < len(w) {
			wl = w[i]
		}
		if !bytes.Equal(gl, wl) {
			return fmt.Sprintf("line %d:\ngot:  %s\nwant: %s", i+1, gl, wl)
		}
	}
	return "(no differing line)"
}
