package exp

import (
	"testing"

	"sinrcast/internal/protocol"
	"sinrcast/internal/scenario"
)

// TestE13CoversMatrix checks the matrix's defining property: one row
// per registered family, one column per registered protocol, without
// the experiment code naming any of them.
func TestE13CoversMatrix(t *testing.T) {
	if testing.Short() {
		t.Skip("experiment")
	}
	cfg := smallCfg()
	cfg.Trials = 1
	tb, err := E13ProtocolMatrix(cfg)
	if err != nil {
		t.Fatal(err)
	}
	fams := scenario.Names()
	if len(tb.Rows) != len(fams) {
		t.Fatalf("E13 rows = %d, registered families = %d", len(tb.Rows), len(fams))
	}
	for i, name := range fams {
		if tb.Rows[i][0] != name {
			t.Errorf("row %d family = %q, want %q", i, tb.Rows[i][0], name)
		}
	}
	protos := protocol.Names()
	if len(tb.Headers) != 3+len(protos) {
		t.Fatalf("E13 columns = %d, want 3 + %d protocols", len(tb.Headers), len(protos))
	}
	for i, name := range protos {
		if tb.Headers[3+i] != name {
			t.Errorf("column %d protocol = %q, want %q", 3+i, tb.Headers[3+i], name)
		}
	}
}

// TestE13Restriction checks Config.Scenario and Config.Protocol narrow
// the matrix to explicit specs on either axis.
func TestE13Restriction(t *testing.T) {
	if testing.Short() {
		t.Skip("experiment")
	}
	cfg := smallCfg()
	cfg.Trials = 1
	cfg.Scenario = "grid:n=16,spacing=0.5"
	cfg.Protocol = "decay:budget=2000"
	tb, err := E13ProtocolMatrix(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(tb.Rows) != 1 || tb.Rows[0][0] != "grid" || tb.Rows[0][1] != "16" {
		t.Fatalf("restricted matrix rows = %v", tb.Rows)
	}
	if len(tb.Headers) != 4 || tb.Headers[3] != "decay:budget=2000" {
		t.Fatalf("restricted matrix headers = %v", tb.Headers)
	}
	cfg.Protocol = "decay:bogus=1"
	if _, err := E13ProtocolMatrix(cfg); err == nil {
		t.Fatal("want error for invalid Config.Protocol")
	}
}

// TestE13IdenticalAcrossWorkers extends the trial-concurrency
// determinism contract to the whole matrix: every family × every
// protocol, run as one trial pool, must render bit-identically for
// every worker count, including pools with more workers than a cell
// has trials.
func TestE13IdenticalAcrossWorkers(t *testing.T) {
	if testing.Short() {
		t.Skip("experiment")
	}
	for _, trials := range []int{1, 3} {
		cfg := smallCfg()
		cfg.Trials = trials
		var want string
		for _, w := range []int{1, 2, 8} {
			cfg.Workers = w
			tb, err := E13ProtocolMatrix(cfg)
			if err != nil {
				t.Fatal(err)
			}
			if w == 1 {
				want = tb.String()
				continue
			}
			if got := tb.String(); got != want {
				t.Fatalf("Trials=%d: E13 differs between Workers=1 and Workers=%d:\nserial:\n%s\nconcurrent:\n%s",
					trials, w, want, got)
			}
		}
	}
}
