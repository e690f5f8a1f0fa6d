package exp

import (
	"math/bits"
	"strconv"
	"strings"
	"testing"
)

// smallCfg shrinks everything for unit-test latency.
func smallCfg() Config { return Config{Seed: 2014, Trials: 2, Scale: 0.5} }

func TestConfigHelpers(t *testing.T) {
	c := Config{}
	if c.trials() != 1 {
		t.Fatalf("trials floor = %d", c.trials())
	}
	if c.scaled(100, 10) != 100 {
		t.Fatalf("scaled with zero Scale should default to 1×")
	}
	c = Config{Scale: 0.1}
	if c.scaled(100, 32) != 32 {
		t.Fatalf("scaled floor = %d", c.scaled(100, 32))
	}
	if DefaultConfig().Trials < 1 {
		t.Fatal("default trials")
	}
}

func TestE1(t *testing.T) {
	if testing.Short() {
		t.Skip("experiment")
	}
	tb, err := E1NoSBroadcastVsD(smallCfg())
	if err != nil {
		t.Fatal(err)
	}
	if len(tb.Rows) != 4 {
		t.Fatalf("E1 rows = %d", len(tb.Rows))
	}
	if !strings.Contains(tb.String(), "Theorem 1") {
		t.Fatal("missing title")
	}
}

func TestE2(t *testing.T) {
	if testing.Short() {
		t.Skip("experiment")
	}
	tb, err := E2SBroadcastScaling(smallCfg())
	if err != nil {
		t.Fatal(err)
	}
	if len(tb.Rows) != 7 {
		t.Fatalf("E2 rows = %d", len(tb.Rows))
	}
}

func TestE3E4(t *testing.T) {
	if testing.Short() {
		t.Skip("experiment")
	}
	cfg := smallCfg()
	cfg.Trials = 1
	t3, err := E3Lemma1(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range t3.Rows {
		if row[3] != "true" {
			t.Errorf("E3 bound violated: %v", row)
		}
	}
	t4, err := E4Lemma2(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range t4.Rows {
		if row[3] != "true" {
			t.Errorf("E4 bound violated: %v", row)
		}
	}
}

func TestE5(t *testing.T) {
	tb, err := E5ColoringRounds(smallCfg())
	if err != nil {
		t.Fatal(err)
	}
	if len(tb.Rows) != 5 {
		t.Fatalf("E5 rows = %d", len(tb.Rows))
	}
}

// TestE5MatchesFact7 makes Fact 7 executable: every E5 row's schedule
// length equals 32·lg n·(lg n − 5), the O(log² n) bound with its
// constant — 192, 768, 1600, 2688 and 4032 rounds for n = 64 … 16384.
func TestE5MatchesFact7(t *testing.T) {
	tb, err := E5ColoringRounds(smallCfg())
	if err != nil {
		t.Fatal(err)
	}
	want := []struct{ n, rounds string }{
		{"64", "192"}, {"256", "768"}, {"1024", "1600"}, {"4096", "2688"}, {"16384", "4032"},
	}
	if len(tb.Rows) != len(want) {
		t.Fatalf("E5 rows = %d, want %d", len(tb.Rows), len(want))
	}
	for i, row := range tb.Rows {
		n, err := strconv.Atoi(row[0])
		if err != nil {
			t.Fatalf("row %d: n = %q", i, row[0])
		}
		lg := bits.Len(uint(n)) - 1
		if fact7 := strconv.Itoa(32 * lg * (lg - 5)); row[1] != fact7 {
			t.Errorf("n=%d: %s rounds, want 32·lg n·(lg n − 5) = %s", n, row[1], fact7)
		}
		if row[0] != want[i].n || row[1] != want[i].rounds {
			t.Errorf("row %d = (%s, %s), want (%s, %s)", i, row[0], row[1], want[i].n, want[i].rounds)
		}
	}
}

func TestE8(t *testing.T) {
	if testing.Short() {
		t.Skip("experiment")
	}
	tb, err := E8Applications(smallCfg())
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range tb.Rows {
		if row[2] != "true" {
			t.Errorf("application incorrect: %v", row)
		}
	}
}
