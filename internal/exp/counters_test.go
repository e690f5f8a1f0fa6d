package exp

import (
	"bytes"
	"fmt"
	"testing"
)

// TestE13CountersGolden pins what each E13 cell simulated, not only its
// median: per (protocol, family) cell and trial, the rounds, the
// engine's transmission, reception and busy-round counters, and the
// number of informed stations. Round-loop optimizations (wake
// scheduling, receiver subsets, batched draws) must leave every line
// unchanged; TestE13Golden alone would miss a change that moves a
// counter but not a median. Regenerate with
// `go test ./internal/exp -run TestE13CountersGolden -update`.
func TestE13CountersGolden(t *testing.T) {
	cfg := Config{Seed: 2014, Trials: 2, Scale: 0.5, Workers: 4}
	pool := newTrialPool(cfg)
	m, err := newMatrix(cfg, pool)
	if err != nil {
		t.Fatal(err)
	}
	pool.run()
	var buf bytes.Buffer
	fmt.Fprintln(&buf, "family,protocol,trial,rounds,transmissions,receptions,busy_rounds,informed,all_informed")
	for _, r := range m.rows {
		for pi, c := range r.cells {
			ps := m.protos[pi]
			results, err := c.results()
			if err != nil {
				fmt.Fprintf(&buf, "%s,%s,error,%q\n", r.family, ps.Name, err)
				continue
			}
			for trial, res := range results {
				informed := 0
				for _, at := range res.InformTime {
					if at >= 0 {
						informed++
					}
				}
				mt := res.Metrics
				fmt.Fprintf(&buf, "%s,%s,%d,%d,%d,%d,%d,%d,%t\n", r.family, ps.Name, trial,
					res.Rounds, mt.Transmissions, mt.Receptions, mt.BusyRounds, informed, res.AllInformed)
			}
		}
	}
	checkGolden(t, "e13_counters_scale0.5_trials2_seed2014.csv", buf.Bytes())
}
