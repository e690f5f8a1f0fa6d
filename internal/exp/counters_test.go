package exp

import (
	"bytes"
	"fmt"
	"testing"

	"sinrcast/internal/broadcast"
	"sinrcast/internal/protocol"
	"sinrcast/internal/scenario"
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
	n := cfg.scaled(32, 16)
	scenSpecs, err := cfg.scenarioSpecs(n)
	if err != nil {
		t.Fatal(err)
	}
	protoSpecs, err := cfg.protocolSpecs()
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	fmt.Fprintln(&buf, "family,protocol,trial,rounds,transmissions,receptions,busy_rounds,informed,all_informed")
	for _, sp := range scenSpecs {
		net, err := scenario.Generate(sp, physParams(), cfg.Seed)
		if err != nil {
			t.Fatalf("%s: %v", sp.Family, err)
		}
		for _, ps := range protoSpecs {
			results, err := runTrials(cfg, 13, matrixKey(sp.Family, ps.Name),
				func(seed uint64) (*broadcast.Result, error) {
					return protocol.Run(net, ps, seed)
				})
			if err != nil {
				fmt.Fprintf(&buf, "%s,%s,error,%q\n", sp.Family, ps.Name, err)
				continue
			}
			for trial, res := range results {
				informed := 0
				for _, at := range res.InformTime {
					if at >= 0 {
						informed++
					}
				}
				m := res.Metrics
				fmt.Fprintf(&buf, "%s,%s,%d,%d,%d,%d,%d,%d,%t\n", sp.Family, ps.Name, trial,
					res.Rounds, m.Transmissions, m.Receptions, m.BusyRounds, informed, res.AllInformed)
			}
		}
	}
	checkGolden(t, "e13_counters_scale0.5_trials2_seed2014.csv", buf.Bytes())
}
