package protocol

import (
	"testing"

	"sinrcast/internal/scenario"
	"sinrcast/internal/sim"
	"sinrcast/internal/sinr"
)

// TestTracedChannelRecordsRounds pins the trace contract: a traced run
// records exactly one entry per physical-layer round (Tx always, Recv
// for subset-resolved rounds), identically across repeat runs, for
// both a nil (default exact) channel and an explicit engine channel.
// On a subset resolver sim.Engine skips transmitter-free rounds, so the
// physical-layer rounds are exactly the busy ones.
func TestTracedChannelRecordsRounds(t *testing.T) {
	net, err := scenario.Generate(
		scenario.Spec{Family: "uniform", Params: map[string]float64{"n": 64, "density": 8}},
		sinr.DefaultParams(), 3)
	if err != nil {
		t.Fatal(err)
	}
	spec, err := Parse("decay:budget=40")
	if err != nil {
		t.Fatal(err)
	}
	run := func(base Channel) *sim.RoundLog {
		log := &sim.RoundLog{}
		res, err := RunOn(net, spec, 5, TracedChannel(base, log))
		if err != nil {
			t.Fatal(err)
		}
		if res.Metrics.BusyRounds != len(log.Tx) || len(log.Tx) != len(log.Recv) {
			t.Fatalf("recorded %d tx / %d recv rounds, metrics say %d busy",
				len(log.Tx), len(log.Recv), res.Metrics.BusyRounds)
		}
		return log
	}
	hier, err := NamedChannel("hier")
	if err != nil {
		t.Fatal(err)
	}
	a := run(nil)
	b := run(nil)
	if len(a.Tx) == 0 {
		t.Fatal("no rounds recorded")
	}
	for r := range a.Tx {
		if len(a.Tx[r]) != len(b.Tx[r]) {
			t.Fatalf("round %d: repeat runs diverge (%d vs %d tx)", r, len(a.Tx[r]), len(b.Tx[r]))
		}
		for i := 1; i < len(a.Tx[r]); i++ {
			if a.Tx[r][i] <= a.Tx[r][i-1] {
				t.Fatalf("round %d: recorded tx not strictly increasing", r)
			}
		}
	}
	// Flood runners resolve shrinking uninformed subsets: the trace
	// must capture them.
	sawSubset := false
	for _, recv := range a.Recv {
		if recv != nil {
			sawSubset = true
		}
	}
	if !sawSubset {
		t.Fatal("decay flood recorded no subset-resolved rounds")
	}
	if hlog := run(hier); len(hlog.Tx) == 0 {
		t.Fatal("hier-channel run recorded no rounds")
	}
}
