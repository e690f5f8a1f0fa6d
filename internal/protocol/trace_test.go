package protocol

import (
	"testing"

	"sinrcast/internal/network"
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
	// NoS takes turns on the channel: many of its full rounds have one
	// transmitter, the same station again and again, and each is a
	// physical-layer round the trace must hold.
	if spec, err = Parse("nos"); err != nil {
		t.Fatal(err)
	}
	for _, ch := range []Channel{nil, hier} {
		if repeats := soloRepeats(run(ch)); repeats == 0 {
			t.Fatal("nos recorded no repeated single-transmitter round")
		}
	}
}

// soloRepeats counts the full rounds of log whose single transmitter
// already transmitted alone in an earlier full round.
func soloRepeats(log *sim.RoundLog) int {
	seen := map[int]bool{}
	repeats := 0
	for r, tx := range log.Tx {
		if len(tx) == 1 && log.Recv[r] == nil {
			if seen[tx[0]] {
				repeats++
			}
			seen[tx[0]] = true
		}
	}
	return repeats
}

// TestObservedChannelCountsEveryRound pins the contract the serve layer
// builds on: an ObserveRounds wrapper sees every physical-layer round
// of a run, repeated single-transmitter rounds included, with round
// indices counting up from 0 — so per-round cancellation and progress
// miss none.
func TestObservedChannelCountsEveryRound(t *testing.T) {
	net, err := scenario.Generate(
		scenario.Spec{Family: "uniform", Params: map[string]float64{"n": 64, "density": 8}},
		sinr.DefaultParams(), 3)
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range []string{"nos", "s", "consensus"} {
		for _, engine := range []string{"exact", "hier"} {
			spec, err := Parse(s)
			if err != nil {
				t.Fatal(err)
			}
			calls := 0
			ch := func(net *network.Network) (sim.Resolver, error) {
				eng, err := sinr.NewNamedEngine(engine, net.Space, net.Params)
				if err != nil {
					return nil, err
				}
				return sim.ObserveRounds(eng, func(round, tx, rec int) {
					if round != calls {
						t.Fatalf("%s on %s: round index %d after %d calls", s, engine, round, calls)
					}
					calls++
				}), nil
			}
			res, err := RunOn(net, spec, 5, ch)
			if err != nil {
				t.Fatal(err)
			}
			if calls == 0 || calls != res.Metrics.BusyRounds {
				t.Fatalf("%s on %s: observed %d rounds, metrics say %d busy", s, engine, calls, res.Metrics.BusyRounds)
			}
		}
	}
}
