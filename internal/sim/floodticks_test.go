package sim_test

import (
	"testing"

	"sinrcast/internal/baseline"
	"sinrcast/internal/scenario"
	"sinrcast/internal/sim"
	"sinrcast/internal/sinr"
)

// tickCounter forwards to a station and counts its ticks and the ticks
// in which it transmitted.
type tickCounter struct {
	sim.Protocol
	ticks, tx int
}

func (c *tickCounter) Tick(t int) (bool, sim.Message, int) {
	c.ticks++
	transmit, msg, w := c.Protocol.Tick(t)
	if transmit {
		c.tx++
	}
	return transmit, msg, w
}

// TestDecayFloodTicksOncePerTransmission is the counted gate of sleeping
// sweep floods: in a decay flood on hier over uniform n=4096, the
// engine ticks each station at most once per transmission, plus its
// round-0 tick, one inform tick and one calendar-clamp re-announce per
// horizon of rounds — where a station drawing every round would tick on
// every round after it is informed. It counts ticks, so it holds on
// any hardware.
func TestDecayFloodTicksOncePerTransmission(t *testing.T) {
	if testing.Short() {
		t.Skip("whole flood at n=4096")
	}
	spec, err := scenario.Parse("uniform:n=4096")
	if err != nil {
		t.Fatal(err)
	}
	net, err := scenario.Generate(spec, sinr.DefaultParams(), 4097)
	if err != nil {
		t.Fatal(err)
	}
	phys, err := sinr.NewNamedEngine("hier", net.Space, net.Params)
	if err != nil {
		t.Fatal(err)
	}
	var counters []*tickCounter
	prev := sim.SetStationWrapperForTest(func(p sim.Protocol) sim.Protocol {
		c := &tickCounter{Protocol: p}
		counters = append(counters, c)
		return c
	})
	res, err := baseline.RunFloodOn(net, baseline.NewDecay(net.N()), 11, 0, 0, phys)
	sim.SetStationWrapperForTest(prev)
	if err != nil {
		t.Fatal(err)
	}
	if !res.AllInformed || len(counters) != net.N() {
		t.Fatalf("flood informed all: %v, %d stations counted of %d", res.AllInformed, len(counters), net.N())
	}
	// The engine's calendar horizon is 4096 rounds: a hint farther out
	// is clamped, and the station re-announces it once per horizon.
	allowed := 2 + (res.Metrics.Rounds+4094)/4095
	var ticks, tx int
	for i, c := range counters {
		ticks += c.ticks
		tx += c.tx
		if idle := c.ticks - c.tx; idle > allowed {
			t.Fatalf("station %d ticked %d times for %d transmissions over %d rounds: %d idle ticks, at most %d allowed",
				i, c.ticks, c.tx, res.Metrics.Rounds, idle, allowed)
		}
	}
	t.Logf("%d rounds: %d ticks for %d transmissions", res.Metrics.Rounds, ticks, tx)
	if int64(tx) != res.Metrics.Transmissions {
		t.Fatalf("counted %d transmissions, metrics say %d", tx, res.Metrics.Transmissions)
	}
}
