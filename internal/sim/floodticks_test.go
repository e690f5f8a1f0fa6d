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

// subsetCounter forwards to a subset resolver and sums the receiver
// lists the engine hands it.
type subsetCounter struct {
	sim.SubsetResolver
	calls     int
	receivers int64
}

func (c *subsetCounter) ResolveFor(tx, receivers []int) []sinr.Reception {
	c.calls++
	c.receivers += int64(len(receivers))
	return c.SubsetResolver.ResolveFor(tx, receivers)
}

// TestDecayFloodActiveListCost is the counted gate of the engine's
// active-receiver list: over a decay flood on hier (uniform n=4096),
// where stations only ever go inactive, the list updates examine at
// most n stations (the first build) plus the lists of the previous
// rounds — never a rescan of all n per round, which is what a rebuild
// on every deactivation paid. It counts stations, so it holds on any
// hardware.
func TestDecayFloodActiveListCost(t *testing.T) {
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
	var engines []*sim.Engine
	prev := sim.SetEngineObserverForTest(func(e *sim.Engine) { engines = append(engines, e) })
	c := &subsetCounter{SubsetResolver: phys.(sim.SubsetResolver)}
	res, err := baseline.RunFloodOn(net, baseline.NewDecay(net.N()), 11, 0, 0, c)
	sim.SetEngineObserverForTest(prev)
	if err != nil {
		t.Fatal(err)
	}
	if !res.AllInformed || len(engines) != 1 || c.calls == 0 {
		t.Fatalf("flood informed all: %v, %d engines built, %d subset rounds", res.AllInformed, len(engines), c.calls)
	}
	n := int64(net.N())
	examined := engines[0].ActiveExaminedForTest()
	t.Logf("%d rounds, %d subset rounds: %d stations examined for %d receivers resolved (a rescan per round: %d)",
		res.Metrics.Rounds, c.calls, examined, c.receivers, n*int64(c.calls))
	if examined > n+c.receivers {
		t.Fatalf("active-list updates examined %d stations, more than n=%d plus the %d receivers of the subset rounds", examined, n, c.receivers)
	}
}
