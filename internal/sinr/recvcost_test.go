// Receiver-side cost gates of the hier engine: a round resolves only
// the non-transmitting receivers of hot blocks, and a receiver's
// rejection scan reads the cells within its communication range, not
// its block's whole near slab. The gates count visits and slab
// elements, so they hold on any hardware.
package sinr_test

import (
	"testing"

	"sinrcast/internal/baseline"
	"sinrcast/internal/sinr"
)

// visitCounter forwards to a hier engine and checks, round by round,
// that the engine visited no more receivers than the round has
// non-transmitting receivers in hot blocks.
type visitCounter struct {
	t        *testing.T
	h        *sinr.HierEngine
	all      []int
	isTx     []bool
	rounds   int
	eligible int64
}

func (c *visitCounter) N() int { return c.h.N() }

func (c *visitCounter) Resolve(tx []int) []sinr.Reception {
	return c.ResolveFor(tx, c.all)
}

func (c *visitCounter) ResolveFor(tx, receivers []int) []sinr.Reception {
	v0, _, _ := c.h.RecvStatsForTest()
	var rec []sinr.Reception
	if len(receivers) == len(c.all) {
		rec = c.h.Resolve(tx)
	} else {
		rec = c.h.ResolveFor(tx, receivers)
	}
	v1, _, _ := c.h.RecvStatsForTest()
	for _, u := range tx {
		c.isTx[u] = true
	}
	eligible := int64(0)
	for _, u := range receivers {
		if !c.isTx[u] && c.h.HotBlockForTest(u) {
			eligible++
		}
	}
	for _, u := range tx {
		c.isTx[u] = false
	}
	if v1-v0 > eligible {
		c.t.Fatalf("round %d: %d receiver visits for %d non-transmitting receivers in hot blocks", c.rounds, v1-v0, eligible)
	}
	c.rounds++
	c.eligible += eligible
	return rec
}

// TestDecayFloodReceiverVisits runs one fixed-seed decay flood on hier
// (uniform n=4096, serial) and gates its receiver side: per round, the
// receivers resolved never exceed the active non-transmitting stations
// in hot blocks, and over the flood the rejection scans read at most a
// quarter of the near-slab elements a whole-slab scan would.
func TestDecayFloodReceiverVisits(t *testing.T) {
	if testing.Short() {
		t.Skip("whole flood at n=4096")
	}
	h, n := newGateEngine(t, false)
	net := seqNet(t, "uniform:n=4096", 4097)
	c := &visitCounter{t: t, h: h, all: allStations(n), isTx: make([]bool, n)}
	res, err := baseline.RunFloodOn(net, baseline.NewDecay(n), 11, 0, 0, c)
	if err != nil {
		t.Fatal(err)
	}
	visits, scanned, slab := h.RecvStatsForTest()
	t.Logf("decay flood: %d rounds, %d visits (%d eligible), %.1f elements scanned and %.1f in the slab per visit, all informed %v",
		c.rounds, visits, c.eligible, float64(scanned)/float64(visits), float64(slab)/float64(visits), res.AllInformed)
	if visits == 0 || slab == 0 {
		t.Fatal("flood visited no receiver: the gate measures nothing")
	}
	if 4*scanned > slab {
		t.Fatalf("rejection scans read %d of %d slab elements: more than a quarter", scanned, slab)
	}
}
