// Block-loop cost gates: a hier ResolveFor round groups its receivers
// by block, so it builds at most one frontier (one gather and one
// shared descent) per distinct receiver block, and none while a
// block's cached slabs carry the current aggregation epoch. The gates
// count builds, so they hold on any hardware.
package sinr_test

import (
	"fmt"
	"testing"

	"sinrcast/internal/baseline"
	"sinrcast/internal/geom"
	"sinrcast/internal/rng"
	"sinrcast/internal/sinr"
)

// distinctBlocks counts the distinct receiver blocks of a receiver list.
func distinctBlocks(h *sinr.HierEngine, receivers []int) int {
	seen := map[int]bool{}
	for _, u := range receivers {
		seen[h.BlockOfForTest(u)] = true
	}
	return len(seen)
}

// newGateEngine builds a hier engine over a uniform n=4096 deployment,
// serial or with the parallel block loop forced on.
func newGateEngine(t *testing.T, parallel bool) (*sinr.HierEngine, int) {
	t.Helper()
	eu := seqScene(t, "uniform:n=4096", 4097)
	h, err := sinr.NewHierEngine(eu, sinr.DefaultParams(), sinr.DefaultCellSize, sinr.DefaultNearRadius, sinr.DefaultTheta)
	if err != nil {
		t.Fatal(err)
	}
	if parallel {
		sinr.ForceParallelForTest(h, 3)
	} else {
		h.SetWorkers(1)
	}
	return h, eu.Len()
}

// TestResolveForBuildsOneFrontierPerBlock: a scattered subset (every
// 97th station, so consecutive receivers sit in different blocks)
// builds at most one frontier per distinct receiver block in its first
// round, and none when the round repeats.
func TestResolveForBuildsOneFrontierPerBlock(t *testing.T) {
	for _, parallel := range []bool{false, true} {
		t.Run(fmt.Sprintf("parallel=%v", parallel), func(t *testing.T) {
			h, n := newGateEngine(t, parallel)
			var recv []int
			for u := 5; u < n; u += 97 {
				recv = append(recv, u)
			}
			tx := sortedSubset(rng.New(7), n, 0.02)
			blocks := int64(distinctBlocks(h, recv))

			before := h.FrontierBuildsForTest()
			h.ResolveFor(tx, recv)
			first := h.FrontierBuildsForTest() - before
			t.Logf("%d receivers in %d blocks: %d frontier builds", len(recv), blocks, first)
			if first == 0 {
				t.Fatal("first round built no frontier: the gate measures nothing")
			}
			if first > blocks {
				t.Fatalf("first round built %d frontiers for %d distinct receiver blocks", first, blocks)
			}

			before = h.FrontierBuildsForTest()
			h.ResolveFor(tx, recv)
			if again := h.FrontierBuildsForTest() - before; again != 0 {
				t.Fatalf("repeated round built %d frontiers, want 0", again)
			}
		})
	}
}

// blockCounter forwards to a hier engine and sums, over the rounds it
// forwards, the distinct receiver blocks of each round.
type blockCounter struct {
	h       *sinr.HierEngine
	all     []int
	blocks  int64
	rounds  int
	subsets int
}

func (c *blockCounter) N() int { return c.h.N() }

func (c *blockCounter) Resolve(tx []int) []sinr.Reception {
	c.rounds++
	c.blocks += int64(distinctBlocks(c.h, c.all))
	return c.h.Resolve(tx)
}

func (c *blockCounter) ResolveFor(tx, receivers []int) []sinr.Reception {
	c.rounds++
	c.subsets++
	c.blocks += int64(distinctBlocks(c.h, receivers))
	return c.h.ResolveFor(tx, receivers)
}

// TestFloodBuildsOneFrontierPerBlockRound holds a whole decay flood on
// hier to the same bound: its frontier builds never exceed the sum
// over its rounds of their distinct receiver blocks. A flood's late
// rounds resolve a few scattered uninformed stations, where a
// per-receiver walk would build once per receiver.
func TestFloodBuildsOneFrontierPerBlockRound(t *testing.T) {
	if testing.Short() {
		t.Skip("whole flood at n=4096")
	}
	for _, parallel := range []bool{false, true} {
		t.Run(fmt.Sprintf("parallel=%v", parallel), func(t *testing.T) {
			h, n := newGateEngine(t, parallel)
			net := seqNet(t, "uniform:n=4096", 4097)
			c := &blockCounter{h: h, all: allStations(n)}
			res, err := baseline.RunFloodOn(net, baseline.NewDecay(n), 11, 0, 0, c)
			if err != nil {
				t.Fatal(err)
			}
			builds := h.FrontierBuildsForTest()
			t.Logf("decay flood: %d rounds (%d subset), %d frontier builds, %d round-blocks, all informed %v",
				c.rounds, c.subsets, builds, c.blocks, res.AllInformed)
			if c.subsets == 0 || builds == 0 {
				t.Fatal("flood resolved no subset round or built no frontier: the gate measures nothing")
			}
			if builds > c.blocks {
				t.Fatalf("flood built %d frontiers, more than its %d round-blocks", builds, c.blocks)
			}
		})
	}
}

// TestRejectedBlockBuildsNoFrontier: a hot block whose receivers all
// fail the near-field rejection (no transmitter within decode range,
// though one sits inside the near radius, which makes the block hot)
// gathers its near field but never descends; a block with a decode
// candidate builds its frontier once, and a repeat of the round
// builds none.
func TestRejectedBlockBuildsNoFrontier(t *testing.T) {
	pts := []geom.Point{
		{X: 0, Y: 0},                                         // 0: transmitter
		{X: 1.2, Y: 0}, {X: 1.25, Y: 0.1}, {X: 1.3, Y: -0.1}, // 1-3: hot, out of range
		{X: 9, Y: 9}, {X: 9.4, Y: 9}, // 4: transmitter, 5: candidate
		{X: 5, Y: 5}, {X: 9, Y: 0}, {X: 0, Y: 9}, // quiet filler
	}
	h, err := sinr.NewHierEngine(geom.NewEuclidean(pts), sinr.DefaultParams(), sinr.DefaultCellSize, sinr.DefaultNearRadius, sinr.DefaultTheta)
	if err != nil {
		t.Fatal(err)
	}
	if h.BlockOfForTest(0) == h.BlockOfForTest(5) {
		t.Fatal("candidate shares the rejected receivers' block: the test measures nothing")
	}
	tx := []int{0, 4}
	builds := func(recv []int) (int64, []sinr.Reception) {
		before := h.FrontierBuildsForTest()
		rec := h.ResolveFor(tx, recv)
		return h.FrontierBuildsForTest() - before, rec
	}
	if b, rec := builds([]int{1, 2, 3}); b != 0 || len(rec) != 0 {
		t.Fatalf("all-rejected hot block: %d frontier builds, receptions %v; want 0 and none", b, rec)
	}
	if b, rec := builds([]int{1, 2, 3, 5}); b != 1 || len(rec) != 1 || rec[0] != (sinr.Reception{Receiver: 5, Transmitter: 4}) {
		t.Fatalf("one candidate block: %d frontier builds, receptions %v; want 1 and 5←4", b, rec)
	}
	if b, _ := builds([]int{1, 2, 3, 5}); b != 0 {
		t.Fatalf("repeated round built %d frontiers, want 0", b)
	}
}
