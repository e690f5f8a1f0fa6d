package sinr

import "sinrcast/internal/geom"

// Test-only hooks for the external (package sinr_test) test files:
// in-package tests poke unexported fields directly, but the round-
// sequence equivalence tests live outside the package so they can
// build scenario-registry topologies (the scenario package imports
// sinr, which would cycle in-package).

// SetAlphaForTest swaps the path-loss exponent of a built engine, like
// the benches' setBenchAlpha: α=2 fails Validate on the plane, but
// only the kernel arithmetic is under test.
func SetAlphaForTest(r Resolver, alpha float64) {
	switch e := r.(type) {
	case *Engine:
		setBenchAlpha(&e.params, &e.kern, alpha)
	case *GridEngine:
		setBenchAlpha(&e.params, &e.kern, alpha)
	case *HierEngine:
		setBenchAlpha(&e.params, &e.kern, alpha)
	default:
		panic("SetAlphaForTest: unknown engine type")
	}
}

// ForceParallelForTest drops the parallel crossover so tiny test
// instances exercise the parallel path with the given worker count.
func ForceParallelForTest(r Resolver, workers int) {
	switch e := r.(type) {
	case *Engine:
		e.SetWorkers(workers)
		e.minParallelN = 0
	case *GridEngine:
		e.SetWorkers(workers)
		e.minParallelN = 0
	case *HierEngine:
		e.SetWorkers(workers)
		e.minParallelN = 0
	default:
		panic("ForceParallelForTest: unknown engine type")
	}
}

// BenchSceneForTest exposes the benches' constant-density scene
// generator to the external bench files.
func BenchSceneForTest(seed uint64, n int) *geom.Euclidean { return benchScene(seed, n) }

// runnerOf returns the engine's chunk runner.
func runnerOf(r Resolver) *chunkRunner {
	switch e := r.(type) {
	case *Engine:
		return &e.par
	case *GridEngine:
		return &e.par
	case *HierEngine:
		return &e.par
	default:
		panic("runnerOf: unknown engine type")
	}
}

// SetChunkTargetForTest overrides the per-chunk receiver target; 1
// makes every receiver its own chunk (many more chunks than workers,
// so the workers contend on the cursor for every receiver).
func SetChunkTargetForTest(r Resolver, target int) { runnerOf(r).chunkTarget = target }

// HotStatsForTest returns the hot-table cost counters accumulated since
// construction: total block-counter bumps and live-cell transitions
// (bumpHot calls). The hardware-independent CI gate divides the two and
// compares against the (2·nearCells+1)² bumps the per-cell table paid
// per transition.
func (h *HierEngine) HotStatsForTest() (bumps, transitions int64) {
	return h.hotBumps, h.hotTransitions
}

// FrontierBuildsForTest returns how many block frontiers (shared
// Barnes–Hut descents) the engine has built since construction — the
// counter behind the per-block build gates.
func (h *HierEngine) FrontierBuildsForTest() int64 { return h.frontierBuilds.Load() }

// PyramidBuildsForTest returns how many far-field pyramids the engine
// has built since construction — at most one per round, and none in a
// round whose receivers all fail against their near field.
func (h *HierEngine) PyramidBuildsForTest() int64 { return h.pyramidBuilds.Load() }

// BlockOfForTest returns the receiver block of station u.
func (h *HierEngine) BlockOfForTest(u int) int { return int(h.blockOfCell(h.cellOf[u])) }

// NearCellsForTest exposes the near-field box radius in cells, the
// input of the per-cell bump count the hot-table gate compares against.
func (h *HierEngine) NearCellsForTest() int { return h.nearCells }

// ResolveDescentForTest resolves one round for the given strictly
// increasing receivers through the per-receiver descent oracle,
// serially: it brings the aggregation state up to date for tx exactly
// as Resolve does, builds the pyramid, then runs collectOne for each
// receiver. Pass every station to get the whole round. The result is
// freshly allocated.
func (h *HierEngine) ResolveDescentForTest(tx, receivers []int) []Reception {
	if len(tx) == 0 || len(receivers) == 0 {
		return nil
	}
	h.ensureRunState()
	checkReceivers(receivers, len(h.pts))
	h.checkTx(tx)
	h.prepareRound(tx)
	h.ensurePyramid()
	var out []Reception
	for _, u := range receivers {
		out = h.collectOne(u, out)
	}
	return out
}

// SetSoloMemoForTest turns the single-transmitter memo on or off for
// every round resolved afterwards, and returns the previous setting.
func SetSoloMemoForTest(on bool) (prev bool) {
	prev = !soloMemoOff
	soloMemoOff = !on
	return prev
}
