package sinr

// Engine cloning: every engine in this package splits into an immutable
// topology half (positions, kernels, cell CSR, block structure — see
// engineTopo, gridTopo, hierTopo) and a mutable per-run half (scratch,
// pyramid aggregates, caches, runner). Clone shares the former and
// allocates the latter, so getting a second engine over the same
// deployment costs allocations only — no bounding-box scan, no cell
// assignment, no CSR counting sorts. E14 (internal/exp) pays one
// topology construction per data point and clones it for each trial;
// sinrcastd's warm cache (internal/serve) clones a cached prototype
// for each request.

// CloneResolver clones r when it is one of this package's engines,
// sharing its immutable topology. It returns (nil, false) for anything
// else — in particular the wrapper channels (FadingEngine,
// WeakDeviceEngine), which own RNG or filter state that must stay
// per-trial, and foreign resolvers this package knows nothing about.
// Callers fall back to a fresh construction in that case.
func CloneResolver(r any) (Resolver, bool) {
	switch e := r.(type) {
	case *Engine:
		return e.Clone(), true
	case *GridEngine:
		return e.Clone(), true
	case *HierEngine:
		return e.Clone(), true
	}
	return nil, false
}
