package sinr

import (
	"fmt"
	"math"

	"sinrcast/internal/geom"
)

// Resolver is the full physical-layer capability set every engine in
// this package implements: whole-round resolution, subset resolution
// (byte-identical to a filtered Resolve — see each engine's ResolveFor),
// and parallel-runtime control. It is what AutoEngine returns;
// sim.Engine accepts any Resolver (its own interface is a subset of
// this one).
type Resolver interface {
	// Resolve computes all receptions of one round.
	Resolve(tx []int) []Reception
	// ResolveFor computes the receptions of the strictly increasing
	// receiver subset, byte-identical to a filtered Resolve.
	ResolveFor(tx []int, receivers []int) []Reception
	// N returns the number of stations.
	N() int
	// Params returns the physical parameters.
	Params() Params
	// SetWorkers bounds round-chunking concurrency (≤ 0 = GOMAXPROCS).
	SetWorkers(w int)
}

var (
	_ Resolver = (*Engine)(nil)
	_ Resolver = (*GridEngine)(nil)
	_ Resolver = (*HierEngine)(nil)
)

// ResolverFor is the subset-resolution capability alone, for callers
// that hold an engine behind a narrower interface and want to
// type-assert just this.
type ResolverFor interface {
	ResolveFor(tx []int, receivers []int) []Reception
}

// Accuracy is the error budget AutoEngine may trade for speed.
type Accuracy int

const (
	// AccuracyExact always selects the exact Engine.
	AccuracyExact Accuracy = iota
	// AccuracyBalanced keeps the exact engine up to a few thousand
	// stations and approximates beyond — the default for large-n
	// experiments.
	AccuracyBalanced
	// AccuracyFast approximates aggressively (from 512 stations instead
	// of 4096); for throughput studies where the far-field tail is noise.
	AccuracyFast
)

// EngineKind names an engine implementation.
type EngineKind string

const (
	KindExact EngineKind = "exact"
	KindGrid  EngineKind = "grid"
	KindHier  EngineKind = "hier"
)

// Choose returns the engine kind AutoEngine builds for the given space,
// parameters and accuracy: KindExact or KindHier, nothing else.
//
//   - non-Euclidean spaces and AccuracyExact always resolve exactly
//     (the hierarchy needs planar cell geometry);
//   - α close to the growth degree keeps the exact engine too — the
//     far-field interference sum barely converges there, so aggregation
//     error is not dominated by the tail;
//   - otherwise n below the approximation threshold (4096 Balanced, 512
//     Fast) stays exact (fast enough, and the paper's model), and every
//     larger n takes the hierarchy.
//
// GridEngine is not a tier: measured on a 2-vCPU Xeon, median decay
// flood time grid / hier / exact was 9.7 / 3.5 / 4.0 ms at n=512,
// 251 / 83 / 156 ms at n=4096 and 2430 / 414 / 2282 ms at n=16384, and
// at n=4096 the grid disagrees with exact on up to 4.7e-3 of receptions
// per family against hier's 1.1e-4 (TestHierMidBandBeatsGrid). It stays
// reachable by the name "grid" as a reference.
func Choose(s geom.Space, p Params, acc Accuracy) EngineKind {
	if _, ok := s.(*geom.Euclidean); !ok || acc == AccuracyExact {
		return KindExact
	}
	approxMin := 4096
	if acc == AccuracyFast {
		approxMin = 512
	}
	if p.Alpha <= s.Growth()+0.5 || s.Len() < approxMin {
		return KindExact
	}
	return KindHier
}

// AutoEngine builds the engine Choose selects, with the package default
// geometry (DefaultCellSize, DefaultNearRadius, DefaultTheta) for the
// approximate kinds.
func AutoEngine(s geom.Space, p Params, acc Accuracy) (Resolver, error) {
	return build(Choose(s, p, acc), s, p)
}

// NewNamedEngine builds an engine by name: "exact", "grid", "hier", or
// "auto" (= AutoEngine at AccuracyBalanced). It is the single mapping
// behind every -engine CLI flag. "grid" and "hier" require a Euclidean
// space; "auto" falls back to exact on any other metric.
func NewNamedEngine(name string, s geom.Space, p Params) (Resolver, error) {
	switch name {
	case "auto":
		return AutoEngine(s, p, AccuracyBalanced)
	case string(KindExact), string(KindGrid), string(KindHier):
		return build(EngineKind(name), s, p)
	default:
		return nil, fmt.Errorf("sinr: unknown engine %q (want exact, grid, hier or auto)", name)
	}
}

// build constructs one concrete engine kind. The approximate kinds use
// the default geometry with the cell size scaled up (power-of-two
// steps) until the grid fits the cell budget — a sparse deployment
// with a huge bounding box (long relay arms, corridor chains) is a
// legitimate input here, not the pathology the budget guards against;
// the explicit constructors still take their cellSize literally.
func build(kind EngineKind, s geom.Space, p Params) (Resolver, error) {
	switch kind {
	case KindExact:
		return NewEngine(s, p)
	case KindGrid, KindHier:
		eu, ok := s.(*geom.Euclidean)
		if !ok {
			return nil, fmt.Errorf("sinr: the %s engine needs a Euclidean space (got %T); use the exact engine", kind, s)
		}
		cell := fitCellSize(eu.Pts)
		if kind == KindGrid {
			return NewGridEngine(eu, p, cell, DefaultNearRadius)
		}
		return NewHierEngine(eu, p, cell, DefaultNearRadius, DefaultTheta)
	default:
		return nil, fmt.Errorf("sinr: unknown engine kind %q", kind)
	}
}

// fitCellSize returns DefaultCellSize doubled until the deployment's
// bounding box fits the gridDims cell budget (same arithmetic, so the
// constructors are guaranteed to accept the result). Coarser cells
// trade a little far-field accuracy in sparse regions for not
// allocating millions of empty buckets.
func fitCellSize(pts []geom.Point) float64 {
	minX, minY := math.Inf(1), math.Inf(1)
	maxX, maxY := math.Inf(-1), math.Inf(-1)
	for _, q := range pts {
		minX = math.Min(minX, q.X)
		minY = math.Min(minY, q.Y)
		maxX = math.Max(maxX, q.X)
		maxY = math.Max(maxY, q.Y)
	}
	limit := cellBudget(len(pts))
	cell := DefaultCellSize
	for i := 0; i < 64; i++ {
		cols := math.Floor((maxX-minX)/cell) + 1
		rows := math.Floor((maxY-minY)/cell) + 1
		if cols*rows <= limit {
			break
		}
		cell *= 2
	}
	return cell
}
