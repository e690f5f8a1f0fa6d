package scenario

import (
	"fmt"
	"math"

	"sinrcast/internal/geom"
	"sinrcast/internal/network"
	"sinrcast/internal/registry"
	"sinrcast/internal/rng"
)

// This file registers the original eight families. Their sampling code
// predates the registry and is kept byte for byte, so networks match
// the pre-registry generators for the same (Params, Seed) — the
// experiment tables E1–E11 pin this down.

const maxAttempts = 40 // connectivity-retry budget of densifying generators

var inf = math.Inf(1)

func nParam(def int) Param {
	return Param{Name: "n", Doc: "station count", Default: float64(def), Min: 1, Max: inf, Int: true}
}

func init() {
	Register(Family{
		Name: "uniform",
		Doc:  "n stations uniform in a square sized for the target mean density; densifies until connected",
		Params: []Param{
			nParam(128),
			{Name: "density", Doc: "target stations per communication ball", Default: 8, Min: 0, Max: inf},
		},
		Build: buildUniform,
	})
	Register(Family{
		Name: "grid",
		Doc:  "√n×√n lattice at fixed spacing (must be ≤ comm radius)",
		Params: []Param{
			nParam(128),
			{Name: "spacing", Doc: "lattice spacing", Default: 0.3, Min: 0, Max: inf},
		},
		Build: buildGrid,
	})
	Register(Family{
		Name: "path",
		Doc:  "n stations on a line at uniform gap frac·commRadius; diameter ~n·frac",
		Params: []Param{
			nParam(64),
			{Name: "frac", Doc: "gap as fraction of comm radius", Default: 0.9, Min: 0, Max: 1},
		},
		Build: buildPath,
	})
	Register(Family{
		Name: "expchain",
		Doc:  "footnote-2 worst case: line gaps shrink by ratio each hop, granularity Rs = ratio^-n at D=O(1)",
		Params: []Param{
			nParam(32),
			{Name: "first", Doc: "first gap (≤ comm radius)", Default: 0.5, Min: 0, Max: inf},
			{Name: "ratio", Doc: "gap shrink ratio in (0,1)", Default: 0.6, Min: 0, Max: 1},
		},
		Build: buildExpChain,
	})
	Register(Family{
		Name: "clusters",
		Doc:  "k dense clusters of m stations bridged along a line; per-ball densities differ by orders of magnitude",
		Params: []Param{
			{Name: "k", Doc: "cluster count", Default: 4, Min: 1, Max: inf, Int: true},
			{Name: "m", Doc: "stations per cluster", Default: 24, Min: 1, Max: inf, Int: true},
			{Name: "radius", Doc: "cluster radius (≤ commRadius/2)", Default: 0.08, Min: 0, Max: inf},
			{Name: "gap", Doc: "hub-to-hub bridge gap (≤ comm radius)", Default: 0.6, Min: 0, Max: inf},
		},
		ForN: func(n int) map[string]float64 {
			m := n / 4
			if m < 1 {
				m = 1
			}
			return map[string]float64{"k": 4, "m": float64(m)}
		},
		Build: buildClusters,
	})
	Register(Family{
		Name: "gaussian",
		Doc:  "n stations in a 2D gaussian blob; shrinks sigma until connected",
		Params: []Param{
			nParam(128),
			{Name: "sigma", Doc: "standard deviation", Default: 1.5, Min: 0, Max: inf},
		},
		Build: buildGaussian,
	})
	Register(Family{
		Name: "corridor",
		Doc:  "random-walk snake: each station a uniform step from the previous, large meandering diameter",
		Params: []Param{
			nParam(96),
			{Name: "step", Doc: "walk step (≤ comm radius)", Default: 0.5, Min: 0, Max: inf},
		},
		Build: buildCorridor,
	})
	Register(Family{
		Name: "clusteredpath",
		Doc:  "fixed-diameter path with an exponential cluster at one end: ratio controls Rs while D stays put (E6)",
		Params: []Param{
			{Name: "pathlen", Doc: "path station count (fixes D)", Default: 12, Min: 2, Max: inf, Int: true},
			{Name: "cluster", Doc: "exponential-cluster station count", Default: 20, Min: 1, Max: inf, Int: true},
			{Name: "ratio", Doc: "cluster gap shrink ratio in (0,1)", Default: 0.6, Min: 0, Max: 1},
		},
		ForN: func(n int) map[string]float64 {
			pathLen := n * 12 / 32
			if pathLen < 2 {
				pathLen = 2
			}
			cluster := n - pathLen
			if cluster < 1 {
				cluster = 1
			}
			return map[string]float64{"pathlen": float64(pathLen), "cluster": float64(cluster)}
		},
		Build: buildClusteredPath,
	})
}

func buildUniform(b Build) (*network.Network, error) {
	n, density := b.Int("n"), b.Float("density")
	if density <= 0 {
		return nil, registry.SpecErrorf("scenario: uniform: density %v must be positive", density)
	}
	r := b.Rng()
	// side chosen so that n stations give ~density stations per ball of
	// comm radius: n·π·rad² / side² = density.
	rad := b.Phys.CommRadius()
	side := math.Sqrt(float64(n) * math.Pi * rad * rad / density)
	for attempt := 0; attempt < maxAttempts; attempt++ {
		pts := make([]geom.Point, n)
		for i := range pts {
			pts[i] = geom.Point{X: r.Range(0, side), Y: r.Range(0, side)}
		}
		net, err := network.New(geom.NewEuclidean(pts), b.Phys)
		if err != nil {
			return nil, err
		}
		if net.Connected() {
			net.Meta = map[string]float64{"attempts": float64(attempt + 1), "side": side}
			return net, nil
		}
		side *= 0.92 // densify and retry
	}
	return nil, fmt.Errorf("scenario: uniform: no connected deployment after %d attempts (n=%d, final side=%.4g)",
		maxAttempts, n, side)
}

func buildGrid(b Build) (*network.Network, error) {
	n, spacing := b.Int("n"), b.Float("spacing")
	if spacing <= 0 || spacing > b.Phys.CommRadius() {
		return nil, registry.SpecErrorf("scenario: grid: spacing %v must be in (0, %v]", spacing, b.Phys.CommRadius())
	}
	cols := int(math.Ceil(math.Sqrt(float64(n))))
	pts := make([]geom.Point, 0, n)
	for i := 0; i < n; i++ {
		pts = append(pts, geom.Point{
			X: float64(i%cols) * spacing,
			Y: float64(i/cols) * spacing,
		})
	}
	return network.New(geom.NewEuclidean(pts), b.Phys)
}

func buildPath(b Build) (*network.Network, error) {
	n, fraction := b.Int("n"), b.Float("frac")
	if fraction <= 0 || fraction > 1 {
		return nil, registry.SpecErrorf("scenario: path: fraction %v must be in (0,1]", fraction)
	}
	gap := b.Phys.CommRadius() * fraction
	coords := make([]float64, n)
	for i := range coords {
		coords[i] = float64(i) * gap
	}
	return network.New(geom.NewLine(coords), b.Phys)
}

func buildExpChain(b Build) (*network.Network, error) {
	n, first, ratio := b.Int("n"), b.Float("first"), b.Float("ratio")
	if ratio <= 0 || ratio >= 1 {
		return nil, registry.SpecErrorf("scenario: expchain: ratio %v must be in (0,1)", ratio)
	}
	if first <= 0 || first > b.Phys.CommRadius() {
		return nil, registry.SpecErrorf("scenario: expchain: first gap %v must be in (0, %v]", first, b.Phys.CommRadius())
	}
	coords := make([]float64, n)
	gap := first
	for i := 1; i < n; i++ {
		coords[i] = coords[i-1] + gap
		gap *= ratio
		// Clamp to avoid denormal-gap pathologies in float math while
		// preserving exponential granularity.
		if gap < 1e-12 {
			gap = 1e-12
		}
	}
	return network.New(geom.NewLine(coords), b.Phys)
}

func buildClusters(b Build) (*network.Network, error) {
	k, m := b.Int("k"), b.Int("m")
	clusterRadius, bridgeGap := b.Float("radius"), b.Float("gap")
	if clusterRadius <= 0 || clusterRadius > b.Phys.CommRadius()/2 {
		return nil, registry.SpecErrorf("scenario: clusters: radius %v out of range (0, %v]", clusterRadius, b.Phys.CommRadius()/2)
	}
	if bridgeGap <= 0 || bridgeGap > b.Phys.CommRadius() {
		return nil, registry.SpecErrorf("scenario: clusters: gap %v out of range (0, %v]", bridgeGap, b.Phys.CommRadius())
	}
	r := b.Rng()
	pts := make([]geom.Point, 0, k*m)
	for c := 0; c < k; c++ {
		// First station of each cluster sits exactly at the hub so
		// consecutive hubs are adjacent.
		pts = discCluster(r, pts, float64(c)*bridgeGap, 0, clusterRadius, m)
	}
	return network.New(geom.NewEuclidean(pts), b.Phys)
}

// discCluster appends a cluster of count stations anchored at (cx,cy):
// the first exactly at the center (so bridges and relay chains stay
// connected through it), the rest area-uniform within radius. Shared
// by the clusters, dumbbell and starclusters builders so their
// sampling schemes cannot drift apart.
func discCluster(r *rng.Source, pts []geom.Point, cx, cy, radius float64, count int) []geom.Point {
	pts = append(pts, geom.Point{X: cx, Y: cy})
	for s := 1; s < count; s++ {
		ang := r.Range(0, 2*math.Pi)
		rad := radius * math.Sqrt(r.Float64())
		pts = append(pts, geom.Point{X: cx + rad*math.Cos(ang), Y: cy + rad*math.Sin(ang)})
	}
	return pts
}

func buildGaussian(b Build) (*network.Network, error) {
	n, sigma := b.Int("n"), b.Float("sigma")
	if sigma <= 0 {
		return nil, registry.SpecErrorf("scenario: gaussian: sigma %v must be positive", sigma)
	}
	r := b.Rng()
	for attempt := 0; attempt < maxAttempts; attempt++ {
		pts := make([]geom.Point, n)
		for i := range pts {
			pts[i] = geom.Point{X: sigma * r.NormFloat64(), Y: sigma * r.NormFloat64()}
		}
		net, err := network.New(geom.NewEuclidean(pts), b.Phys)
		if err != nil {
			return nil, err
		}
		if net.Connected() {
			net.Meta = map[string]float64{"attempts": float64(attempt + 1), "sigma": sigma}
			return net, nil
		}
		sigma *= 0.9
	}
	return nil, fmt.Errorf("scenario: gaussian: no connected deployment after %d attempts (n=%d, final sigma=%.4g)",
		maxAttempts, n, sigma)
}

func buildCorridor(b Build) (*network.Network, error) {
	n, step := b.Int("n"), b.Float("step")
	if step <= 0 || step > b.Phys.CommRadius() {
		return nil, registry.SpecErrorf("scenario: corridor: step %v out of (0, comm radius]", step)
	}
	r := b.Rng()
	pts := make([]geom.Point, n)
	heading := 0.0
	for i := 1; i < n; i++ {
		heading += r.Range(-0.5, 0.5)
		pts[i] = geom.Point{
			X: pts[i-1].X + step*math.Cos(heading),
			Y: pts[i-1].Y + step*math.Sin(heading),
		}
	}
	return network.New(geom.NewEuclidean(pts), b.Phys)
}

func buildClusteredPath(b Build) (*network.Network, error) {
	pathLen, clusterSize, ratio := b.Int("pathlen"), b.Int("cluster"), b.Float("ratio")
	if ratio <= 0 || ratio >= 1 {
		return nil, registry.SpecErrorf("scenario: clusteredpath: ratio %v must be in (0,1)", ratio)
	}
	gap := b.Phys.CommRadius() * 0.9
	coords := make([]float64, 0, pathLen+clusterSize)
	for i := 0; i < pathLen; i++ {
		coords = append(coords, float64(i)*gap)
	}
	// The cluster hangs off station 0 toward negative coordinates, well
	// within one communication ball.
	cgap := b.Phys.CommRadius() / 8
	pos := 0.0
	for i := 0; i < clusterSize; i++ {
		pos -= cgap
		coords = append(coords, pos)
		cgap *= ratio
		if cgap < 1e-12 {
			cgap = 1e-12
		}
	}
	return network.New(geom.NewLine(coords), b.Phys)
}
