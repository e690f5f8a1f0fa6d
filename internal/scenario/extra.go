package scenario

import (
	"fmt"
	"math"

	"sinrcast/internal/geom"
	"sinrcast/internal/network"
	"sinrcast/internal/registry"
)

// This file registers the families added with the registry: geometries
// probing the density/percolation and clustering regimes of the related
// work — annulus rings, dumbbells with a thin bridge, perforated grids,
// density-gradient strips, and stars of clusters.

func init() {
	Register(Family{
		Name: "annulus",
		Doc:  "n stations area-uniform in a ring sized for the target density; shrinks the ring until connected",
		Params: []Param{
			nParam(128),
			{Name: "density", Doc: "target stations per communication ball", Default: 8, Min: 0, Max: inf},
			{Name: "thickness", Doc: "ring width as a fraction of its mean radius, in (0,2)", Default: 0.5, Min: 0, Max: 2},
		},
		Build: buildAnnulus,
	})
	Register(Family{
		Name: "dumbbell",
		Doc:  "two uniform-disc blobs joined by a thin single-station-wide bridge; shrinks the blobs until connected",
		Params: []Param{
			nParam(96),
			{Name: "radius", Doc: "blob radius (≤ comm radius)", Default: 0.3, Min: 0, Max: inf},
			{Name: "bridge", Doc: "center-to-center bridge length in comm radii", Default: 3, Min: 0, Max: inf},
		},
		Build: buildDumbbell,
	})
	Register(Family{
		Name: "gridholes",
		Doc:  "lattice with a periodic pattern of square holes (~25% carved); stays connected by construction",
		Params: []Param{
			{Name: "n", Doc: "approximate station count after carving", Default: 128, Min: 1, Max: inf, Int: true},
			{Name: "spacing", Doc: "lattice spacing (≤ comm radius)", Default: 0.3, Min: 0, Max: inf},
			{Name: "hole", Doc: "hole side length in cells", Default: 2, Min: 1, Max: inf, Int: true},
		},
		Build: buildGridHoles,
	})
	Register(Family{
		Name: "gradient",
		Doc:  "strip one comm-radius tall whose station density ramps linearly along its length; shrinks until connected",
		Params: []Param{
			nParam(128),
			{Name: "density", Doc: "mean stations per communication ball", Default: 8, Min: 0, Max: inf},
			{Name: "grad", Doc: "density ratio between the dense and sparse ends (≥1)", Default: 8, Min: 1, Max: inf},
		},
		Build: buildGradient,
	})
	Register(Family{
		Name: "starclusters",
		Doc:  "hub cluster with radial arms, each a relay chain ending in its own cluster; connected by construction",
		Params: []Param{
			{Name: "arms", Doc: "number of radial arms", Default: 5, Min: 1, Max: inf, Int: true},
			{Name: "m", Doc: "stations per cluster (hub and arm ends)", Default: 12, Min: 1, Max: inf, Int: true},
			{Name: "hops", Doc: "relay stations per arm", Default: 3, Min: 0, Max: inf, Int: true},
			{Name: "radius", Doc: "cluster radius (≤ commRadius/2)", Default: 0.1, Min: 0, Max: inf},
		},
		ForN: func(n int) map[string]float64 {
			// n = m·(arms+1) + arms·hops with arms=5, hops=3.
			m := (n - 5*3) / (5 + 1)
			if m < 1 {
				m = 1
			}
			return map[string]float64{"arms": 5, "m": float64(m), "hops": 3}
		},
		Build: buildStarClusters,
	})
}

func buildAnnulus(b Build) (*network.Network, error) {
	n, density, t := b.Int("n"), b.Float("density"), b.Float("thickness")
	if density <= 0 {
		return nil, registry.SpecErrorf("scenario: annulus: density %v must be positive", density)
	}
	if t <= 0 || t >= 2 {
		return nil, registry.SpecErrorf("scenario: annulus: thickness %v must be in (0,2)", t)
	}
	r := b.Rng()
	rad := b.Phys.CommRadius()
	// Ring area matching the density target: area = n·π·rad²/density;
	// with inner/outer radii Rm(1∓t/2) the area is 2π·t·Rm².
	area := float64(n) * math.Pi * rad * rad / density
	mean := math.Sqrt(area / (2 * math.Pi * t))
	for attempt := 0; attempt < maxAttempts; attempt++ {
		in, out := mean*(1-t/2), mean*(1+t/2)
		in2, out2 := in*in, out*out
		pts := make([]geom.Point, n)
		for i := range pts {
			ang := r.Range(0, 2*math.Pi)
			// Area-uniform radial coordinate: r² uniform in [in², out²].
			radial := math.Sqrt(in2 + r.Float64()*(out2-in2))
			pts[i] = geom.Point{X: radial * math.Cos(ang), Y: radial * math.Sin(ang)}
		}
		net, err := network.New(geom.NewEuclidean(pts), b.Phys)
		if err != nil {
			return nil, err
		}
		if net.Connected() {
			net.Meta = map[string]float64{"attempts": float64(attempt + 1), "meanradius": mean}
			return net, nil
		}
		mean *= 0.92 // densify and retry
	}
	return nil, fmt.Errorf("scenario: annulus: no connected deployment after %d attempts (n=%d, final mean radius=%.4g)",
		maxAttempts, n, mean)
}

func buildDumbbell(b Build) (*network.Network, error) {
	n, radius, bridge := b.Int("n"), b.Float("radius"), b.Float("bridge")
	rc := b.Phys.CommRadius()
	if radius <= 0 || radius > rc {
		return nil, registry.SpecErrorf("scenario: dumbbell: radius %v must be in (0, %v]", radius, rc)
	}
	if bridge <= 0 {
		return nil, registry.SpecErrorf("scenario: dumbbell: bridge %v must be positive", bridge)
	}
	bridgeLen := bridge * rc
	// Interior relay stations spaced ≤ 0.9·rc keep the bridge connected.
	hops := int(math.Ceil(bridgeLen/(0.9*rc))) - 1
	if hops < 0 {
		hops = 0
	}
	if n < hops+2 {
		return nil, registry.SpecErrorf("scenario: dumbbell: n=%d too small for a bridge of %d relays plus two blobs", n, hops)
	}
	blob := n - hops
	left, right := blob/2, blob-blob/2
	r := b.Rng()
	for attempt := 0; attempt < maxAttempts; attempt++ {
		pts := make([]geom.Point, 0, n)
		pts = discCluster(r, pts, 0, 0, radius, left)
		pts = discCluster(r, pts, bridgeLen, 0, radius, right)
		for h := 1; h <= hops; h++ {
			pts = append(pts, geom.Point{X: bridgeLen * float64(h) / float64(hops+1), Y: 0})
		}
		net, err := network.New(geom.NewEuclidean(pts), b.Phys)
		if err != nil {
			return nil, err
		}
		if net.Connected() {
			net.Meta = map[string]float64{"attempts": float64(attempt + 1), "radius": radius}
			return net, nil
		}
		radius *= 0.9 // densify the blobs and retry
	}
	return nil, fmt.Errorf("scenario: dumbbell: no connected deployment after %d attempts (n=%d, final radius=%.4g)",
		maxAttempts, n, radius)
}

func buildGridHoles(b Build) (*network.Network, error) {
	n, spacing, hole := b.Int("n"), b.Float("spacing"), b.Int("hole")
	if spacing <= 0 || spacing > b.Phys.CommRadius() {
		return nil, registry.SpecErrorf("scenario: gridholes: spacing %v must be in (0, %v]", spacing, b.Phys.CommRadius())
	}
	// Holes are h×h blocks tiled with period 2h: cells with both
	// coordinates mod 2h below h are carved, removing 1/4 of the
	// lattice. Rows and columns with index mod 2h ≥ h stay complete, so
	// the remainder is connected whenever spacing ≤ comm radius.
	cols := int(math.Ceil(math.Sqrt(float64(n) / 0.75)))
	if cols < 2*hole {
		return nil, registry.SpecErrorf("scenario: gridholes: hole=%d too large for n=%d (the %d×%d lattice needs ≥ %d columns)",
			hole, n, cols, cols, 2*hole)
	}
	pts := make([]geom.Point, 0, n)
	for y := 0; y < cols; y++ {
		for x := 0; x < cols; x++ {
			if x%(2*hole) < hole && y%(2*hole) < hole {
				continue
			}
			pts = append(pts, geom.Point{X: float64(x) * spacing, Y: float64(y) * spacing})
		}
	}
	net, err := network.New(geom.NewEuclidean(pts), b.Phys)
	if err != nil {
		return nil, err
	}
	if !net.Connected() {
		return nil, fmt.Errorf("scenario: gridholes: carved lattice disconnected (cols=%d, hole=%d)", cols, hole)
	}
	return net, nil
}

func buildGradient(b Build) (*network.Network, error) {
	n, density, grad := b.Int("n"), b.Float("density"), b.Float("grad")
	if density <= 0 {
		return nil, registry.SpecErrorf("scenario: gradient: density %v must be positive", density)
	}
	if grad < 1 {
		return nil, registry.SpecErrorf("scenario: gradient: grad %v must be ≥ 1", grad)
	}
	r := b.Rng()
	rc := b.Phys.CommRadius()
	height := rc
	length := float64(n) * math.Pi * rc * rc / (density * height)
	for attempt := 0; attempt < maxAttempts; attempt++ {
		pts := make([]geom.Point, n)
		for i := range pts {
			// Longitudinal coordinate with density ∝ 1+(grad-1)·t: invert
			// the quadratic CDF (t + (grad-1)·t²/2) / (1 + (grad-1)/2).
			u := r.Float64()
			t := u
			if grad > 1 {
				g := grad - 1
				t = (math.Sqrt(1+2*g*u*(1+g/2)) - 1) / g
			}
			pts[i] = geom.Point{X: t * length, Y: r.Range(0, height)}
		}
		net, err := network.New(geom.NewEuclidean(pts), b.Phys)
		if err != nil {
			return nil, err
		}
		if net.Connected() {
			net.Meta = map[string]float64{"attempts": float64(attempt + 1), "length": length}
			return net, nil
		}
		length *= 0.92 // densify and retry
	}
	return nil, fmt.Errorf("scenario: gradient: no connected deployment after %d attempts (n=%d, final length=%.4g)",
		maxAttempts, n, length)
}

func buildStarClusters(b Build) (*network.Network, error) {
	arms, m, hops, radius := b.Int("arms"), b.Int("m"), b.Int("hops"), b.Float("radius")
	rc := b.Phys.CommRadius()
	if radius <= 0 || radius > rc/2 {
		return nil, registry.SpecErrorf("scenario: starclusters: radius %v must be in (0, %v]", radius, rc/2)
	}
	r := b.Rng()
	// Every cluster anchors its first station exactly at its center, so
	// cluster members (within radius ≤ rc/2 of the center) and the
	// relay chains (spaced 0.9·rc) are connected by construction.
	pts := make([]geom.Point, 0, m*(arms+1)+arms*hops)
	pts = discCluster(r, pts, 0, 0, radius, m)
	step := 0.9 * rc
	for a := 0; a < arms; a++ {
		ang := 2 * math.Pi * float64(a) / float64(arms)
		dx, dy := math.Cos(ang), math.Sin(ang)
		for h := 1; h <= hops; h++ {
			pts = append(pts, geom.Point{X: float64(h) * step * dx, Y: float64(h) * step * dy})
		}
		end := float64(hops+1) * step
		pts = discCluster(r, pts, end*dx, end*dy, radius, m)
	}
	net, err := network.New(geom.NewEuclidean(pts), b.Phys)
	if err != nil {
		return nil, err
	}
	if !net.Connected() {
		return nil, fmt.Errorf("scenario: starclusters: star disconnected (arms=%d, hops=%d)", arms, hops)
	}
	return net, nil
}
