package network

import (
	"math"
	"testing"

	"sinrcast/internal/geom"
	"sinrcast/internal/rng"
	"sinrcast/internal/sinr"
)

// lineNet builds a path network with k stations spaced just inside the
// comm radius, so the communication graph is a path.
func lineNet(t *testing.T, k int) *Network {
	t.Helper()
	p := sinr.DefaultParams()
	gap := p.CommRadius() * 0.99
	coords := make([]float64, k)
	for i := range coords {
		coords[i] = float64(i) * gap
	}
	net, err := New(geom.NewLine(coords), p)
	if err != nil {
		t.Fatal(err)
	}
	return net
}

func TestNewRejectsInvalid(t *testing.T) {
	if _, err := New(geom.NewEuclidean(nil), sinr.DefaultParams()); err == nil {
		t.Fatal("want error for empty set")
	}
	bad := sinr.DefaultParams()
	bad.Alpha = 1 // below plane growth
	if _, err := New(geom.NewEuclidean([]geom.Point{{X: 0, Y: 0}}), bad); err == nil {
		t.Fatal("want error for invalid params")
	}
}

func TestPathGraphStructure(t *testing.T) {
	net := lineNet(t, 5)
	if net.N() != 5 {
		t.Fatalf("N = %d", net.N())
	}
	if net.EdgeCount() != 4 {
		t.Fatalf("EdgeCount = %d, want 4", net.EdgeCount())
	}
	if net.Degree(0) != 1 || net.Degree(2) != 2 || net.Degree(4) != 1 {
		t.Fatalf("degrees wrong: %d %d %d", net.Degree(0), net.Degree(2), net.Degree(4))
	}
	if net.MaxDegree() != 2 {
		t.Fatalf("MaxDegree = %d", net.MaxDegree())
	}
	if !net.Connected() {
		t.Fatal("path should be connected")
	}
	d, conn := net.Diameter()
	if !conn || d != 4 {
		t.Fatalf("Diameter = %d (conn=%v), want 4", d, conn)
	}
}

func TestDisconnected(t *testing.T) {
	p := sinr.DefaultParams()
	net, err := New(geom.NewLine([]float64{0, 10}), p)
	if err != nil {
		t.Fatal(err)
	}
	if net.Connected() {
		t.Fatal("should be disconnected")
	}
	if net.ComponentCount() != 2 {
		t.Fatalf("ComponentCount = %d", net.ComponentCount())
	}
	if _, conn := net.Diameter(); conn {
		t.Fatal("Diameter should report disconnected")
	}
	if sp := net.ShortestPath(0, 1); sp != nil {
		t.Fatalf("ShortestPath across components = %v", sp)
	}
}

func TestBFS(t *testing.T) {
	net := lineNet(t, 6)
	dist := net.BFS(2)
	want := []int{2, 1, 0, 1, 2, 3}
	for i := range want {
		if dist[i] != want[i] {
			t.Fatalf("BFS dist = %v, want %v", dist, want)
		}
	}
}

func TestShortestPath(t *testing.T) {
	net := lineNet(t, 5)
	sp := net.ShortestPath(0, 4)
	want := []int{0, 1, 2, 3, 4}
	if len(sp) != len(want) {
		t.Fatalf("path = %v", sp)
	}
	for i := range want {
		if sp[i] != want[i] {
			t.Fatalf("path = %v, want %v", sp, want)
		}
	}
	if sp := net.ShortestPath(3, 3); len(sp) != 1 || sp[0] != 3 {
		t.Fatalf("self path = %v", sp)
	}
}

func TestEuclideanGridBucketsMatchBruteForce(t *testing.T) {
	// Random cloud: grid-bucketed adjacency must equal the O(n²) scan.
	r := rng.New(5)
	n := 300
	pts := make([]geom.Point, n)
	for i := range pts {
		pts[i] = geom.Point{X: r.Range(0, 8), Y: r.Range(0, 8)}
	}
	p := sinr.DefaultParams()
	fast, err := New(geom.NewEuclidean(pts), p)
	if err != nil {
		t.Fatal(err)
	}
	radius := p.CommRadius()
	for i := 0; i < n; i++ {
		want := map[int32]bool{}
		for j := 0; j < n; j++ {
			if i != j && pts[i].Dist(pts[j]) <= radius {
				want[int32(j)] = true
			}
		}
		if len(want) != len(fast.Adj[i]) {
			t.Fatalf("station %d: grid degree %d, brute force %d", i, len(fast.Adj[i]), len(want))
		}
		for _, j := range fast.Adj[i] {
			if !want[j] {
				t.Fatalf("station %d: spurious edge to %d", i, j)
			}
		}
	}
}

// boundaryPoints returns points q with q.Dist2(origin) > 1 but
// q.Dist(origin) == 1: the pairs where the squared-distance test and
// the exact metric test disagree.
func boundaryPoints(t *testing.T, want int) []geom.Point {
	t.Helper()
	var out []geom.Point
	for k := 0; len(out) < want && k < 100000; k++ {
		x := 0.3 + float64(k)*1e-5
		y := math.Sqrt(1 - x*x)
		for step := 0; step < 8; step++ {
			q := geom.Point{X: x, Y: y}
			if q.Dist2(geom.Point{}) > 1 && q.Dist(geom.Point{}) <= 1 {
				out = append(out, q)
				break
			}
			y = math.Nextafter(y, 2)
		}
	}
	if len(out) < want {
		t.Fatalf("found %d boundary points, want %d", len(out), want)
	}
	return out
}

func TestBallsMatchPairwiseDist(t *testing.T) {
	r := rng.New(7)
	pts := []geom.Point{{}}
	pts = append(pts, boundaryPoints(t, 4)...)
	for len(pts) < 200 {
		pts = append(pts, geom.Point{X: r.Range(0, 6), Y: r.Range(0, 6)})
	}
	coords := make([]float64, 40)
	for i := range coords {
		coords[i] = r.Range(0, 12)
	}
	p := sinr.DefaultParams()
	for _, s := range []geom.Space{geom.NewEuclidean(pts), geom.NewEuclidean(pts[:40]), geom.NewLine(coords)} {
		net, err := New(s, p)
		if err != nil {
			t.Fatal(err)
		}
		balls := net.Balls(1)
		for i := 0; i < s.Len(); i++ {
			want := map[int32]bool{}
			for j := 0; j < s.Len(); j++ {
				if i != j && s.Dist(i, j) <= 1 {
					want[int32(j)] = true
				}
			}
			if len(want) != len(balls[i]) {
				t.Fatalf("n=%d station %d: ball size %d, pairwise scan %d", s.Len(), i, len(balls[i]), len(want))
			}
			for _, j := range balls[i] {
				if !want[j] {
					t.Fatalf("n=%d station %d: spurious ball member %d", s.Len(), i, j)
				}
			}
		}
	}
}

func TestGranularity(t *testing.T) {
	p := sinr.DefaultParams()
	// Edges of length 0.1 and 0.5 -> Rs = 5.
	net, err := New(geom.NewLine([]float64{0, 0.1, 0.6}), p)
	if err != nil {
		t.Fatal(err)
	}
	if rs := net.Granularity(); math.Abs(rs-6) > 1e-9 {
		// Edges: (0,1)=0.1, (1,2)=0.5, (0,2)=0.6 <= 2/3 also an edge.
		t.Fatalf("Granularity = %v, want 6", rs)
	}
	// Single station: no edges.
	net1, err := New(geom.NewLine([]float64{0}), p)
	if err != nil {
		t.Fatal(err)
	}
	if rs := net1.Granularity(); rs != 1 {
		t.Fatalf("Granularity singleton = %v", rs)
	}
}

func TestExponentialChainGranularity(t *testing.T) {
	// The paper's footnote-2 network: dist(x_i, x_{i+1}) = 1/2^i.
	// Granularity grows exponentially with n.
	k := 12
	coords := make([]float64, k)
	pos := 0.0
	for i := 1; i < k; i++ {
		pos += math.Pow(2, -float64(i))
		coords[i] = pos
	}
	net, err := New(geom.NewLine(coords), sinr.DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	if !net.Connected() {
		t.Fatal("chain should be connected")
	}
	if rs := net.Granularity(); rs < math.Pow(2, float64(k-3)) {
		t.Fatalf("Granularity = %v, want exponential in n", rs)
	}
}

func TestDiameterApprox(t *testing.T) {
	net := lineNet(t, 20)
	d, conn := net.DiameterApprox()
	if !conn {
		t.Fatal("approx reported disconnected on a path")
	}
	exact, _ := net.Diameter()
	if d < exact/2 || d > exact {
		t.Fatalf("DiameterApprox = %d, exact %d", d, exact)
	}
	// Double sweep is exact on paths (trees).
	if d != exact {
		t.Fatalf("double sweep should be exact on a path: %d vs %d", d, exact)
	}
}

func TestEccentricity(t *testing.T) {
	net := lineNet(t, 7)
	ecc, conn := net.Eccentricity(3)
	if !conn || ecc != 3 {
		t.Fatalf("Eccentricity(3) = %d conn=%v", ecc, conn)
	}
	ecc, conn = net.Eccentricity(0)
	if !conn || ecc != 6 {
		t.Fatalf("Eccentricity(0) = %d conn=%v", ecc, conn)
	}
}

func TestNeighborsSymmetric(t *testing.T) {
	r := rng.New(21)
	pts := make([]geom.Point, 150)
	for i := range pts {
		pts[i] = geom.Point{X: r.Range(0, 5), Y: r.Range(0, 5)}
	}
	net, err := New(geom.NewEuclidean(pts), sinr.DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	adjSet := make([]map[int32]bool, net.N())
	for i := range adjSet {
		adjSet[i] = map[int32]bool{}
		for _, j := range net.Adj[i] {
			if int(j) == i {
				t.Fatalf("self-loop at %d", i)
			}
			adjSet[i][j] = true
		}
	}
	for i := range adjSet {
		for j := range adjSet[i] {
			if !adjSet[j][int32(i)] {
				t.Fatalf("edge (%d,%d) not symmetric", i, j)
			}
		}
	}
}
