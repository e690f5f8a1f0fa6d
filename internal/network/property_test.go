package network

import (
	"testing"
	"testing/quick"

	"sinrcast/internal/geom"
	"sinrcast/internal/rng"
	"sinrcast/internal/sinr"
)

func randomNet(t testing.TB, seed uint64, n int, side float64) *Network {
	t.Helper()
	r := rng.New(seed)
	pts := make([]geom.Point, n)
	for i := range pts {
		pts[i] = geom.Point{X: r.Range(0, side), Y: r.Range(0, side)}
	}
	net, err := New(geom.NewEuclidean(pts), sinr.DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	return net
}

func TestPropertyBFSEdgesDifferByAtMostOne(t *testing.T) {
	// For every edge (u,v), |dist(u)-dist(v)| <= 1 for any BFS source.
	if err := quick.Check(func(seed uint16) bool {
		net := randomNet(t, uint64(seed)+3, 24, 3)
		dist := net.BFS(0)
		for u := 0; u < net.N(); u++ {
			for _, v := range net.Adj[u] {
				du, dv := dist[u], dist[int(v)]
				if du < 0 || dv < 0 {
					if du >= 0 || dv >= 0 {
						return false // connected to a reached vertex but unreached
					}
					continue
				}
				if du-dv > 1 || dv-du > 1 {
					return false
				}
			}
		}
		return true
	}, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestPropertyDiameterBounds(t *testing.T) {
	// ecc(0) <= D <= 2·ecc(0) for connected graphs; DiameterApprox in
	// [D/2, D].
	if err := quick.Check(func(seed uint16) bool {
		net := randomNet(t, uint64(seed)+17, 20, 2)
		if !net.Connected() {
			return true // skip
		}
		ecc, _ := net.Eccentricity(0)
		d, _ := net.Diameter()
		if d < ecc || d > 2*ecc {
			return false
		}
		ad, _ := net.DiameterApprox()
		return ad >= d/2 && ad <= d
	}, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// TestPropertyDiameterIsMaxEccentricity pins Diameter's shared-buffer
// sweep to the per-source definition, on connected and disconnected
// graphs alike, and checks it allocates its two buffers once rather
// than per source.
func TestPropertyDiameterIsMaxEccentricity(t *testing.T) {
	if err := quick.Check(func(seed uint16) bool {
		net := randomNet(t, uint64(seed)+41, 24, 2)
		want, wantConn := 0, true
		for v := 0; v < net.N(); v++ {
			ecc, conn := net.Eccentricity(v)
			wantConn = wantConn && conn
			want = max(want, ecc)
		}
		d, conn := net.Diameter()
		return d == want && conn == wantConn
	}, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
	net := randomNet(t, 5, 24, 2)
	if a := testing.AllocsPerRun(10, func() { net.Diameter() }); a > 2 {
		t.Fatalf("Diameter allocates %v times per call, want ≤ 2", a)
	}
}

func TestPropertyShortestPathMatchesBFS(t *testing.T) {
	if err := quick.Check(func(seed uint16, dstRaw uint8) bool {
		net := randomNet(t, uint64(seed)+29, 18, 2.5)
		dst := int(dstRaw) % net.N()
		dist := net.BFS(0)
		sp := net.ShortestPath(0, dst)
		if dist[dst] < 0 {
			return sp == nil
		}
		if len(sp) != dist[dst]+1 {
			return false
		}
		if sp[0] != 0 || sp[len(sp)-1] != dst {
			return false
		}
		// Consecutive path nodes must be communication-graph neighbors.
		for i := 1; i < len(sp); i++ {
			found := false
			for _, w := range net.Adj[sp[i-1]] {
				if int(w) == sp[i] {
					found = true
					break
				}
			}
			if !found {
				return false
			}
		}
		return true
	}, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestPropertyGranularityAtLeastOne(t *testing.T) {
	if err := quick.Check(func(seed uint16) bool {
		net := randomNet(t, uint64(seed)+43, 15, 3)
		return net.Granularity() >= 1
	}, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestPropertyComponentCountConsistent(t *testing.T) {
	// Connected() iff ComponentCount() == 1.
	if err := quick.Check(func(seed uint16) bool {
		net := randomNet(t, uint64(seed)+53, 16, 4)
		return net.Connected() == (net.ComponentCount() == 1)
	}, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}
