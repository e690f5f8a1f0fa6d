package scenario

import (
	"testing"

	"sinrcast/internal/network"
	"sinrcast/internal/sinr"
)

// generateSpec parses and builds one spec string under the default
// physics.
func generateSpec(t *testing.T, s string, seed uint64) *network.Network {
	t.Helper()
	spec, err := Parse(s)
	if err != nil {
		t.Fatal(err)
	}
	net, err := Generate(spec, sinr.DefaultParams(), seed)
	if err != nil {
		t.Fatalf("Generate(%q): %v", s, err)
	}
	return net
}

// TestFamilyShapes checks the geometry each family promises at a fixed
// size: station count, diameter D, granularity Rs and degree — the
// axes the experiment tables sweep. Every row must also be connected.
// Determinism and connectivity at matched n are TestEveryFamilyProperties'
// job, rejected parameters TestGenerateValidation's.
func TestFamilyShapes(t *testing.T) {
	diameter := func(lo, hi int) func(*testing.T, *network.Network) {
		return func(t *testing.T, net *network.Network) {
			if d, _ := net.Diameter(); d < lo || d > hi {
				t.Errorf("diameter %d, want in [%d, %d]", d, lo, hi)
			}
		}
	}
	for _, tc := range []struct {
		name  string
		spec  string
		seed  uint64
		n     int // station count
		check func(*testing.T, *network.Network)
	}{
		{"uniform-n10", "uniform:n=10,density=8", 10, 10, nil},
		{"uniform-n50", "uniform:n=50,density=8", 50, 50, nil},
		{"uniform-n200", "uniform:n=200,density=8", 200, 200, nil},
		// Mean degree within a wide factor of the requested density.
		{"uniform-mean-degree", "uniform:n=400,density=10", 13, 400, func(t *testing.T, net *network.Network) {
			total := 0
			for i := 0; i < net.N(); i++ {
				total += net.Degree(i)
			}
			if mean := float64(total) / float64(net.N()); !(mean >= 3 && mean <= 40) {
				t.Errorf("mean degree %v, want in [3, 40] for density 10", mean)
			}
		}},
		// 7×7 lattice at spacing 0.3 under comm radius 2/3: neighbours
		// two cells away count too, so the degree exceeds 4.
		{"grid-degree", "grid:n=49,spacing=0.3", 1, 49, func(t *testing.T, net *network.Network) {
			if d := net.MaxDegree(); d <= 4 {
				t.Errorf("MaxDegree %d, want > 4", d)
			}
		}},
		{"path-diameter-n8", "path:n=8,frac=0.99", 1, 8, diameter(7, 7)},
		{"path-diameter-n16", "path:n=16,frac=0.99", 1, 16, diameter(15, 15)},
		{"path-diameter-n32", "path:n=32,frac=0.99", 1, 32, diameter(31, 31)},
		// The whole tail fits in one ball: Rs explodes while D stays small.
		{"expchain-Rs-and-D", "expchain:n=16,first=0.5,ratio=0.5", 1, 16, func(t *testing.T, net *network.Network) {
			if rs := net.Granularity(); rs < 1000 {
				t.Errorf("granularity %v, want >= 1000", rs)
			}
			diameter(1, 3)(t, net)
		}},
		{"clusteredpath-size", "clusteredpath:pathlen=10,cluster=16,ratio=0.6", 1, 26, nil},
		// A cluster's stations all hear each other.
		{"clusters-degree", "clusters:k=4,m=20,radius=0.1,gap=0.6", 3, 80, func(t *testing.T, net *network.Network) {
			if d := net.MaxDegree(); d < 19 {
				t.Errorf("MaxDegree %d, want >= m-1 = 19", d)
			}
		}},
		{"gaussian-size", "gaussian:n=100,sigma=1.5", 9, 100, nil},
		{"corridor-diameter", "corridor:n=60,step=0.5", 11, 60, diameter(5, 60)},
	} {
		t.Run(tc.name, func(t *testing.T) {
			net := generateSpec(t, tc.spec, tc.seed)
			if net.N() != tc.n {
				t.Fatalf("n = %d, want %d", net.N(), tc.n)
			}
			if !net.Connected() {
				t.Fatal("not connected")
			}
			if tc.check != nil {
				tc.check(t, net)
			}
		})
	}
}

// TestFamilyTrends checks how a family's geometry moves along its
// parameters: expchain's Rs grows with n, and clusteredpath's ratio
// moves Rs while the path alone fixes D (the premise of E6).
func TestFamilyTrends(t *testing.T) {
	granularity := func(net *network.Network) float64 { return net.Granularity() }
	diameter := func(net *network.Network) float64 { d, _ := net.Diameter(); return float64(d) }
	for _, tc := range []struct {
		name       string
		specs      []string
		metric     func(*network.Network) float64
		increasing bool // strictly increasing along specs; otherwise constant
	}{
		{"expchain-Rs-grows-with-n", []string{
			"expchain:n=6,first=0.5,ratio=0.5",
			"expchain:n=10,first=0.5,ratio=0.5",
			"expchain:n=14,first=0.5,ratio=0.5",
		}, granularity, true},
		{"clusteredpath-Rs-grows-as-ratio-shrinks", []string{
			"clusteredpath:pathlen=10,cluster=16,ratio=0.6",
			"clusteredpath:pathlen=10,cluster=16,ratio=0.45",
		}, granularity, true},
		{"clusteredpath-D-independent-of-ratio", []string{
			"clusteredpath:pathlen=10,cluster=16,ratio=0.6",
			"clusteredpath:pathlen=10,cluster=16,ratio=0.45",
		}, diameter, false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			prev := tc.metric(generateSpec(t, tc.specs[0], 1))
			for _, s := range tc.specs[1:] {
				v := tc.metric(generateSpec(t, s, 1))
				if tc.increasing && v <= prev || !tc.increasing && v != prev {
					t.Errorf("%s: %v after %v", s, v, prev)
				}
				prev = v
			}
		})
	}
}
