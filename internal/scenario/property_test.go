package scenario

import (
	"math"
	"testing"

	"sinrcast/internal/geom"
	"sinrcast/internal/sinr"
)

// TestEveryFamilyProperties is the registry-wide invariant check: for
// every registered family, a small instance must be connected, its
// space a valid metric (checked exhaustively on non-Euclidean spaces),
// its Spec round-trippable through the string form, and its layout
// byte-identical across regenerations of the same (Spec, Seed).
func TestEveryFamilyProperties(t *testing.T) {
	// 32 keeps CheckMetric (O(n³)) cheap while giving every sampling
	// family real randomness (starclusters needs m ≥ 2 per cluster).
	const (
		targetN = 32
		seed    = 5
	)
	phys := sinr.DefaultParams()
	fams := Families()
	if len(fams) < 11 {
		t.Fatalf("registry has %d families, want >= 11", len(fams))
	}
	for _, f := range fams {
		f := f
		t.Run(f.Name, func(t *testing.T) {
			spec := f.SpecForN(targetN)
			if spec.Family != f.Name {
				t.Fatalf("SpecForN family = %q", spec.Family)
			}
			round, err := Parse(spec.String())
			if err != nil {
				t.Fatalf("Parse(%q): %v", spec.String(), err)
			}
			if round.String() != spec.String() {
				t.Fatalf("spec round trip: %q -> %q", spec.String(), round.String())
			}

			net, err := Generate(spec, phys, seed)
			if err != nil {
				t.Fatalf("Generate(%q): %v", spec.String(), err)
			}
			if net.N() < 2 {
				t.Fatalf("tiny network: n=%d", net.N())
			}
			if !net.Connected() {
				t.Fatalf("%q not connected (n=%d)", spec.String(), net.N())
			}
			if _, euclidean := net.Space.(*geom.Euclidean); !euclidean {
				if err := geom.CheckMetric(net.Space); err != nil {
					t.Fatalf("metric violation: %v", err)
				}
			}

			// Same (Spec, Seed) → byte-identical layout; a sampling family's
			// layout must move with the seed.
			t.Run("deterministic-in-seed", func(t *testing.T) {
				again, err := Generate(spec, phys, seed)
				if err != nil {
					t.Fatalf("regenerate: %v", err)
				}
				if again.N() != net.N() {
					t.Fatalf("nondeterministic size: %d vs %d", net.N(), again.N())
				}
				for i := 0; i < net.N(); i++ {
					a, b := net.Space.Position(i), again.Space.Position(i)
					if math.Float64bits(a.X) != math.Float64bits(b.X) ||
						math.Float64bits(a.Y) != math.Float64bits(b.Y) {
						t.Fatalf("station %d position differs between identical (Spec, Seed): %v vs %v", i, a, b)
					}
				}

				other, err := Generate(spec, phys, seed+1)
				if err != nil {
					t.Fatalf("reseed: %v", err)
				}
				identical := other.N() == net.N()
				if identical {
					for i := 0; i < net.N(); i++ {
						if net.Space.Position(i) != other.Space.Position(i) {
							identical = false
							break
						}
					}
				}
				if identical && familySamples(f) {
					t.Fatalf("%q: different seeds produced identical layouts", f.Name)
				}
			})
		})
	}
}

// familySamples reports whether a family draws randomness at all;
// deterministic lattices are legitimately seed-independent.
func familySamples(f *Family) bool {
	switch f.Name {
	case "grid", "path", "expchain", "clusteredpath", "gridholes":
		return false
	}
	return true
}

// TestSpecForNMatchesTarget checks that matched-n sizing lands close
// to the target for every family (within a factor of two — carved
// grids and arm arithmetic round).
func TestSpecForNMatchesTarget(t *testing.T) {
	phys := sinr.DefaultParams()
	for _, target := range []int{24, 64} {
		for _, f := range Families() {
			net, err := Generate(f.SpecForN(target), phys, 7)
			if err != nil {
				t.Fatalf("%s n=%d: %v", f.Name, target, err)
			}
			if net.N() < target/2 || net.N() > target*2 {
				t.Errorf("%s: SpecForN(%d) built n=%d, outside [%d, %d]",
					f.Name, target, net.N(), target/2, target*2)
			}
		}
	}
}

// TestRetryMetaReported pins the satellite contract: densifying
// generators must report their attempt count and final geometry
// instead of silently retrying.
func TestRetryMetaReported(t *testing.T) {
	phys := sinr.DefaultParams()
	for _, tc := range []struct {
		spec string
		key  string
	}{
		{"uniform:n=40", "side"},
		{"gaussian:n=40", "sigma"},
		{"annulus:n=40", "meanradius"},
		{"dumbbell:n=40", "radius"},
		{"gradient:n=40", "length"},
	} {
		spec, err := Parse(tc.spec)
		if err != nil {
			t.Fatal(err)
		}
		net, err := Generate(spec, phys, 11)
		if err != nil {
			t.Fatalf("%s: %v", tc.spec, err)
		}
		if net.Meta["attempts"] < 1 {
			t.Errorf("%s: attempts = %v, want >= 1", tc.spec, net.Meta["attempts"])
		}
		if v, ok := net.Meta[tc.key]; !ok || v <= 0 {
			t.Errorf("%s: meta %q = %v, want positive", tc.spec, tc.key, v)
		}
	}
	// Deterministic families leave Meta nil.
	spec, _ := Parse("grid:n=16")
	net, err := Generate(spec, phys, 1)
	if err != nil {
		t.Fatal(err)
	}
	if net.Meta != nil {
		t.Errorf("grid reported meta %v, want none", net.Meta)
	}
}
