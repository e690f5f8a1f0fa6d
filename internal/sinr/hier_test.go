package sinr

import (
	"fmt"
	"math"
	"testing"

	"sinrcast/internal/geom"
	"sinrcast/internal/rng"
)

// receptionMap indexes receptions by receiver.
func receptionMap(rec []Reception) map[int]int {
	m := make(map[int]int, len(rec))
	for _, r := range rec {
		m[r.Receiver] = r.Transmitter
	}
	return m
}

// disagreementRate runs trials rounds on exact vs approx and returns
// (approx-vs-exact disagreements)/(exact receptions).
func disagreementRate(t *testing.T, exact, approx interface {
	Resolve(tx []int) []Reception
}, n int, r *rng.Source, trials int, p float64) float64 {
	t.Helper()
	total, differ := 0, 0
	for trial := 0; trial < trials; trial++ {
		var tx []int
		for i := 0; i < n; i++ {
			if r.Bernoulli(p) {
				tx = append(tx, i)
			}
		}
		am := receptionMap(exact.Resolve(tx))
		bm := receptionMap(approx.Resolve(tx))
		total += len(am)
		for k, v := range am {
			if got, ok := bm[k]; !ok || got != v {
				differ++
			}
		}
		for k := range bm {
			if _, ok := am[k]; !ok {
				differ++
			}
		}
	}
	if total == 0 {
		t.Fatal("no receptions at all; agreement test is vacuous")
	}
	return float64(differ) / float64(total)
}

// TestHierEngineAgreement pins the tentpole accuracy contract: across
// path-loss exponents and deployment shapes, the hierarchical engine's
// disagreement rate against the exact Engine is no worse than the grid
// engine's at the same cell geometry (the center-of-mass pyramid can
// only refine the fixed-center cell approximation), and both stay small
// in absolute terms.
func TestHierEngineAgreement(t *testing.T) {
	type family struct {
		name string
		pts  func(r *rng.Source, n int) []geom.Point
	}
	families := []family{
		{"uniform", func(r *rng.Source, n int) []geom.Point {
			pts := make([]geom.Point, n)
			for i := range pts {
				pts[i] = geom.Point{X: r.Range(0, 14), Y: r.Range(0, 14)}
			}
			return pts
		}},
		{"clustered", func(r *rng.Source, n int) []geom.Point {
			pts := make([]geom.Point, n)
			for i := range pts {
				cx, cy := float64(i%4)*5, float64((i/4)%3)*5
				pts[i] = geom.Point{X: cx + r.Range(0, 1.2), Y: cy + r.Range(0, 1.2)}
			}
			return pts
		}},
		{"strip", func(r *rng.Source, n int) []geom.Point {
			pts := make([]geom.Point, n)
			for i := range pts {
				pts[i] = geom.Point{X: r.Range(0, 60), Y: r.Range(0, 1.5)}
			}
			return pts
		}},
	}
	for _, alpha := range []float64{2, 2.5, 4} {
		for _, f := range families {
			t.Run(fmt.Sprintf("alpha=%g/%s", alpha, f.name), func(t *testing.T) {
				const n = 400
				r := rng.New(uint64(41*alpha) + uint64(len(f.name)))
				eu := geom.NewEuclidean(f.pts(r, n))
				p := DefaultParams()
				exact, err := NewEngine(eu, p)
				if err != nil {
					t.Fatal(err)
				}
				grid, err := NewGridEngine(eu, p, DefaultCellSize, DefaultNearRadius)
				if err != nil {
					t.Fatal(err)
				}
				hier, err := NewHierEngine(eu, p, DefaultCellSize, DefaultNearRadius, DefaultTheta)
				if err != nil {
					t.Fatal(err)
				}
				// α=2 is bench-only on the plane (it fails Validate);
				// swap it in after construction like the benches do.
				setBenchAlpha(&exact.params, &exact.kern, alpha)
				setBenchAlpha(&grid.params, &grid.kern, alpha)
				setBenchAlpha(&hier.params, &hier.kern, alpha)

				rGrid := disagreementRate(t, exact, grid, n, rng.New(7), 60, 0.05)
				rHier := disagreementRate(t, exact, hier, n, rng.New(7), 60, 0.05)
				t.Logf("disagreement vs exact: grid=%.4f hier=%.4f", rGrid, rHier)
				if rHier > rGrid+1e-9 {
					t.Errorf("hier disagreement %.4f exceeds grid's %.4f", rHier, rGrid)
				}
				if rHier > 0.02 {
					t.Errorf("hier disagreement %.4f above the 2%% ceiling", rHier)
				}
			})
		}
	}
}

// TestHierMatchesGridSemantics checks the structural contracts shared
// with the other engines: no transmitter receives, empty rounds resolve
// to nothing, out-of-range transmitters panic, and scratch state does
// not leak between rounds.
func TestHierEngineBasics(t *testing.T) {
	pts := []geom.Point{{X: 0, Y: 0}, {X: 0.5, Y: 0}, {X: 5, Y: 0}, {X: 5.5, Y: 0}}
	h, err := NewHierEngine(geom.NewEuclidean(pts), DefaultParams(), DefaultCellSize, DefaultNearRadius, DefaultTheta)
	if err != nil {
		t.Fatal(err)
	}
	if h.N() != 4 {
		t.Fatalf("N = %d", h.N())
	}
	if rec := h.Resolve(nil); rec != nil {
		t.Fatalf("Resolve(nil) = %v", rec)
	}
	r1 := h.Resolve([]int{0})
	if len(r1) != 1 || r1[0].Receiver != 1 || r1[0].Transmitter != 0 {
		t.Fatalf("round 1: %+v", r1)
	}
	r2 := h.Resolve([]int{2})
	if len(r2) != 1 || r2[0].Receiver != 3 || r2[0].Transmitter != 2 {
		t.Fatalf("round 2 leaked state: %+v", r2)
	}
	for _, rec := range h.Resolve([]int{0, 1}) {
		if rec.Receiver == 0 || rec.Receiver == 1 {
			t.Fatalf("transmitter received: %+v", rec)
		}
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("want panic on out-of-range transmitter")
			}
		}()
		h.Resolve([]int{9})
	}()
}

func TestHierEngineRejectsBadArgs(t *testing.T) {
	eu := geom.NewEuclidean([]geom.Point{{X: 0, Y: 0}})
	p := DefaultParams()
	if _, err := NewHierEngine(eu, p, 0, 1.5, 0.5); err == nil {
		t.Fatal("want error for zero cell size")
	}
	if _, err := NewHierEngine(eu, p, 0.5, 0.5, 0.5); err == nil {
		t.Fatal("want error for nearRadius below the communication range")
	}
	if _, err := NewHierEngine(eu, p, 0.5, 1.5, 0); err == nil {
		t.Fatal("want error for zero theta")
	}
	if _, err := NewHierEngine(eu, p, 0.5, 1.5, 1.5); err == nil {
		t.Fatal("want error for theta above 1")
	}
	if _, err := NewHierEngine(geom.NewEuclidean(nil), p, 0.5, 1.5, 0.5); err == nil {
		t.Fatal("want error for empty point set")
	}
}

// TestCellBudgetRejectsSparseBoundingBox pins the constructor
// validation both grid-backed engines share: a pathological bounding
// box (two stations astronomically far apart) must error out instead of
// allocating gigabytes of empty cells.
func TestCellBudgetRejectsSparseBoundingBox(t *testing.T) {
	eu := geom.NewEuclidean([]geom.Point{{X: 0, Y: 0}, {X: 1e9, Y: 1e9}})
	p := DefaultParams()
	if _, err := NewGridEngine(eu, p, 0.5, 1.5); err == nil {
		t.Fatal("grid: want cell-budget error for a 1e9-unit bounding box")
	}
	if _, err := NewHierEngine(eu, p, 0.5, 1.5, 0.5); err == nil {
		t.Fatal("hier: want cell-budget error for a 1e9-unit bounding box")
	}
	// A large but density-proportionate deployment must still build.
	r := rng.New(5)
	pts := make([]geom.Point, 4096)
	for i := range pts {
		pts[i] = geom.Point{X: r.Range(0, 40), Y: r.Range(0, 40)}
	}
	if _, err := NewGridEngine(geom.NewEuclidean(pts), p, 0.5, 1.5); err != nil {
		t.Fatalf("grid: legitimate deployment rejected: %v", err)
	}
}

// TestParallelHierResolveMatchesSerial pins the cross-worker
// bit-determinism contract for the hierarchical engine.
func TestParallelHierResolveMatchesSerial(t *testing.T) {
	for _, workers := range []int{2, 3, 7} {
		n := 500
		scene := randomScene(uint64(workers)*19+2, n, 10)
		serial, err := NewHierEngine(scene, DefaultParams(), DefaultCellSize, DefaultNearRadius, DefaultTheta)
		if err != nil {
			t.Fatal(err)
		}
		serial.SetWorkers(1)
		par, err := NewHierEngine(scene, DefaultParams(), DefaultCellSize, DefaultNearRadius, DefaultTheta)
		if err != nil {
			t.Fatal(err)
		}
		par.SetWorkers(workers)
		par.minParallelN = 0
		r := rng.New(uint64(workers) * 31)
		for round := 0; round < 20; round++ {
			tx := randomTxSet(r, n, 0.1)
			want := append([]Reception(nil), serial.Resolve(tx)...)
			got := par.Resolve(tx)
			diffReceptions(t, fmt.Sprintf("hier w=%d round=%d", workers, round), want, got)
		}
	}
}

func TestAutoEngineChoice(t *testing.T) {
	p := DefaultParams()
	mkEu := func(n int) geom.Space {
		pts := make([]geom.Point, n)
		r := rng.New(uint64(n))
		side := math.Sqrt(float64(n))
		for i := range pts {
			pts[i] = geom.Point{X: r.Range(0, side), Y: r.Range(0, side)}
		}
		return geom.NewEuclidean(pts)
	}
	tests := []struct {
		name string
		s    geom.Space
		p    Params
		want EngineKind
	}{
		{"small euclidean", mkEu(256), p, KindExact},
		{"mid euclidean", mkEu(8192), p, KindHier},
		{"balanced below threshold", mkEu(4095), p, KindExact},
		{"balanced at threshold", mkEu(4096), p, KindHier},
		{"large euclidean", mkEu(40000), p, KindHier},
		{"line metric", geom.NewLine(make([]float64, 9000)), p, KindExact},
		{"alpha near growth", mkEu(40000), Params{Alpha: 2.2, Beta: 1.5, Noise: 1, Eps: 1. / 3}, KindExact},
	}
	for _, tt := range tests {
		if got := Choose(tt.s, tt.p); got != tt.want {
			t.Errorf("%s: Choose = %q, want %q", tt.name, got, tt.want)
		}
	}
	// The grid is an explicit reference only: auto never picks it.
	for _, n := range []int{1, 64, 511, 512, 4095, 4096, 32767, 32768, 40000} {
		if got := Choose(mkEu(n), p); got == KindGrid {
			t.Errorf("n=%d: Choose = %q", n, got)
		}
	}
	// AutoEngine must build what Choose says and satisfy Resolver.
	r, err := AutoEngine(mkEu(256), p)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := r.(*Engine); !ok {
		t.Fatalf("AutoEngine built %T, want *Engine", r)
	}
	if _, err := NewNamedEngine("bogus", mkEu(16), p); err == nil {
		t.Fatal("want error for unknown engine name")
	}
	for _, name := range []string{"exact", "grid", "hier", "auto"} {
		r, err := NewNamedEngine(name, mkEu(4096), p)
		if err != nil {
			t.Fatalf("NewNamedEngine(%q): %v", name, err)
		}
		if _, ok := r.(*GridEngine); ok != (name == "grid") {
			t.Fatalf("NewNamedEngine(%q) built %T", name, r)
		}
	}
	if _, err := NewNamedEngine("hier", geom.NewLine([]float64{0, 1}), p); err == nil {
		t.Fatal("want error for hier on a non-Euclidean space")
	}
}

// TestNamedEngineFitsSparseBoundingBox pins the adaptive cell sizing of
// the named/auto construction path: a legitimate sparse deployment with
// a huge bounding box (a long relay chain) must build — with coarser
// cells — where the default cell size would blow the cell budget, and
// must still resolve rounds consistently with ResolveFor.
func TestNamedEngineFitsSparseBoundingBox(t *testing.T) {
	// 2000 stations strung along a 1200-unit line: 0.5-unit cells would
	// need 2400×~3 columns... with a second arm, millions of cells.
	n := 2000
	pts := make([]geom.Point, n)
	r := rng.New(11)
	for i := range pts {
		pts[i] = geom.Point{X: float64(i) * 0.6, Y: r.Range(0, 600)}
	}
	eu := geom.NewEuclidean(pts)
	p := DefaultParams()
	if _, err := NewHierEngine(eu, p, DefaultCellSize, DefaultNearRadius, DefaultTheta); err == nil {
		t.Fatal("explicit default-cell hier should exceed the cell budget on this box")
	}
	for _, name := range []string{"grid", "hier"} {
		eng, err := NewNamedEngine(name, eu, p)
		if err != nil {
			t.Fatalf("NewNamedEngine(%q) on sparse box: %v", name, err)
		}
		tx := benchSubset(n, 50)
		full := append([]Reception(nil), eng.Resolve(tx)...)
		subset := benchSubset(n, 3)
		got := eng.ResolveFor(tx, subset)
		want := filterReceptions(full, subset)
		if len(got) != len(want) {
			t.Fatalf("%s: ResolveFor %d vs filtered %d", name, len(got), len(want))
		}
	}
}

// benchSubset returns every strideth station index.
func benchSubset(n, stride int) []int {
	var s []int
	for i := 0; i < n; i += stride {
		s = append(s, i)
	}
	return s
}
