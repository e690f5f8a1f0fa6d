package sinr

import (
	"fmt"
	"math"
	"strings"
	"testing"

	"sinrcast/internal/geom"
)

// TestCandidateBoxBoundaryLattice plants receiver–transmitter pairs at
// distance 1 and one ulp either side of it, along both axes and two
// diagonals, with receivers on, just off and inside cell boundaries, so
// the transmitter lands as many cells away as the communication range
// allows — on the default dyadic cells, whose cell assignment is exact,
// on 0.3-wide cells off the origin, whose assignment rounds, and with a
// near radius so wide that a block's slab spans more than 64 cells and
// the occupancy bit test is skipped. Each pair transmits alone; the
// engine, whose rejection scan reads only the candidate box around the
// receiver's cell, must match the descent oracle, which scans the
// block's whole union near box. A candidate span short of the
// communication range, even by 10⁻¹², drops decodes at distance ≤ 1
// here.
func TestCandidateBoxBoundaryLattice(t *testing.T) {
	for _, geo := range []struct{ cs, anchor, near float64 }{
		{DefaultCellSize, 0, DefaultNearRadius},
		{0.3, 0.1, DefaultNearRadius},
		{DefaultCellSize, 0, 25},
	} {
		t.Run(fmt.Sprintf("cell=%g/near=%g", geo.cs, geo.near), func(t *testing.T) {
			candidateBoxLattice(t, geo.cs, geo.anchor, geo.near)
		})
	}
}

func candidateBoxLattice(t *testing.T, cs, anchor, near float64) {
	up, down := math.Inf(1), math.Inf(-1)
	pts := []geom.Point{{X: anchor, Y: anchor}} // the grid's origin corner
	type step struct{ dx, dy float64 }
	var steps []step
	for _, s := range []float64{1, -1} {
		steps = append(steps, step{s, 0}, step{0, s}, step{s * math.Sqrt2 / 2, math.Sqrt2 / 2})
	}
	var pairs [][2]int
	k := 0
	for _, place := range []string{"on", "above", "mid"} {
		for _, below := range []bool{false, true} {
			for _, st := range steps {
				for _, nudge := range []float64{down, 0, up} {
					bx := anchor + cs*float64(8+9*(k%16)) // every offset within a block
					by := anchor + cs*float64(8+8*(k/16))
					k++
					rx, ry := bx, by // on a cell's left edge
					switch place {
					case "above": // just right of it
						rx = math.Nextafter(bx, up)
					case "mid":
						rx = bx + cs/2
					}
					if below { // just under the next cell row's boundary
						ry = math.Nextafter(by+cs, down)
					}
					tx, ty := rx+st.dx, ry+st.dy
					if nudge != 0 {
						if st.dx != 0 {
							tx = math.Nextafter(tx, math.Copysign(1, st.dx)*nudge)
						}
						if st.dy != 0 {
							ty = math.Nextafter(ty, math.Copysign(1, st.dy)*nudge)
						}
					}
					pairs = append(pairs, [2]int{len(pts), len(pts) + 1})
					pts = append(pts, geom.Point{X: rx, Y: ry}, geom.Point{X: tx, Y: ty})
				}
			}
		}
	}
	eu := geom.NewEuclidean(pts)
	h, err := NewHierEngine(eu, DefaultParams(), cs, near, DefaultTheta)
	if err != nil {
		t.Fatal(err)
	}
	h.SetWorkers(1)
	oracle, err := NewHierEngine(eu, DefaultParams(), cs, near, DefaultTheta)
	if err != nil {
		t.Fatal(err)
	}
	// The wide case must put receivers past bit 63 of a slab row.
	if reach := h.nearCells + frontierBlock; near > DefaultNearRadius && reach <= 64 {
		t.Fatalf("near radius %v puts receivers at most %d cells into a slab: the wide case needs more than 64", near, reach)
	}
	all := make([]int, len(pts))
	for i := range all {
		all[i] = i
	}
	decoded, missed := 0, 0
	for _, p := range pairs {
		tx := []int{p[1]}
		want := oracle.ResolveDescentForTest(tx, all)
		diffReceptions(t, fmt.Sprintf("pair %v at %v", p, pts[p[0]]), want, h.ResolveFor(tx, all))
		if len(want) == 1 && want[0] == (Reception{Receiver: p[0], Transmitter: p[1]}) {
			decoded++
		} else {
			missed++
		}
	}
	t.Logf("%d pairs: %d decode at the range boundary, %d do not", len(pairs), decoded, missed)
	if decoded == 0 || missed == 0 {
		t.Fatal("lattice never crosses the range boundary: the test measures nothing")
	}
}

// TestResolveForPanicMessages pins the subset validation of all three
// engines to one set of messages: a receiver out of range, or one not
// above its predecessor, panics naming it — also on hier, whose check
// runs inside its one-pass grouping. A hier engine that panicked there
// still resolves the next round like a fresh engine.
func TestResolveForPanicMessages(t *testing.T) {
	const n = 32
	cases := []struct {
		recv []int
		msg  string
	}{
		{[]int{-1, 2}, "sinr: receiver -1 out of range [0,32)"},
		{[]int{5, 99}, "sinr: receiver 99 out of range [0,32)"},
		{[]int{3, 3}, "sinr: receivers not strictly increasing at 3 (after 3)"},
		{[]int{4, 2}, "sinr: receivers not strictly increasing at 2 (after 4)"},
		{[]int{1, 7, 40, 6}, "sinr: receiver 40 out of range [0,32)"},
	}
	for name, build := range parallelEngines(t, 9, n, 4) {
		e := build().(subsetResolver)
		for _, c := range cases {
			func() {
				defer func() {
					got := fmt.Sprint(recover())
					if !strings.Contains(got, c.msg) {
						t.Fatalf("%s: subset %v panicked with %q, want %q", name, c.recv, got, c.msg)
					}
				}()
				e.ResolveFor([]int{0, 9}, c.recv)
			}()
		}
		tx, recv := []int{0, 9}, []int{1, 2, 3, 5, 8, 13, 21}
		diffReceptions(t, name+" after panics", build().(subsetResolver).ResolveFor(tx, recv), e.ResolveFor(tx, recv))
	}
}

// TestDuplicateTransmitterCountsTwice: a transmitter listed twice in a
// round interferes twice, on every engine and on both resolve paths. At
// station 0 the candidate (station 1, distance 0.5) decodes against the
// interferer (station 2, distance 0.62) once but not twice, so the
// three engines — hier's per-cell chains included — must agree that
// the duplicate silences it. The stations sit within one near field,
// where every engine sums exactly.
func TestDuplicateTransmitterCountsTwice(t *testing.T) {
	pts := []geom.Point{{X: 0, Y: 0}, {X: 0.5, Y: 0}, {X: -0.62, Y: 0}, {X: 0.3, Y: 0.9}, {X: -0.4, Y: -0.5}}
	eu := geom.NewEuclidean(pts)
	p := DefaultParams()
	ex, err := NewEngine(eu, p)
	if err != nil {
		t.Fatal(err)
	}
	gr, err := NewGridEngine(eu, p, DefaultCellSize, DefaultNearRadius)
	if err != nil {
		t.Fatal(err)
	}
	hi, err := NewHierEngine(eu, p, DefaultCellSize, DefaultNearRadius, DefaultTheta)
	if err != nil {
		t.Fatal(err)
	}
	all := []int{0, 1, 2, 3, 4}
	once := ex.ResolveFor([]int{1, 2}, []int{0})
	if len(once) != 1 || once[0] != (Reception{Receiver: 0, Transmitter: 1}) {
		t.Fatalf("one interferer: station 0 hears %v, want 0←1", once)
	}
	for _, tx := range [][]int{{1, 2, 2}, {2, 1, 2}, {2, 2, 1, 2}} {
		want := append([]Reception(nil), ex.Resolve(tx)...)
		for _, r := range want {
			if r.Receiver == 0 {
				t.Fatalf("tx %v: exact engine delivers %v despite the duplicate", tx, r)
			}
		}
		for name, e := range map[string]subsetResolver{"exact": ex, "grid": gr, "hier": hi} {
			label := fmt.Sprintf("%s tx=%v", name, tx)
			diffReceptions(t, label+" Resolve", want, e.Resolve(tx))
			diffReceptions(t, label+" ResolveFor", want, e.ResolveFor(tx, all))
			diffReceptions(t, label+" ResolveFor {0}", nil, e.ResolveFor(tx, []int{0}))
		}
	}
}
