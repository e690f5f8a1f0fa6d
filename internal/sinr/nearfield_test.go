// Near-field short-circuit tests: interference only grows as
// transmitters are added, so a hier receiver whose signal fails against
// its exact near-field sum alone is rejected before the far field is
// built. The short-circuit must be exact (the boundary test holds it to
// the descent oracle where near alone and near + far disagree) and must
// save the work it claims (the counted gates: no pyramid and no
// frontier for a near-rejected round, and far fewer pyramids than
// rounds over a whole decay flood).
package sinr_test

import (
	"fmt"
	"math"
	"testing"

	"sinrcast/internal/baseline"
	"sinrcast/internal/geom"
	"sinrcast/internal/sinr"
)

// farCluster appends k transmitter positions packed in a 0.3×0.3 square
// centred on (cx, cy): far from the receivers, they all fall in one or
// two base cells, so the pyramid's center-of-mass aggregate matches
// their exact interference closely.
func farCluster(pts []geom.Point, k int, cx, cy float64) []geom.Point {
	side := int(math.Ceil(math.Sqrt(float64(k))))
	step := 0.3 / float64(side)
	for i := 0; i < k; i++ {
		pts = append(pts, geom.Point{
			X: cx - 0.15 + step*float64(i%side),
			Y: cy - 0.15 + step*float64(i/side),
		})
	}
	return pts
}

// span lists the indices lo, lo+1, …, hi-1.
func span(lo, hi int) []int {
	s := make([]int, 0, hi-lo)
	for i := lo; i < hi; i++ {
		s = append(s, i)
	}
	return s
}

// TestNearRejectedRoundBuildsNoPyramid: a subset round whose only
// decode candidate fails against its near field (a second transmitter
// beside the receiver drowns the candidate) builds neither the pyramid
// nor a frontier, though hundreds of far transmitters make both
// non-trivial; the same round with a receiver that decodes builds the
// pyramid once.
func TestNearRejectedRoundBuildsNoPyramid(t *testing.T) {
	pts := []geom.Point{
		{X: 0, Y: 0},     // 0: receiver
		{X: 0.9, Y: 0},   // 1: its candidate
		{X: -0.95, Y: 0}, // 2: near interferer
		{X: 0, Y: 30},    // 3: receiver that decodes
		{X: 0.5, Y: 30},  // 4: its candidate
	}
	const far = 5
	pts = farCluster(pts, 300, 15, 15)
	h, err := sinr.NewHierEngine(geom.NewEuclidean(pts), sinr.DefaultParams(), sinr.DefaultCellSize, sinr.DefaultNearRadius, sinr.DefaultTheta)
	if err != nil {
		t.Fatal(err)
	}
	h.SetWorkers(1)
	tx := append([]int{1, 2, 4}, span(far, len(pts))...)
	builds := func(recv []int) (pyramids, frontiers int64, rec []sinr.Reception) {
		p0, f0 := h.PyramidBuildsForTest(), h.FrontierBuildsForTest()
		rec = h.ResolveFor(tx, recv)
		return h.PyramidBuildsForTest() - p0, h.FrontierBuildsForTest() - f0, rec
	}
	if p, f, rec := builds([]int{0}); p != 0 || f != 0 || len(rec) != 0 {
		t.Fatalf("near-rejected round: %d pyramid and %d frontier builds, receptions %v; want 0, 0 and none", p, f, rec)
	}
	// A different receiver set over the same transmitters is a repeated
	// round: the pyramid is still unbuilt, and the decoding receiver
	// builds it now.
	p, f, rec := builds([]int{0, 3})
	if p != 1 || f != 1 || len(rec) != 1 || rec[0] != (sinr.Reception{Receiver: 3, Transmitter: 4}) {
		t.Fatalf("round with a decoder: %d pyramid and %d frontier builds, receptions %v; want 1, 1 and 3←4", p, f, rec)
	}
}

// TestNearShortCircuitBoundary plants, for each α, one receiver whose
// candidate decodes against its near field alone but not once a far
// transmitter cluster is added, and one that decodes against both. The
// engine must match the descent oracle, which always sums near + far,
// on the subset round and on the whole round; an engine that decided
// on the near sum alone would hand the first receiver a reception.
func TestNearShortCircuitBoundary(t *testing.T) {
	for _, alpha := range []float64{2, 2.5, 4} {
		t.Run(fmt.Sprintf("alpha=%g", alpha), func(t *testing.T) {
			p := sinr.DefaultParams()
			p.Alpha = alpha
			const (
				k      = 200
				clX    = 12.0 // cluster centre, outside the receiver block's near box
				clY    = 0.0
				decode = 0.5 // the second receiver's candidate distance
			)
			pts := []geom.Point{
				{X: 0, Y: 0},       // 0: boundary receiver
				{X: 0, Y: 1},       // 1: its candidate, placed below
				{X: 0, Y: 25},      // 2: receiver that decodes
				{X: decode, Y: 25}, // 3: its candidate
			}
			pts = farCluster(pts, k, clX, clY)
			// Exact interference at the boundary receiver, (0, 0), from
			// everything outside its near field; the candidate sits at
			// the geometric middle of the distances where near alone
			// decodes (d ≤ 1) and near + far does not.
			farI := 0.0
			for _, q := range pts[3:] {
				farI += p.Signal(math.Hypot(q.X, q.Y))
			}
			d := math.Pow(1+farI/p.Noise, -1/(2*alpha))
			pts[1].Y = d
			eu := geom.NewEuclidean(pts)
			mk := func() *sinr.HierEngine {
				h, err := sinr.NewHierEngine(eu, sinr.DefaultParams(), sinr.DefaultCellSize, sinr.DefaultNearRadius, sinr.DefaultTheta)
				if err != nil {
					t.Fatal(err)
				}
				sinr.SetAlphaForTest(h, alpha)
				h.SetWorkers(1)
				return h
			}
			recv := []int{0, 2}
			quiet := []int{1, 3}
			if got := mk().ResolveFor(quiet, recv); len(got) != 2 {
				t.Fatalf("without the far cluster %v decode, want both receivers: the boundary receiver must pass its near field", got)
			}
			tx := append(quiet, span(4, len(pts))...)
			want := mk().ResolveDescentForTest(tx, recv)
			if len(want) != 1 || want[0] != (sinr.Reception{Receiver: 2, Transmitter: 3}) {
				t.Fatalf("oracle decodes %v, want only 2←3: the far cluster must sink the boundary receiver (d=%v, far=%v)", want, d, farI)
			}
			h := mk()
			diffRec(t, "subset", want, h.ResolveFor(tx, recv))
			all := allStations(len(pts))
			diffRec(t, "whole round", mk().ResolveDescentForTest(tx, all), h.Resolve(tx))
		})
	}
}

// TestDecayFloodPyramidBuilds pins the pyramid builds of one
// fixed-seed decay flood on hier (uniform n=4096, serial): most of its
// rounds resolve a few uninformed stations that all fail against their
// near field, so the engine builds the pyramid in only a small share of
// its rounds, where a build every round was the old cost.
func TestDecayFloodPyramidBuilds(t *testing.T) {
	if testing.Short() {
		t.Skip("whole flood at n=4096")
	}
	h, n := newGateEngine(t, false)
	net := seqNet(t, "uniform:n=4096", 4097)
	c := &blockCounter{h: h, all: allStations(n)}
	res, err := baseline.RunFloodOn(net, baseline.NewDecay(n), 11, 0, 0, c)
	if err != nil {
		t.Fatal(err)
	}
	builds := h.PyramidBuildsForTest()
	t.Logf("decay flood: %d rounds (%d subset), %d pyramid builds, all informed %v",
		c.rounds, c.subsets, builds, res.AllInformed)
	const want = 83
	if builds != want {
		t.Fatalf("flood built %d pyramids, want %d", builds, want)
	}
	if 4*builds > int64(c.rounds) {
		t.Fatalf("flood built %d pyramids in %d rounds: more than a quarter", builds, c.rounds)
	}
}
