package sinr

import (
	"fmt"
	"math"
	"runtime"
	"testing"
	"time"

	"sinrcast/internal/geom"
	"sinrcast/internal/rng"
)

// forceParallel drops the crossover so tiny test instances exercise the
// parallel path.
func forceParallel(e *Engine, workers int) {
	e.SetWorkers(workers)
	e.minParallelN = 0
}

func randomTxSet(r *rng.Source, n int, p float64) []int {
	var tx []int
	for i := 0; i < n; i++ {
		if r.Bernoulli(p) {
			tx = append(tx, i)
		}
	}
	return tx
}

func diffReceptions(t *testing.T, label string, want, got []Reception) {
	t.Helper()
	if len(want) != len(got) {
		t.Fatalf("%s: %d receptions serial vs %d parallel", label, len(want), len(got))
	}
	for i := range want {
		if want[i] != got[i] {
			t.Fatalf("%s: reception %d: serial %+v vs parallel %+v", label, i, want[i], got[i])
		}
	}
}

// kernelAlphas cover every kernel shape: α=2 and α=4 (the unrolled
// reciprocal rows), α=2.5 (half-integer), α=3 (the inlined default)
// and α=3.7 (the math.Pow fallback). α=2 fails Validate on the plane,
// so it is set after construction like the benches do.
var kernelAlphas = []float64{2, 2.5, 3, 4, 3.7}

// mixedRounds returns a round sequence over n stations: random sets,
// singletons, and repeats of earlier sets, so later rounds replay
// single-transmitter rounds from the solo memo.
func mixedRounds(r *rng.Source, n int) [][]int {
	var rounds [][]int
	for i := 0; i < 12; i++ {
		rounds = append(rounds, randomTxSet(r, n, 0.2))
	}
	for i := 0; i < 6; i++ {
		rounds = append(rounds, []int{r.Intn(n)})
	}
	return append(rounds, rounds[0], rounds[12], rounds[3], rounds[13])
}

// diffScratch requires bit-identical accumulator state (interference
// sum, closest transmitter and its distance key) at every listed
// receiver of two engines that just resolved the same round — the
// closest-transmitter tie-break included, which receptions alone never
// show (equidistant signals cannot both clear β ≥ 1).
func diffScratch(t *testing.T, label string, want, got *Engine, receivers []int) {
	t.Helper()
	for _, u := range receivers {
		if math.Float64bits(want.sig[u]) != math.Float64bits(got.sig[u]) ||
			want.best[u] != got.best[u] ||
			math.Float64bits(want.bestD[u]) != math.Float64bits(got.bestD[u]) {
			t.Fatalf("%s: receiver %d: serial (sig %v, best %d, bestD %v) vs parallel (sig %v, best %d, bestD %v)",
				label, u, want.sig[u], want.best[u], want.bestD[u], got.sig[u], got.best[u], got.bestD[u])
		}
	}
}

// diffSerialParallel drives a serial engine and a forced-parallel one
// through the same rounds, through Resolve and through ResolveFor on a
// random subset, and requires identical receptions and accumulator
// state.
func diffSerialParallel(t *testing.T, label string, s geom.Space, alpha float64, workers int, rounds [][]int, r *rng.Source) {
	t.Helper()
	serial, err := NewEngine(s, DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	par, err := NewEngine(s, DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	setBenchAlpha(&serial.params, &serial.kern, alpha)
	setBenchAlpha(&par.params, &par.kern, alpha)
	serial.SetWorkers(1)
	forceParallel(par, workers)
	n := s.Len()
	all := make([]int, n)
	for i := range all {
		all[i] = i
	}
	for round, tx := range rounds {
		l := fmt.Sprintf("%s a=%g w=%d round=%d", label, alpha, workers, round)
		want := append([]Reception(nil), serial.Resolve(tx)...)
		got := par.Resolve(tx)
		diffReceptions(t, l, want, got)
		diffScratch(t, l, serial, par, all)
		sub := randomSubset(r, n, 0.4)
		want = append(want[:0], serial.ResolveFor(tx, sub)...)
		got = par.ResolveFor(tx, sub)
		diffReceptions(t, l+" subset", want, got)
		diffScratch(t, l+" subset", serial, par, sub)
	}
}

func TestParallelResolveMatchesSerialEuclidean(t *testing.T) {
	for _, n := range []int{16, 97, 256, 512} {
		for _, workers := range []int{2, 3, 7} {
			scene := randomScene(uint64(n*workers)+5, n, 6)
			for _, alpha := range kernelAlphas {
				r := rng.New(uint64(n) + uint64(workers)*1000)
				diffSerialParallel(t, fmt.Sprintf("n=%d", n), scene, alpha, workers, mixedRounds(r, n), r)
			}
		}
	}
}

func TestParallelResolveMatchesSerialGeneric(t *testing.T) {
	// The Line space takes the generic (interface-dispatched) path.
	for _, n := range []int{40, 200, 300} {
		coords := make([]float64, n)
		r := rng.New(99 + uint64(n))
		for i := range coords {
			coords[i] = r.Range(0, 40)
		}
		li := geom.NewLine(coords)
		for _, alpha := range kernelAlphas {
			diffSerialParallel(t, fmt.Sprintf("line n=%d", n), li, alpha, 4, mixedRounds(r, n), r)
		}
	}
}

// TestParallelResolveKeepsFirstOfEquidistant resolves lattices on
// which many receivers sit at exactly the same distance from several
// transmitters (every coordinate a multiple of 1/2, so every distance
// key is exact): the closest transmitter recorded must be the first of
// the tied ones in the transmitter order, serial and parallel alike.
func TestParallelResolveKeepsFirstOfEquidistant(t *testing.T) {
	var pts []geom.Point
	for y := 0; y < 9; y++ {
		for x := 0; x < 9; x++ {
			pts = append(pts, geom.Point{X: float64(x) / 2, Y: float64(y) / 2})
		}
	}
	coords := make([]float64, 60)
	for i := range coords {
		coords[i] = float64(i%30) / 2 // each coordinate twice
	}
	spaces := map[string]geom.Space{"lattice": geom.NewEuclidean(pts), "line": geom.NewLine(coords)}
	for name, s := range spaces {
		n := s.Len()
		var rounds [][]int
		for _, step := range []int{2, 3, 4, 7} {
			var tx []int
			for i := 0; i < n; i += step {
				tx = append(tx, i)
			}
			rounds = append(rounds, tx)
		}
		rounds = append(rounds, []int{n / 2}, []int{0, n - 1}, rounds[1])
		for _, alpha := range kernelAlphas {
			diffSerialParallel(t, name, s, alpha, 3, rounds, rng.New(uint64(n)))
		}
		// The fixture must actually tie: some receiver of the first
		// round has two transmitters at its closest distance key.
		e, err := NewEngine(s, DefaultParams())
		if err != nil {
			t.Fatal(err)
		}
		e.SetWorkers(1)
		e.Resolve(rounds[0])
		ties := 0
		for u := 0; u < n; u++ {
			if e.isTx[u] || e.best[u] < 0 {
				continue
			}
			for _, t2 := range rounds[0] {
				if int32(t2) != e.best[u] && distKey(e, t2, u) == e.bestD[u] {
					ties++
					if int32(t2) < e.best[u] {
						t.Fatalf("%s: receiver %d kept transmitter %d over the earlier equidistant %d", name, u, e.best[u], t2)
					}
				}
			}
		}
		if ties == 0 {
			t.Fatalf("%s: fixture has no equidistant ties", name)
		}
	}
}

func TestParallelGridResolveMatchesSerial(t *testing.T) {
	for _, workers := range []int{2, 5} {
		n := 400
		scene := randomScene(uint64(workers)*13+1, n, 8)
		serial, err := NewGridEngine(scene, DefaultParams(), 0.5, 1.5)
		if err != nil {
			t.Fatal(err)
		}
		serial.SetWorkers(1)
		par, err := NewGridEngine(scene, DefaultParams(), 0.5, 1.5)
		if err != nil {
			t.Fatal(err)
		}
		par.SetWorkers(workers)
		par.minParallelN = 0
		r := rng.New(uint64(workers) * 7)
		for round := 0; round < 15; round++ {
			tx := randomTxSet(r, n, 0.1)
			want := append([]Reception(nil), serial.Resolve(tx)...)
			got := par.Resolve(tx)
			diffReceptions(t, fmt.Sprintf("grid w=%d round=%d", workers, round), want, got)
		}
	}
}

func TestPoolReplacementSurvivesGC(t *testing.T) {
	// Regression: replacing the pool via SetWorkers used to leave the
	// old pool's GC cleanup registered, double-closing its channel and
	// panicking the cleanup goroutine once the engine was collected.
	func() {
		scene := randomScene(3, 64, 4)
		e, err := NewEngine(scene, DefaultParams())
		if err != nil {
			t.Fatal(err)
		}
		forceParallel(e, 2)
		e.Resolve([]int{0, 5})
		e.SetWorkers(3) // triggers pool replacement on the next round
		e.Resolve([]int{0, 5})
	}()
	// Collect the dropped engine; a stale cleanup would panic here.
	for i := 0; i < 3; i++ {
		runtime.GC()
	}
}

func TestPoolGoroutinesExitWithEngine(t *testing.T) {
	// The pool's goroutines must hold no reference back to their engine
	// between rounds, or the GC cleanup that closes them never fires
	// and every dropped engine leaks its workers.
	before := runtime.NumGoroutine()
	func() {
		e, err := NewEngine(randomScene(3, 64, 4), DefaultParams())
		if err != nil {
			t.Fatal(err)
		}
		forceParallel(e, 4)
		e.Resolve([]int{0, 5})
	}()
	deadline := time.Now().Add(10 * time.Second)
	for runtime.NumGoroutine() > before {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines after the engine was dropped, %d before", runtime.NumGoroutine(), before)
		}
		runtime.GC()
		time.Sleep(time.Millisecond)
	}
}

func TestSetWorkersReconfiguresPool(t *testing.T) {
	// Changing the worker count mid-life must rebuild the pool and keep
	// results identical.
	n := 300
	scene := randomScene(7, n, 6)
	serial, err := NewEngine(scene, DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	serial.SetWorkers(1)
	par, err := NewEngine(scene, DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	par.minParallelN = 0
	r := rng.New(123)
	for round, w := range []int{2, 4, 2, 3, 1, 5} {
		par.SetWorkers(w)
		tx := randomTxSet(r, n, 0.25)
		want := append([]Reception(nil), serial.Resolve(tx)...)
		got := par.Resolve(tx)
		diffReceptions(t, fmt.Sprintf("reconfig round=%d w=%d", round, w), want, got)
	}
}

// distKey is the closest-transmitter key of the pair (t, u) in the
// resolve path's unit: squared distance on the Euclidean path, raw
// metric distance on the generic one.
func distKey(e *Engine, t, u int) float64 {
	if e.pts == nil {
		return e.space.Dist(t, u)
	}
	dx, dy := e.ptsX[u]-e.ptsX[t], e.ptsY[u]-e.ptsY[t]
	return dx*dx + dy*dy
}
