package sinr

import (
	"fmt"
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

func TestParallelResolveMatchesSerialEuclidean(t *testing.T) {
	for _, n := range []int{16, 97, 512} {
		for _, workers := range []int{2, 3, 7} {
			scene := randomScene(uint64(n*workers)+5, n, 6)
			serial, err := NewEngine(scene, DefaultParams())
			if err != nil {
				t.Fatal(err)
			}
			serial.SetWorkers(1)
			par, err := NewEngine(scene, DefaultParams())
			if err != nil {
				t.Fatal(err)
			}
			forceParallel(par, workers)
			r := rng.New(uint64(n) + uint64(workers)*1000)
			for round := 0; round < 25; round++ {
				tx := randomTxSet(r, n, 0.2)
				want := append([]Reception(nil), serial.Resolve(tx)...)
				got := par.Resolve(tx)
				diffReceptions(t, fmt.Sprintf("n=%d w=%d round=%d", n, workers, round), want, got)
			}
		}
	}
}

func TestParallelResolveMatchesSerialGeneric(t *testing.T) {
	// The Line space takes the generic (interface-dispatched) path.
	n := 200
	coords := make([]float64, n)
	r := rng.New(99)
	for i := range coords {
		coords[i] = r.Range(0, 40)
	}
	li := geom.NewLine(coords)
	p := DefaultParams()
	serial, err := NewEngine(li, p)
	if err != nil {
		t.Fatal(err)
	}
	serial.SetWorkers(1)
	par, err := NewEngine(li, p)
	if err != nil {
		t.Fatal(err)
	}
	forceParallel(par, 4)
	for round := 0; round < 25; round++ {
		tx := randomTxSet(r, n, 0.15)
		want := append([]Reception(nil), serial.Resolve(tx)...)
		got := par.Resolve(tx)
		diffReceptions(t, fmt.Sprintf("generic round=%d", round), want, got)
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
