package sinr

import (
	"fmt"
	"runtime"
	"testing"

	"sinrcast/internal/rng"
)

// stealEngines builds one engine of every parallel shape over the
// scene: exact, grid and hier.
func stealEngines(t *testing.T, seed uint64, n int, side float64) map[string]func() Resolver {
	t.Helper()
	scene := randomScene(seed, n, side)
	return map[string]func() Resolver{
		"exact": func() Resolver {
			e, err := NewEngine(scene, DefaultParams())
			if err != nil {
				t.Fatal(err)
			}
			return e
		},
		"grid": func() Resolver {
			g, err := NewGridEngine(scene, DefaultParams(), DefaultCellSize, DefaultNearRadius)
			if err != nil {
				t.Fatal(err)
			}
			return g
		},
		"hier": func() Resolver {
			h, err := NewHierEngine(scene, DefaultParams(), DefaultCellSize, DefaultNearRadius, DefaultTheta)
			if err != nil {
				t.Fatal(err)
			}
			return h
		},
	}
}

// TestStealStormByteIdentical runs every engine with one receiver per
// chunk — hundreds of chunks per round, so every round is a steal
// storm in which idle workers continuously raid each other's queues —
// and requires the output to stay byte-identical to the serial engine
// on Resolve and ResolveFor alike.
func TestStealStormByteIdentical(t *testing.T) {
	const n = 600
	for name, build := range stealEngines(t, 42, n, 35) {
		for _, workers := range []int{2, 3, 8} {
			serial := build()
			serial.SetWorkers(1)
			par := build()
			ForceParallelForTest(par, workers)
			SetChunkTargetForTest(par, 1)
			r := rng.New(uint64(workers) * 17)
			for round := 0; round < 8; round++ {
				tx := randomTxSet(r, n, 0.15)
				label := fmt.Sprintf("%s w=%d round=%d", name, workers, round)
				want := append([]Reception(nil), serial.Resolve(tx)...)
				diffReceptions(t, label, want, par.Resolve(tx))
				sub := randomTxSet(r, n, 0.3) // ascending subset, reuse the generator
				want = append(want[:0], serial.ResolveFor(tx, sub)...)
				diffReceptions(t, label+" subset", want, par.ResolveFor(tx, sub))
			}
		}
	}
}

// TestWorkerCountChangesMidSequence drives the hier engine through a
// round sequence that exercises the delta aggregation and epoch caches
// — overlapping transmitter sets, exact repeats, subset rounds — while
// reconfiguring the runner between rounds (worker counts up and down,
// serial interludes, pinning toggles). Every round must stay
// byte-identical to a serial engine replaying the same sequence:
// runner rebuilds must neither corrupt nor drop the cross-round caches.
func TestWorkerCountChangesMidSequence(t *testing.T) {
	const n = 700
	scene := randomScene(9, n, 30)
	serial, err := NewHierEngine(scene, DefaultParams(), DefaultCellSize, DefaultNearRadius, DefaultTheta)
	if err != nil {
		t.Fatal(err)
	}
	serial.SetWorkers(1)
	par, err := NewHierEngine(scene, DefaultParams(), DefaultCellSize, DefaultNearRadius, DefaultTheta)
	if err != nil {
		t.Fatal(err)
	}
	par.minParallelN = 0

	r := rng.New(1234)
	tx := randomTxSet(r, n, 0.2)
	schedule := []struct {
		workers int
		pinned  bool
	}{
		{2, false}, {2, false}, {4, false}, {1, false}, {4, true},
		{3, true}, {3, false}, {1, false}, {2, false}, {8, false},
	}
	for round, cfg := range schedule {
		par.SetWorkers(cfg.workers)
		par.SetPinned(cfg.pinned)
		switch round % 4 {
		case 1:
			// Exact repeat: the zero-churn epoch-cache replay path.
		case 2:
			// Small churn: flip a few stations in or out (delta path).
			in := make([]bool, n)
			for _, s := range tx {
				in[s] = true
			}
			tx = tx[:0]
			for i := 0; i < n; i++ {
				if in[i] != r.Bernoulli(0.02) {
					tx = append(tx, i)
				}
			}
		default:
			tx = randomTxSet(r, n, 0.2)
		}
		label := fmt.Sprintf("round=%d w=%d pinned=%v", round, cfg.workers, cfg.pinned)
		want := append([]Reception(nil), serial.Resolve(tx)...)
		diffReceptions(t, label, want, par.Resolve(tx))
		if round%3 == 0 {
			sub := randomTxSet(r, n, 0.4)
			want = append(want[:0], serial.ResolveFor(tx, sub)...)
			diffReceptions(t, label+" subset", want, par.ResolveFor(tx, sub))
		}
	}
}

// TestHierImbalanceStealGate is the engine-level counted steal gate:
// one worker of a two-worker hier engine is held at the round barrier,
// so the round can only complete if the other worker steals the held
// worker's block chunks. Hardware-independent — the hold forces the
// imbalance regardless of machine speed or GOMAXPROCS — and the output
// must remain byte-identical to the serial engine.
func TestHierImbalanceStealGate(t *testing.T) {
	const n = 800
	scene := randomScene(5, n, 35)
	serial, err := NewHierEngine(scene, DefaultParams(), DefaultCellSize, DefaultNearRadius, DefaultTheta)
	if err != nil {
		t.Fatal(err)
	}
	serial.SetWorkers(1)
	par, err := NewHierEngine(scene, DefaultParams(), DefaultCellSize, DefaultNearRadius, DefaultTheta)
	if err != nil {
		t.Fatal(err)
	}
	ForceParallelForTest(par, 2)

	r := rng.New(77)
	tx := randomTxSet(r, n, 0.25)
	// First round builds the runner (and warms the caches on both sides).
	diffReceptions(t, "warmup", append([]Reception(nil), serial.Resolve(tx)...), par.Resolve(tx))

	before := StealsForTest(par)
	release := make(chan struct{})
	HoldWorkerForTest(par, 0, release)
	done := make(chan struct{})
	go func() {
		defer close(done)
		for StealsForTest(par) == before {
			runtime.Gosched()
		}
		close(release)
	}()
	tx2 := randomTxSet(r, n, 0.25)
	want := append([]Reception(nil), serial.Resolve(tx2)...)
	got := par.Resolve(tx2)
	<-done
	HoldWorkerForTest(par, -1, nil)
	diffReceptions(t, "held round", want, got)
	if stolen := StealsForTest(par) - before; stolen <= 0 {
		t.Fatalf("held worker 0, but steal counter did not advance (%d)", stolen)
	}
}
