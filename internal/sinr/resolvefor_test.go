package sinr

import (
	"fmt"
	"slices"
	"testing"

	"sinrcast/internal/geom"
	"sinrcast/internal/rng"
)

// subsetResolver is the test-side view of the three engines.
type subsetResolver interface {
	Resolve(tx []int) []Reception
	ResolveFor(tx []int, receivers []int) []Reception
	SetWorkers(w int)
}

// testEngines builds all three engines over one scene.
func testEngines(t *testing.T, scene *geom.Euclidean) map[string]subsetResolver {
	t.Helper()
	p := DefaultParams()
	exact, err := NewEngine(scene, p)
	if err != nil {
		t.Fatal(err)
	}
	grid, err := NewGridEngine(scene, p, DefaultCellSize, DefaultNearRadius)
	if err != nil {
		t.Fatal(err)
	}
	hier, err := NewHierEngine(scene, p, DefaultCellSize, DefaultNearRadius, DefaultTheta)
	if err != nil {
		t.Fatal(err)
	}
	return map[string]subsetResolver{"exact": exact, "grid": grid, "hier": hier}
}

// randomSubset returns a sorted subset of [0,n) including each station
// with probability p.
func randomSubset(r *rng.Source, n int, p float64) []int {
	var s []int
	for i := 0; i < n; i++ {
		if r.Bernoulli(p) {
			s = append(s, i)
		}
	}
	return s
}

// filterReceptions keeps receptions whose receiver is in the subset.
func filterReceptions(rec []Reception, subset []int) []Reception {
	in := map[int]bool{}
	for _, u := range subset {
		in[u] = true
	}
	var out []Reception
	for _, r := range rec {
		if in[r.Receiver] {
			out = append(out, r)
		}
	}
	return out
}

// TestResolveForSubsetConsistency pins the ResolveFor contract on every
// engine: ResolveFor(tx, S) must equal filter(Resolve(tx), S) exactly —
// same receptions, same order — for random transmitter sets and random
// subsets, including subsets containing transmitters, the empty subset
// and the full range.
func TestResolveForSubsetConsistency(t *testing.T) {
	const n = 300
	scene := randomScene(77, n, 9)
	for name, eng := range testEngines(t, scene) {
		t.Run(name, func(t *testing.T) {
			eng.SetWorkers(1)
			r := rng.New(1234)
			for round := 0; round < 40; round++ {
				tx := randomTxSet(r, n, 0.1)
				subset := randomSubset(r, n, 0.3)
				switch round {
				case 0:
					subset = nil
				case 1:
					subset = make([]int, n)
					for i := range subset {
						subset[i] = i
					}
				}
				full := append([]Reception(nil), eng.Resolve(tx)...)
				want := filterReceptions(full, subset)
				got := eng.ResolveFor(tx, subset)
				if len(want) != len(got) {
					t.Fatalf("round %d: %d filtered vs %d subset receptions", round, len(want), len(got))
				}
				for i := range want {
					if want[i] != got[i] {
						t.Fatalf("round %d: reception %d: filtered %+v vs subset %+v", round, i, want[i], got[i])
					}
				}
			}
		})
	}
}

// TestResolveForGenericSpace covers the exact engine's non-Euclidean
// subset path (interface-dispatched distances).
func TestResolveForGenericSpace(t *testing.T) {
	n := 150
	coords := make([]float64, n)
	r := rng.New(3)
	for i := range coords {
		coords[i] = r.Range(0, 30)
	}
	e, err := NewEngine(geom.NewLine(coords), DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	e.SetWorkers(1)
	for round := 0; round < 25; round++ {
		tx := randomTxSet(r, n, 0.15)
		subset := randomSubset(r, n, 0.4)
		want := filterReceptions(append([]Reception(nil), e.Resolve(tx)...), subset)
		got := e.ResolveFor(tx, subset)
		if len(want) != len(got) {
			t.Fatalf("round %d: %d vs %d receptions", round, len(want), len(got))
		}
		for i := range want {
			if want[i] != got[i] {
				t.Fatalf("round %d: %+v vs %+v", round, want[i], got[i])
			}
		}
	}
}

// TestResolveForIdenticalAcrossWorkers pins cross-worker
// bit-determinism of the subset path on every engine: for any worker
// count, ResolveFor output must be byte-identical to the serial run.
func TestResolveForIdenticalAcrossWorkers(t *testing.T) {
	const n = 400
	scene := randomScene(55, n, 10)
	serialEngines := testEngines(t, scene)
	for _, workers := range []int{2, 5} {
		parEngines := testEngines(t, scene)
		for name, par := range parEngines {
			serial := serialEngines[name]
			serial.SetWorkers(1)
			par.SetWorkers(workers)
			switch e := par.(type) {
			case *Engine:
				e.minParallelN = 0
			case *GridEngine:
				e.minParallelN = 0
			case *HierEngine:
				e.minParallelN = 0
			}
			r := rng.New(uint64(workers) * 101)
			for round := 0; round < 15; round++ {
				tx := randomTxSet(r, n, 0.12)
				subset := randomSubset(r, n, 0.5)
				want := append([]Reception(nil), serial.ResolveFor(tx, subset)...)
				got := par.ResolveFor(tx, subset)
				diffReceptions(t, fmt.Sprintf("%s w=%d round=%d", name, workers, round), want, got)
			}
		}
	}
}

// TestResolveForRejectsBadSubsets pins the subset validation: indices
// out of range or not strictly increasing must panic like a bad
// transmitter does.
func TestResolveForRejectsBadSubsets(t *testing.T) {
	scene := randomScene(9, 32, 4)
	e, err := NewEngine(scene, DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	for _, bad := range [][]int{{-1, 2}, {5, 99}, {3, 3}, {4, 2}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("want panic for subset %v", bad)
				}
			}()
			e.ResolveFor([]int{0}, bad)
		}()
	}
}

// sizedSubset returns k distinct stations of [0,n), ascending.
func sizedSubset(r *rng.Source, n, k int) []int {
	s := r.Perm(n)[:k]
	slices.Sort(s)
	return s
}

// TestHierResolveForSubsetSizes drives hier ResolveFor through subset
// sizes from one station to all of them — each over a fresh round, a
// repeated one (the epoch cache replays), a churned one (the delta
// path) and its repeat — and holds it bit for bit to the per-receiver
// descent oracle and to a whole-round Resolve filtered to the subset,
// serially and with the parallel block loop forced on. Transmitters sit
// in the left quarter of the arena only, so most blocks are cold;
// subsets include transmitters, and the test fails unless it saw
// receivers that transmit and receivers in cold blocks.
func TestHierResolveForSubsetSizes(t *testing.T) {
	const n = 4096
	scene := randomScene(404, n, 64)
	p := DefaultParams()
	mk := func() *HierEngine {
		h, err := NewHierEngine(scene, p, DefaultCellSize, DefaultNearRadius, DefaultTheta)
		if err != nil {
			t.Fatal(err)
		}
		h.SetWorkers(1)
		return h
	}
	var left []int // stations in the arena's left quarter
	for i, q := range scene.Pts {
		if q.X < 16 {
			left = append(left, i)
		}
	}
	for _, parallel := range []bool{false, true} {
		t.Run(fmt.Sprintf("parallel=%v", parallel), func(t *testing.T) {
			h, oracle, whole := mk(), mk(), mk()
			if parallel {
				h.SetWorkers(3)
				h.minParallelN = 0
			}
			r := rng.New(8080)
			var txRecv, coldRecv, hits, churned int
			// Single stations, the n/64 scatter of late flood rounds,
			// both sides of n/8 (where a separate small-subset path once
			// took over), half and all of the network.
			for _, k := range []int{1, 2, n / 64, n/8 - 1, n / 8, n / 2, n} {
				var tx []int
				for round := 0; round < 4; round++ {
					switch round {
					case 0: // fresh set
						tx = tx[:0]
						for _, u := range left {
							if r.Bernoulli(0.05) {
								tx = append(tx, u)
							}
						}
					case 2: // churn: drop a tenth, wake as many others
						next := []int{}
						for _, u := range tx {
							if !r.Bernoulli(0.1) {
								next = append(next, u)
							}
						}
						for len(next) < len(tx) {
							next = append(next, left[r.Intn(len(left))])
						}
						slices.Sort(next)
						tx = slices.Compact(next)
						churned++
					}
					sub := sizedSubset(r, n, k)
					if k >= 2 && !slices.Contains(sub, tx[0]) {
						sub[0] = tx[0]
						slices.Sort(sub)
						sub = slices.Compact(sub)
					}
					label := fmt.Sprintf("k=%d round=%d", k, round)
					epoch := h.aggEpoch
					got := append([]Reception(nil), h.ResolveFor(tx, sub)...)
					if round%2 == 1 && h.aggEpoch == epoch {
						hits++
					}
					for _, u := range sub {
						if h.isTx[u] {
							txRecv++
						} else if h.hotCnt[h.blockOf[u]] == 0 {
							coldRecv++
						}
					}
					diffReceptions(t, label+" vs descent oracle", oracle.ResolveDescentForTest(tx, sub), got)
					diffReceptions(t, label+" vs filtered Resolve", filterReceptions(whole.Resolve(tx), sub), got)
				}
			}
			t.Logf("%d transmitting and %d cold-block receivers, %d epoch hits, %d churned rounds", txRecv, coldRecv, hits, churned)
			if txRecv == 0 || coldRecv == 0 || hits == 0 || churned == 0 {
				t.Fatal("sweep missed a receiver class or round kind")
			}
		})
	}
}

// TestHierResolveForSteadyStateAllocs: once warm, hier ResolveFor
// rounds allocate nothing, serial or parallel, whole or scattered
// subset, with every round on a new aggregation epoch.
func TestHierResolveForSteadyStateAllocs(t *testing.T) {
	const n = 4096
	scene := randomScene(505, n, 64)
	txA, txB := benchTx(n, 64), make([]int, 0, n/64)
	for i := 32; i < n; i += 64 {
		txB = append(txB, i)
	}
	for _, parallel := range []bool{false, true} {
		for _, k := range []int{n / 64, n / 2} {
			t.Run(fmt.Sprintf("parallel=%v/k=%d", parallel, k), func(t *testing.T) {
				h, err := NewHierEngine(scene, DefaultParams(), DefaultCellSize, DefaultNearRadius, DefaultTheta)
				if err != nil {
					t.Fatal(err)
				}
				h.SetWorkers(1)
				if parallel {
					h.SetWorkers(2)
					h.minParallelN = 0
				}
				sub := sizedSubset(rng.New(uint64(k)), n, k)
				round := func() {
					h.ResolveFor(txA, sub)
					h.ResolveFor(txB, sub)
				}
				for range 3 {
					round()
				}
				if a := testing.AllocsPerRun(20, round); a != 0 {
					t.Fatalf("steady-state ResolveFor allocated %.1f times per two rounds", a)
				}
			})
		}
	}
}
