package sinr

import (
	"fmt"
	"math"
	"runtime"
	"slices"
	"testing"

	"sinrcast/internal/geom"
)

// benchTx picks every strideth station as a transmitter.
func benchTx(n, stride int) []int {
	var tx []int
	for i := 0; i < n; i += stride {
		tx = append(tx, i)
	}
	return tx
}

// benchScene keeps the historical 20×20 arena for the small sizes and
// switches to constant-density scaling beyond 16k stations: the side
// grows with √n so the per-ball station density stays at the
// experiment-realistic ~8 of the n=1024 scene. Million-station
// deployments model growing coverage areas, not ever-denser ones —
// which is exactly the regime the hierarchical far field targets.
func benchScene(seed uint64, n int) *geom.Euclidean {
	side := 20.0
	if n > 16384 {
		side = 20 * math.Sqrt(float64(n)/1024)
	}
	return randomScene(seed, n, side)
}

// setBenchAlpha swaps the path-loss exponent after construction,
// covering one kernel strategy per value: α=2 (reciprocal), α=2.5
// (half-integer: sqrt + multiplies), α=4 (squared reciprocal). α=2
// would fail Validate on the plane (it needs α > γ = 2; the
// interference sum diverges), but only the kernel's arithmetic cost is
// being measured here, so the bench sets the exponent directly.
func setBenchAlpha(params *Params, kern *Kernel, alpha float64) {
	params.Alpha = alpha
	*kern = NewKernel(alpha)
}

// BenchmarkResolve measures one exact-engine round at production-ish
// network sizes across kernel variants, serial vs parallel.
func BenchmarkResolve(b *testing.B) {
	for _, n := range []int{1024, 4096, 16384} {
		scene := randomScene(uint64(n), n, 20)
		tx := benchTx(n, 64)
		for _, alpha := range []float64{2, 2.5, 4} {
			for _, mode := range []string{"serial", "parallel"} {
				b.Run(fmt.Sprintf("n=%d/alpha=%g/%s", n, alpha, mode), func(b *testing.B) {
					e, err := NewEngine(scene, DefaultParams())
					if err != nil {
						b.Fatal(err)
					}
					setBenchAlpha(&e.params, &e.kern, alpha)
					if mode == "serial" {
						e.SetWorkers(1)
					} else {
						e.SetWorkers(0) // GOMAXPROCS
						e.minParallelN = 0
					}
					b.ResetTimer()
					for i := 0; i < b.N; i++ {
						e.Resolve(tx)
					}
					b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N), "ns/round")
				})
			}
		}
	}
}

// BenchmarkGridResolve measures the approximate engine on the same
// sweep plus one constant-density large size; the grid's per-round
// cost is O(liveCells + nearBox) per receiver, so the n=65536 entry is
// the direct speed comparison point against BenchmarkHierResolve at
// the same scene, transmitter set and cell geometry.
func BenchmarkGridResolve(b *testing.B) {
	for _, n := range []int{1024, 4096, 16384, 65536} {
		scene := benchScene(uint64(n)+1, n)
		tx := benchTx(n, 64)
		for _, alpha := range []float64{2, 2.5, 4} {
			for _, mode := range []string{"serial", "parallel"} {
				b.Run(fmt.Sprintf("n=%d/alpha=%g/%s", n, alpha, mode), func(b *testing.B) {
					g, err := NewGridEngine(scene, DefaultParams(), DefaultCellSize, DefaultNearRadius)
					if err != nil {
						b.Fatal(err)
					}
					setBenchAlpha(&g.params, &g.kern, alpha)
					if mode == "serial" {
						g.SetWorkers(1)
					} else {
						g.SetWorkers(0)
						g.minParallelN = 0
					}
					b.ResetTimer()
					for i := 0; i < b.N; i++ {
						g.Resolve(tx)
					}
					b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N), "ns/round")
				})
			}
		}
	}
}

// BenchmarkHierResolve measures the hierarchical engine up to a million
// stations. Scenes and transmitter sets match BenchmarkGridResolve at
// shared sizes (same seed, same constant-density scaling, same cell
// geometry), so the two benches compare engines, not workloads. The
// n=65536 entry is the acceptance point: it must be ≥5× faster than
// BenchmarkGridResolve/n=65536 at matched accuracy.
func BenchmarkHierResolve(b *testing.B) {
	for _, n := range []int{16384, 65536, 262144, 1048576} {
		scene := benchScene(uint64(n)+1, n)
		tx := benchTx(n, 64)
		for _, alpha := range []float64{2, 2.5, 4} {
			for _, mode := range []string{"serial", "parallel"} {
				b.Run(fmt.Sprintf("n=%d/alpha=%g/%s", n, alpha, mode), func(b *testing.B) {
					h, err := NewHierEngine(scene, DefaultParams(), DefaultCellSize, DefaultNearRadius, DefaultTheta)
					if err != nil {
						b.Fatal(err)
					}
					setBenchAlpha(&h.params, &h.kern, alpha)
					if mode == "serial" {
						h.SetWorkers(1)
					} else {
						h.SetWorkers(0)
						h.minParallelN = 0
					}
					b.ResetTimer()
					for i := 0; i < b.N; i++ {
						h.Resolve(tx)
					}
					b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N), "ns/round")
				})
			}
		}
	}
}

// BenchmarkParallelScaling sweeps the worker count on the hierarchical
// engine at the large sizes — the speedup curve of the chunk-cursor
// worker pool. Two disjoint transmitter sets alternate per iteration so the
// cross-round epoch cache cannot collapse the rounds into replays:
// every measured round pays real aggregation and descent work. One
// warm-up round per set runs before the timer, so the loop measures
// the steady state (which must not allocate — the allocs/op column is
// CI-gated).
func BenchmarkParallelScaling(b *testing.B) {
	workerSet := []int{1, 2, 4, 8}
	if p := runtime.GOMAXPROCS(0); !slices.Contains(workerSet, p) {
		workerSet = append(workerSet, p)
	}
	for _, n := range []int{65536, 262144} {
		scene := benchScene(uint64(n)+1, n)
		txA := benchTx(n, 64)
		txB := make([]int, 0, len(txA))
		for i := 32; i < n; i += 64 {
			txB = append(txB, i)
		}
		for _, alpha := range []float64{2, 2.5, 4} {
			for _, workers := range workerSet {
				b.Run(fmt.Sprintf("n=%d/alpha=%g/workers=%d", n, alpha, workers), func(b *testing.B) {
					h, err := NewHierEngine(scene, DefaultParams(), DefaultCellSize, DefaultNearRadius, DefaultTheta)
					if err != nil {
						b.Fatal(err)
					}
					setBenchAlpha(&h.params, &h.kern, alpha)
					h.SetWorkers(workers)
					h.minParallelN = 0
					h.Resolve(txA)
					h.Resolve(txB)
					b.ReportAllocs()
					b.ResetTimer()
					for i := 0; i < b.N; i++ {
						if i%2 == 0 {
							h.Resolve(txA)
						} else {
							h.Resolve(txB)
						}
					}
					b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N), "ns/round")
				})
			}
		}
	}
}

// BenchmarkResolveFor measures subset resolution: the active-receiver
// path protocols use once informed/quiescent stations stop listening.
// The frac=0.125 subset is every 8th station — a late-broadcast-round
// shape where 7/8 of the network no longer needs resolving — on two
// alternating transmitter sets. The hier frac=0.0156 case is every 64th
// station, scattered over every receiver block as a flood's last
// uninformed stations are, and alternates two disjoint transmitter
// sets so that every round is on a new aggregation epoch: each round
// pays its frontier builds, which hier's block loop holds to one per
// receiver block because ResolveFor groups its receivers by block.
// One warm-up round per transmitter set runs before the timer, so the
// loop measures steady-state subset resolution, not the run-state
// allocation and first builds of a fresh engine.
func BenchmarkResolveFor(b *testing.B) {
	type mk struct {
		name  string
		sizes []int
		build func(scene *geom.Euclidean) (subsetResolver, error)
	}
	engines := []mk{
		{"exact", []int{16384}, func(s *geom.Euclidean) (subsetResolver, error) {
			return NewEngine(s, DefaultParams())
		}},
		{"grid", []int{65536}, func(s *geom.Euclidean) (subsetResolver, error) {
			return NewGridEngine(s, DefaultParams(), DefaultCellSize, DefaultNearRadius)
		}},
		{"hier", []int{65536, 1048576}, func(s *geom.Euclidean) (subsetResolver, error) {
			return NewHierEngine(s, DefaultParams(), DefaultCellSize, DefaultNearRadius, DefaultTheta)
		}},
	}
	run := func(b *testing.B, eng subsetResolver, subset []int, txs ...[]int) {
		eng.SetWorkers(0)
		for _, tx := range txs {
			eng.ResolveFor(tx, subset)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			eng.ResolveFor(txs[i%len(txs)], subset)
		}
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N), "ns/round")
	}
	for _, e := range engines {
		for _, n := range e.sizes {
			scene := benchScene(uint64(n)+1, n)
			b.Run(fmt.Sprintf("engine=%s/n=%d/frac=0.125", e.name, n), func(b *testing.B) {
				eng, err := e.build(scene)
				if err != nil {
					b.Fatal(err)
				}
				run(b, eng, benchTx(n, 8), benchTx(n, 64))
			})
		}
	}
	const n = 65536
	scene := benchScene(n+1, n)
	strided := func(off int) []int {
		var s []int
		for i := off; i < n; i += 64 {
			s = append(s, i)
		}
		return s
	}
	b.Run(fmt.Sprintf("engine=hier/n=%d/frac=0.0156", n), func(b *testing.B) {
		h, err := NewHierEngine(scene, DefaultParams(), DefaultCellSize, DefaultNearRadius, DefaultTheta)
		if err != nil {
			b.Fatal(err)
		}
		run(b, h, strided(16), strided(0), strided(32))
	})
}
