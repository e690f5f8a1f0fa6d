package sinr

import (
	"fmt"
	"testing"

	"sinrcast/internal/rng"
	"sinrcast/internal/sinr/simd"
)

// benchSlabs builds synthetic far-field slabs shaped like a real
// frontier: receiver at the origin, nodes spread over an annulus
// outside the near field with power spanning a few octaves.
func benchSlabs(seed uint64, n int) (x, y, p []float64) {
	r := rng.New(seed)
	x = make([]float64, n)
	y = make([]float64, n)
	p = make([]float64, n)
	for i := 0; i < n; i++ {
		x[i] = r.Range(2, 120)
		if r.Bernoulli(0.5) {
			x[i] = -x[i]
		}
		y[i] = r.Range(2, 120)
		if r.Bernoulli(0.5) {
			y[i] = -y[i]
		}
		p[i] = r.Range(1, 16)
	}
	return
}

// benchSink keeps the kernels' results observable so the compiler
// cannot elide the loops under measurement.
var benchSink float64

// BenchmarkFrontierReplay isolates the far-field replay kernel — the
// Σ p·d^-α multiply-add stream resolveReceiver runs per receiver —
// across frontier sizes and path-loss exponents: the plain scalar loop
// (the fold of the descent oracle) against the unrolled FarSum batch
// kernel production runs.
func BenchmarkFrontierReplay(b *testing.B) {
	for _, size := range []int{64, 512, 4096} {
		x, y, p := benchSlabs(uint64(size), size)
		for _, alpha := range []float64{2, 2.5, 3, 4} {
			k := NewKernel(alpha)
			b.Run(fmt.Sprintf("len=%d/alpha=%g/scalar", size, alpha), func(b *testing.B) {
				acc := 0.0
				for i := 0; i < b.N; i++ {
					sum := 0.0
					for j := range x {
						dx, dy := 0.25-x[j], -0.5-y[j]
						sum += p[j] * k.FromDist2(dx*dx+dy*dy)
					}
					acc += sum
				}
				benchSink = acc
			})
			b.Run(fmt.Sprintf("len=%d/alpha=%g/portable", size, alpha), func(b *testing.B) {
				acc := 0.0
				for i := 0; i < b.N; i++ {
					acc += k.FarSum(0.25, -0.5, x, y, p)
				}
				benchSink = acc
			})
		}
	}
}

// BenchmarkGatherNear isolates the near-field distance scan over a
// block's gathered near slab — argmin election plus the exact
// per-transmitter sum — across slab sizes and exponents: the fused
// scalar loop against the two kernels resolveReceiver runs, the
// kernel-free ArgMin rejection pass and the NearSum fold.
func BenchmarkGatherNear(b *testing.B) {
	for _, size := range []int{16, 64, 256} {
		x, y, _ := benchSlabs(uint64(size)*7+1, size)
		for _, alpha := range []float64{2, 2.5, 3, 4} {
			k := NewKernel(alpha)
			const pw = 1.0
			b.Run(fmt.Sprintf("len=%d/alpha=%g/scalar", size, alpha), func(b *testing.B) {
				acc := 0.0
				for i := 0; i < b.N; i++ {
					total, bestD2 := 0.0, 1e18
					best := -1
					for j := range x {
						dx, dy := 0.25-x[j], -0.5-y[j]
						d2 := dx*dx + dy*dy
						total += pw * k.FromDist2(d2)
						if d2 < bestD2 {
							bestD2, best = d2, j
						}
					}
					acc += total + float64(best)
				}
				benchSink = acc
			})
			// ArgMin does no kernel math, so its timing does not depend on
			// α; it still runs per exponent to keep every cell complete.
			b.Run(fmt.Sprintf("len=%d/alpha=%g/argmin", size, alpha), func(b *testing.B) {
				acc := 0.0
				for i := 0; i < b.N; i++ {
					best, bestD2 := simd.ArgMin(0.25, -0.5, x, y, 1e18)
					acc += bestD2 + float64(best)
				}
				benchSink = acc
			})
			b.Run(fmt.Sprintf("len=%d/alpha=%g/nearsum", size, alpha), func(b *testing.B) {
				acc := 0.0
				for i := 0; i < b.N; i++ {
					acc += k.NearSum(pw, 0.25, -0.5, x, y, 0)
				}
				benchSink = acc
			})
		}
	}
}
