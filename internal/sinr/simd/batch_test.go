package simd

import (
	"math"
	"testing"

	"sinrcast/internal/rng"
)

// batchAlphas covers every kernel mode: the two reciprocal shapes, the
// specialized half batch body (α=2.5), the default α=3 and the other
// odd and half shapes (α=5, α=3.5) on the plain loops, an even chain
// (α=6) and the Pow fallback.
var batchAlphas = []float64{2, 2.5, 3, 3.5, 4, 5, 6, math.Pi}

// batchLens fuzzes the tail handling: every residue mod 8 below and
// above the unroll widths, plus longer slabs.
var batchLens = []int{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 11, 12, 13, 15, 16, 17, 31, 32, 33, 63, 64, 67}

func randSlabs(r *rng.Source, n int) (x, y, p []float64) {
	x = make([]float64, n)
	y = make([]float64, n)
	p = make([]float64, n)
	for i := 0; i < n; i++ {
		x[i] = r.Range(-50, 50)
		y[i] = r.Range(-50, 50)
		p[i] = r.Range(0.1, 3)
	}
	return
}

func TestFarSumBitIdenticalToScalar(t *testing.T) {
	r := rng.New(7)
	for _, alpha := range batchAlphas {
		k := NewKernel(alpha)
		for _, n := range batchLens {
			x, y, p := randSlabs(r, n)
			upx, upy := r.Range(-60, 60), r.Range(-60, 60)
			want := 0.0
			for i := 0; i < n; i++ {
				dx, dy := upx-x[i], upy-y[i]
				want += p[i] * k.FromDist2(dx*dx+dy*dy)
			}
			if got := k.FarSum(upx, upy, x, y, p); got != want {
				t.Fatalf("alpha=%v n=%d: FarSum=%v scalar=%v (diff %g)",
					alpha, n, got, want, got-want)
			}
		}
	}
}

func TestNearScanIndexedBitIdenticalToScalar(t *testing.T) {
	r := rng.New(9)
	ptsX, ptsY, _ := randSlabs(r, 200)
	for _, alpha := range batchAlphas {
		k := NewKernel(alpha)
		for _, n := range batchLens {
			ids := make([]int32, n)
			for i := range ids {
				ids[i] = int32(r.Intn(200))
			}
			upx, upy := r.Range(-60, 60), r.Range(-60, 60)
			pw := r.Range(0.5, 2)
			startTotal := r.Range(0, 10)
			start := r.Range(0.5, 3000)
			wTotal, wBest, wBD2 := startTotal, int32(-1), start
			for _, id := range ids {
				dx, dy := upx-ptsX[id], upy-ptsY[id]
				d2 := dx*dx + dy*dy
				wTotal += pw * k.FromDist2(d2)
				if d2 < wBD2 {
					wBD2, wBest = d2, id
				}
			}
			gTotal, gBest, gBD2 := k.NearScanIndexed(pw, upx, upy, ids, ptsX, ptsY, startTotal, start)
			if gTotal != wTotal || gBest != wBest || gBD2 != wBD2 {
				t.Fatalf("alpha=%v n=%d: NearScanIndexed=(%v,%d,%v) scalar=(%v,%d,%v)",
					alpha, n, gTotal, gBest, gBD2, wTotal, wBest, wBD2)
			}
		}
	}
}

func TestAccumRowBitIdenticalToScalar(t *testing.T) {
	r := rng.New(10)
	for _, alpha := range batchAlphas {
		k := NewKernel(alpha)
		for _, n := range batchLens {
			x, y, _ := randSlabs(r, n)
			isTx := make([]bool, n)
			for i := range isTx {
				isTx[i] = r.Intn(5) == 0
			}
			pw := r.Range(0.5, 2)
			tx0, ty0 := r.Range(-60, 60), r.Range(-60, 60)
			wSig := make([]float64, n)
			wBD := make([]float64, n)
			wBest := make([]int32, n)
			gSig := make([]float64, n)
			gBD := make([]float64, n)
			gBest := make([]int32, n)
			for i := 0; i < n; i++ {
				wSig[i] = r.Range(0, 5)
				gSig[i] = wSig[i]
				wBD[i] = r.Range(0.5, 4000)
				gBD[i] = wBD[i]
				wBest[i] = int32(r.Intn(50)) - 1
				gBest[i] = wBest[i]
			}
			const tid = int32(321)
			for i := 0; i < n; i++ {
				if isTx[i] {
					continue
				}
				dx := x[i] - tx0
				dy := y[i] - ty0
				d2 := dx*dx + dy*dy
				wSig[i] += pw * k.FromDist2(d2)
				if d2 < wBD[i] {
					wBD[i] = d2
					wBest[i] = tid
				}
			}
			k.AccumRow(pw, tx0, ty0, tid, x, y, isTx, gSig, gBD, gBest)
			for i := 0; i < n; i++ {
				if gSig[i] != wSig[i] || gBD[i] != wBD[i] || gBest[i] != wBest[i] {
					t.Fatalf("alpha=%v n=%d i=%d: AccumRow=(%v,%v,%d) scalar=(%v,%v,%d)",
						alpha, n, i, gSig[i], gBD[i], gBest[i], wSig[i], wBD[i], wBest[i])
				}
			}
		}
	}
}

func TestArgMinBitIdenticalToScalar(t *testing.T) {
	r := rng.New(13)
	for _, n := range batchLens {
		x, y, _ := randSlabs(r, n)
		upx, upy := r.Range(-60, 60), r.Range(-60, 60)
		for _, start := range []float64{math.Inf(1), r.Range(100, 5000)} {
			wBest, wBD2 := -1, start
			for i := 0; i < n; i++ {
				dx, dy := upx-x[i], upy-y[i]
				d2 := dx*dx + dy*dy
				if d2 < wBD2 {
					wBD2, wBest = d2, i
				}
			}
			gBest, gBD2 := ArgMin(upx, upy, x, y, start)
			if gBest != wBest || gBD2 != wBD2 {
				t.Fatalf("n=%d start=%v: ArgMin=(%d,%v) scalar=(%d,%v)",
					n, start, gBest, gBD2, wBest, wBD2)
			}
		}
	}
}

// TestNearSumMatchesNearScanTotal pins the rejection/accumulation split:
// NearSum's fold must be bit-identical to the total a fused scalar near
// scan accumulates over the same slab (the argmin never feeds the
// fold, so the scan's total is the plain in-order sum below), for every
// kernel mode and tail length.
func TestNearSumMatchesNearScanTotal(t *testing.T) {
	r := rng.New(14)
	for _, alpha := range batchAlphas {
		k := NewKernel(alpha)
		for _, n := range batchLens {
			x, y, _ := randSlabs(r, n)
			upx, upy := r.Range(-60, 60), r.Range(-60, 60)
			pw := r.Range(0.5, 2)
			startTotal := r.Range(0, 10)
			want := startTotal
			for i := 0; i < n; i++ {
				dx, dy := upx-x[i], upy-y[i]
				want += pw * k.FromDist2(dx*dx+dy*dy)
			}
			if got := k.NearSum(pw, upx, upy, x, y, startTotal); got != want {
				t.Fatalf("alpha=%v n=%d: NearSum=%v scalar=%v (diff %g)",
					alpha, n, got, want, got-want)
			}
		}
	}
}
