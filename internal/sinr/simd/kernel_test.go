package simd

import (
	"math"
	"testing"

	"sinrcast/internal/rng"
)

// kernelTolerance accepts a few ulps of divergence between a multiply
// chain and math.Pow: binary exponentiation of exponents ≤ 64 rounds at
// most ~log₂(64)+2 times.
const kernelTolerance = 1e-14

func relErr(got, want float64) float64 {
	if got == want {
		return 0
	}
	return math.Abs(got-want) / math.Abs(want)
}

func TestKernelMatchesPow(t *testing.T) {
	alphas := []float64{1, 2, 2.5, 3, 3.5, 4, 4.5, 5, 6, 7, 7.5, 8, 11, 64, math.Pi, 2.0001}
	r := rng.New(42)
	for _, alpha := range alphas {
		k := NewKernel(alpha)
		if k.Alpha() != alpha {
			t.Fatalf("Alpha() = %v, want %v", k.Alpha(), alpha)
		}
		for i := 0; i < 2000; i++ {
			// Cover several magnitudes around the unit communication range.
			d := math.Exp(r.Range(math.Log(1e-3), math.Log(1e3)))
			want := math.Pow(d, -alpha)
			if e := relErr(k.FromDist(d), want); e > kernelTolerance {
				t.Fatalf("alpha=%v d=%v: FromDist err %v (got %v want %v)",
					alpha, d, e, k.FromDist(d), want)
			}
			d2 := d * d
			want2 := math.Pow(d2, -alpha/2)
			if e := relErr(k.FromDist2(d2), want2); e > kernelTolerance {
				t.Fatalf("alpha=%v d2=%v: FromDist2 err %v (got %v want %v)",
					alpha, d2, e, k.FromDist2(d2), want2)
			}
		}
	}
}

func TestKernelZeroDistanceIsInf(t *testing.T) {
	for _, alpha := range []float64{1, 2, 2.5, 3, 4, 6, math.Pi} {
		k := NewKernel(alpha)
		if !math.IsInf(k.FromDist(0), 1) {
			t.Errorf("alpha=%v: FromDist(0) = %v, want +Inf", alpha, k.FromDist(0))
		}
		if !math.IsInf(k.FromDist2(0), 1) {
			t.Errorf("alpha=%v: FromDist2(0) = %v, want +Inf", alpha, k.FromDist2(0))
		}
	}
}

func TestKernelModeSelection(t *testing.T) {
	cases := []struct {
		alpha float64
		mode  kernelMode
	}{
		{2, kernInvSq},
		{4, kernInvQuad},
		{6, kernEven},
		{3, kernCube},
		{1, kernOdd},
		{5, kernOdd},
		{2.5, kernHalf},
		{0.5, kernHalf},
		{math.Pi, kernPow},
		{65, kernPow}, // beyond the multiply-chain cap
		{2.0001, kernPow},
	}
	for _, c := range cases {
		if k := NewKernel(c.alpha); k.mode != c.mode {
			t.Errorf("alpha=%v: mode %d, want %d", c.alpha, k.mode, c.mode)
		}
	}
}

// TestKernelCubeMatchesOddChain pins the α = 3 shape bitwise to the
// odd-integer multiply chain it replaced, 1/(ipow(d², 1)·√d²) and
// 1/(ipow(d·d, 1)·d), over random inputs plus 0, subnormals and +Inf,
// so every table stays byte-identical.
func TestKernelCubeMatchesOddChain(t *testing.T) {
	k := NewKernel(3)
	xs := []float64{0, math.SmallestNonzeroFloat64, 1e-310, 2.2250738585072009e-308,
		math.SmallestNonzeroFloat64 * 3, 1e-160, 1, 1e100, math.MaxFloat64, math.Inf(1)}
	r := rng.New(3)
	for i := 0; i < 20000; i++ {
		xs = append(xs, math.Exp(r.Range(math.Log(1e-12), math.Log(1e12))))
	}
	for _, x := range xs {
		want2 := 1 / (ipow(x, 1) * math.Sqrt(x))
		if got := k.FromDist2(x); math.Float64bits(got) != math.Float64bits(want2) {
			t.Fatalf("FromDist2(%v) = %v, odd chain gives %v", x, got, want2)
		}
		want := 1 / (ipow(x*x, 1) * x)
		if got := k.FromDist(x); math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("FromDist(%v) = %v, odd chain gives %v", x, got, want)
		}
	}
}
