// Package simd is the path-loss layer of the SINR engines: the
// α-specialized Kernel evaluating d^-α, plus batch forms of the resolve
// inner loops (far-field frontier replay, near-field rejection and
// accumulation, grid near scans, exact-engine row accumulation).
//
// The batch kernels (FarSum, ArgMin, NearSum, NearScanIndexed,
// AccumRow) are pure-Go loops with bounds checks hoisted, manually
// unrolled 4-wide (8-wide for the division-bound α=2 and α=4 shapes)
// where the unroll measured faster; the FarSum and NearSum folds of
// the remaining shapes, the default α=3 among them, are plain loops,
// which measured fastest there. They preserve the scalar left-to-right
// summation order bit-exactly — every term is computed with the
// identical IEEE operation sequence and folded into the accumulator in
// the identical order — so callers replacing a plain loop with a batch
// call observe no value change at all, only speed. The unroll wins come
// from amortized loop/bounds overhead, the per-element Kernel call and
// mode switch hoisted out of the loop, and independent divisions/square
// roots in flight together. The code is portable: every GOARCH builds
// and runs the same kernels.
package simd

import "math"

// Kernel evaluates the path-loss attenuation d^-α with a strategy
// specialized at construction time for the exponent's arithmetic shape,
// so the per-pair cost in the resolve inner loops is a couple of
// multiplies (plus at most two square roots) instead of a math.Pow call:
//
//	α = 3            1/(d²·√d²)
//	α = 2            1/d²
//	α = 4            1/(d²·d²)
//	even integer α   inverse integer power of d²
//	odd integer α    integer power of d² times one math.Sqrt
//	half-integer α   integer power of d times one extra math.Sqrt
//	anything else    math.Pow (the general fallback)
//
// All strategies agree with math.Pow(d, -α) to within a few ulps; the
// kernel equivalence tests pin this down. The zero value evaluates
// α = 0 (no attenuation); build real kernels with NewKernel.
type Kernel struct {
	alpha float64
	mode  kernelMode
	m     int // integer payload; meaning depends on mode (see NewKernel)
}

type kernelMode uint8

const (
	kernPow     kernelMode = iota // math.Pow fallback; m unused
	kernInvSq                     // α = 2; m unused
	kernInvQuad                   // α = 4; m unused
	kernEven                      // α = 2m
	kernOdd                       // α = 2m+1
	kernHalf                      // α = m + 1/2
	kernCube                      // α = 3 (the default); m unused
)

// kernMaxInt bounds the integer exponents the multiply strategies
// accept; larger exponents fall back to math.Pow, whose cost no longer
// dominates the accumulated rounding of a long multiply chain.
const kernMaxInt = 64

// NewKernel builds the evaluation strategy for exponent alpha. Any
// finite alpha is accepted; only the strategy choice depends on it.
func NewKernel(alpha float64) Kernel {
	k := Kernel{alpha: alpha, mode: kernPow}
	switch {
	case alpha == 3:
		k.mode = kernCube
	case alpha == 2:
		k.mode = kernInvSq
	case alpha == 4:
		k.mode = kernInvQuad
	case alpha == math.Trunc(alpha) && alpha >= 1 && alpha <= kernMaxInt:
		ia := int(alpha)
		if ia%2 == 0 {
			k.mode, k.m = kernEven, ia/2
		} else {
			k.mode, k.m = kernOdd, (ia-1)/2
		}
	case 2*alpha == math.Trunc(2*alpha) && alpha > 0 && alpha <= kernMaxInt:
		k.mode, k.m = kernHalf, int(alpha)
	}
	return k
}

// Alpha returns the exponent the kernel evaluates.
func (k Kernel) Alpha() float64 { return k.alpha }

// ipow returns x^m for m ≥ 0 by binary exponentiation.
func ipow(x float64, m int) float64 {
	r := 1.0
	for m > 0 {
		if m&1 == 1 {
			r *= x
		}
		x *= x
		m >>= 1
	}
	return r
}

// FromDist2 returns d^-α given the squared distance d² — the natural
// input of the Euclidean fast paths, which never form d itself.
// d² = 0 yields +Inf, matching Params.Signal at distance zero.
//
// Only the default α = 3 is tested inline, so the call stays within
// the inlining budget in the resolve loops (CI checks it with
// -gcflags=-m); every other shape sits behind fromDist2Slow. The α = 3
// body equals the odd shape's 1/(ipow(d², 1)·√d²) bit for bit, since
// ipow(x, 1) computes 1·x.
func (k Kernel) FromDist2(d2 float64) float64 {
	if k.mode == kernCube {
		return 1 / (d2 * math.Sqrt(d2))
	}
	return k.fromDist2Slow(d2)
}

func (k Kernel) fromDist2Slow(d2 float64) float64 {
	switch k.mode {
	case kernInvSq: // α = 2
		return 1 / d2
	case kernInvQuad: // α = 4
		return 1 / (d2 * d2)
	case kernEven: // α = 2m: d^-α = (d²)^-m
		return 1 / ipow(d2, k.m)
	case kernOdd: // α = 2m+1: d^-α = ((d²)^m · √d²)^-1
		return 1 / (ipow(d2, k.m) * math.Sqrt(d2))
	case kernHalf: // α = m+1/2: d^-α = (d^m · √d)^-1, d = √d²
		d := math.Sqrt(d2)
		return 1 / (ipow(d, k.m) * math.Sqrt(d))
	default:
		return math.Pow(d2, -k.alpha/2)
	}
}

// FromDist returns d^-α given the plain distance d — the natural input
// of the generic metric path. d = 0 yields +Inf. Split like FromDist2
// so the α = 3 shape inlines.
func (k Kernel) FromDist(d float64) float64 {
	if k.mode == kernCube {
		return 1 / ((d * d) * d)
	}
	return k.fromDistSlow(d)
}

func (k Kernel) fromDistSlow(d float64) float64 {
	switch k.mode {
	case kernInvSq: // α = 2
		return 1 / (d * d)
	case kernInvQuad: // α = 4
		d2 := d * d
		return 1 / (d2 * d2)
	case kernEven: // α = 2m
		return 1 / ipow(d*d, k.m)
	case kernOdd: // α = 2m+1
		return 1 / (ipow(d*d, k.m) * d)
	case kernHalf: // α = m+1/2
		return 1 / (ipow(d, k.m) * math.Sqrt(d))
	default:
		return math.Pow(d, -k.alpha)
	}
}
