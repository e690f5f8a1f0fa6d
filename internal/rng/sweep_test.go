package rng

import (
	"math"
	"testing"
)

// decaySweep is the Decay-family cycle p[k] = 2^-(1+k). From k = 1074
// on, Ldexp underflows to 0 and Bernoulli makes no draw.
func decaySweep(l int) []float64 {
	p := make([]float64, l)
	for k := range p {
		p[k] = math.Ldexp(1, -(1 + k))
	}
	return p
}

// TestSweepMatchesPerRoundBernoulli: Next fires on exactly the rounds
// a per-round Bernoulli over the same cycle fires on, and leaves the
// stream at the same point, for spans starting at random phases and
// running from empty to several cycles — long enough at L=1100 to cross
// the steps whose probability is 0.
func TestSweepMatchesPerRoundBernoulli(t *testing.T) {
	for _, l := range []int{2, 14, 53, 54, 80, 1100} {
		p := decaySweep(l)
		sw := NewSweep(p)
		for seed := uint64(1); seed <= 8; seed++ {
			pick := New(seed ^ 0x5eed)
			ref, src := New(seed), New(seed)
			u := 0
			for span := 0; span < 12; span++ {
				step0 := pick.Intn(3 * l)
				end := u + pick.Intn(3*l+1)
				var want []int
				for r := u; r < end; r++ {
					if ref.Bernoulli(p[(step0+r-u)%l]) {
						want = append(want, r)
					}
				}
				var got []int
				for r := u; ; {
					s := sw.Next(src, r, step0+r-u, end)
					if s == end {
						break
					}
					if s < r || s > end {
						t.Fatalf("L=%d seed %d: Next from %d returned %d (end %d)", l, seed, r, s, end)
					}
					got = append(got, s)
					r = s + 1
				}
				if len(got) != len(want) {
					t.Fatalf("L=%d seed %d span %d: fired %v, want %v", l, seed, span, got, want)
				}
				for i := range want {
					if got[i] != want[i] {
						t.Fatalf("L=%d seed %d span %d: fired %v, want %v", l, seed, span, got, want)
					}
				}
				u = end
			}
			if a, b := src.Uint64(), ref.Uint64(); a != b {
				t.Fatalf("L=%d seed %d: next Uint64 %#x, want %#x (draw count differs)", l, seed, a, b)
			}
		}
	}
}

// TestSweepSkipsZeroSteps: steps with p ≤ 0 never fire and consume no
// randomness, and an empty span draws nothing.
func TestSweepSkipsZeroSteps(t *testing.T) {
	sw := NewSweep([]float64{0, -1, math.Ldexp(1, -1075)})
	src, ref := New(3), New(3)
	if got := sw.Next(src, 5, 0, 1000); got != 1000 {
		t.Fatalf("all-zero sweep fired at %d", got)
	}
	half := NewSweep([]float64{0.5})
	if got := half.Next(src, 7, 0, 7); got != 7 {
		t.Fatalf("empty span returned %d, want its end 7", got)
	}
	if src.Uint64() != ref.Uint64() {
		t.Fatal("zero-probability steps or an empty span consumed randomness")
	}
}

// TestNewSweepRejects: probabilities Bernoulli answers without the
// threshold test (p ≥ 1) or with a failing draw (NaN), and an empty
// cycle, are programming errors.
func TestNewSweepRejects(t *testing.T) {
	for _, p := range [][]float64{nil, {0.5, 1}, {2}, {math.NaN()}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("NewSweep(%v) did not panic", p)
				}
			}()
			NewSweep(p)
		}()
	}
}
