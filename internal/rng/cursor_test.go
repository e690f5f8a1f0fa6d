package rng

import (
	"math"
	"testing"
)

// cursorProbs and cursorWindows span the probabilities and window
// lengths the batched-draw equivalence must hold for: the clamped ends,
// a probability so small the window never fires, the protocol range,
// a certain success on every round, and NaN (drawn, never a success).
var (
	cursorProbs   = []float64{0, 1e-9, 0.03, 0.5, 0.9, 1, math.NaN()}
	cursorWindows = []int{0, 1, 1000}
)

// window is one span [start, start+length) drawn with a fixed p.
type window struct {
	p             float64
	start, length int
}

// cursorWindowsFor lays the window lengths back to back for every p,
// so the cursor carries state from one span into the next (including
// across empty spans), as a station's token windows and half-segments
// do.
func cursorWindowsFor() []window {
	var ws []window
	t := 0
	for _, p := range cursorProbs {
		for _, l := range cursorWindows {
			ws = append(ws, window{p, t, l})
			t += l
		}
	}
	return ws
}

// perRound is the reference: one Bernoulli draw per round.
func perRound(src *Source, ws []window) map[int]bool {
	fired := map[int]bool{}
	for _, w := range ws {
		for t := w.start; t < w.start+w.length; t++ {
			if src.Bernoulli(w.p) {
				fired[t] = true
			}
		}
	}
	return fired
}

// TestCursorMatchesPerRoundBernoulli drives the cursor the two ways a
// station does — ticked on every round (scheduling off) and sleeping
// from one Wake to the next, with extra early ticks as receptions
// cause — and checks both fire on exactly the per-round Bernoulli
// successes and leave the source at the same point in its stream.
func TestCursorMatchesPerRoundBernoulli(t *testing.T) {
	ws := cursorWindowsFor()
	for seed := uint64(1); seed <= 20; seed++ {
		ref := New(seed)
		want := perRound(ref, ws)
		next := ref.Uint64()

		for _, mode := range []string{"every-round", "sleep", "sleep+early"} {
			src := New(seed)
			early := New(seed ^ 0xabc)
			var c Cursor
			got := map[int]bool{}
			for _, w := range ws {
				end := w.start + w.length
				for r := w.start; r < end; {
					if c.Fire(src, w.p, r, end) {
						if got[r] {
							t.Fatalf("seed %d %s: round %d fired twice", seed, mode, r)
						}
						got[r] = true
					}
					wake := c.Wake(r)
					if wake <= r {
						t.Fatalf("seed %d %s: Wake(%d) = %d", seed, mode, r, wake)
					}
					switch mode {
					case "every-round":
						r++
					case "sleep":
						r = wake
					default:
						if wake > r+1 && early.Bernoulli(0.2) {
							r += 1 + early.Intn(wake-r-1)
						} else {
							r = wake
						}
					}
				}
			}
			if len(got) != len(want) {
				t.Fatalf("seed %d %s: %d fires, want %d", seed, mode, len(got), len(want))
			}
			for r := range want {
				if !got[r] {
					t.Fatalf("seed %d %s: round %d did not fire", seed, mode, r)
				}
			}
			if v := src.Uint64(); v != next {
				t.Fatalf("seed %d %s: next Uint64 %#x, want %#x (draw count differs)", seed, mode, v, next)
			}
		}
	}
}

// TestCursorFiresPendingThenRedraws pins the pitfall of drawing ahead:
// the round holding the pre-drawn success must fire — a redraw there
// would drop it — and only the round after it draws again.
func TestCursorFiresPendingThenRedraws(t *testing.T) {
	ref, src := New(7), New(7)
	var c Cursor
	const end = 1000
	first := -1
	for r := 0; r < end; r++ {
		if ref.Bernoulli(0.03) {
			first = r
			break
		}
	}
	if first < 1 {
		t.Fatalf("seed gives first success at %d; pick one with a gap", first)
	}
	if c.Fire(src, 0.03, 0, end) {
		t.Fatal("round 0 fired")
	}
	if w := c.Wake(0); w != first {
		t.Fatalf("Wake(0) = %d, want the pending success %d", w, first)
	}
	if !c.Fire(src, 0.03, first, end) {
		t.Fatalf("pending success at %d did not fire", first)
	}
	if w := c.Wake(first); w != first+1 {
		t.Fatalf("Wake after firing = %d, want %d", w, first+1)
	}
	second := -1
	for r := first + 1; r < end; r++ {
		if ref.Bernoulli(0.03) {
			second = r
			break
		}
	}
	c.Fire(src, 0.03, first+1, end)
	if w := c.Wake(first + 1); second > first+1 && w != second {
		t.Fatalf("after redraw Wake = %d, want next success %d", w, second)
	}
}

// TestBernoulliThresholdExact pins the integer comparison the cursor
// uses in place of Float64() < p: for every 53-bit draw k,
// k·2⁻⁵³ < p ⇔ k < ⌈p·2⁵³⌉. It checks the draws on both sides of the
// threshold for probabilities that are and are not multiples of 2⁻⁵³.
func TestBernoulliThresholdExact(t *testing.T) {
	probs := append([]float64{}, cursorProbs...)
	probs = append(probs,
		0x1p-53, 3*0x1p-53, 0.25, 1.0/3, math.Nextafter(1, 0), math.Nextafter(0.5, 1), 0x1p-60)
	src := New(3)
	for i := 0; i < 200; i++ {
		probs = append(probs, src.Float64())
	}
	for _, p := range probs {
		if !(p > 0 && p < 1) {
			continue
		}
		k := bernoulliThreshold(p)
		for _, d := range []int64{-2, -1, 0, 1} {
			u := int64(k) + d
			if u < 0 || u >= 1<<53 {
				continue
			}
			float := float64(u)/(1<<53) < p
			integer := uint64(u) < k
			if float != integer {
				t.Fatalf("p=%v k=%d draw %d: Float64()<p is %v, integer test %v", p, k, u, float, integer)
			}
		}
	}
}
