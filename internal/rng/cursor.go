package rng

// Cursor batches a station's per-round Bernoulli trials. A station that
// would call src.Bernoulli(p) once per round t, t+1, … instead calls
// Fire(src, p, t, end) on each round it is ticked: the first call draws
// ahead, in one tight loop, up to the first success or end, and later
// calls answer from that pre-drawn result. The draws are exactly the
// per-round ones — same values, same order, same stream — so the
// station may sleep until Wake(t) without changing any outcome.
//
// The caller owns the precondition that makes drawing ahead sound: p
// stays fixed and the station keeps drawing on every round of
// [t, end). end must therefore be the end of the span over which the
// per-round code would draw with this p (a flood window, a coloring
// half-segment, a phase, the run budget), never unbounded.
//
// The zero value is ready: nothing is drawn yet.
type Cursor struct {
	// at is the pre-drawn success round, or the end of the drawn span
	// when it holds no success; drawnTo is the first round not yet
	// drawn (at+1 after a success, end otherwise).
	at, drawnTo int
}

// Fire reports whether the trial of round t succeeds, drawing rounds
// t, t+1, … from src up to the first success or end when round t is
// not drawn yet. Rounds must be presented in ascending order; rounds
// skipped between calls were pre-drawn failures. An empty span
// (end <= t) draws nothing and never fires.
func (c *Cursor) Fire(src *Source, p float64, t, end int) bool {
	if t >= c.drawnTo {
		if end <= t {
			return false
		}
		c.draw(src, p, t, end)
	}
	return t == c.at
}

// Wake returns the next round after t at which the cursor's owner must
// draw again: the pending success or the end of the drawn span, else
// t+1.
func (c *Cursor) Wake(t int) int {
	if c.at > t {
		return c.at
	}
	return t + 1
}

// draw fills rounds [t, end) up to the first success. It mirrors
// Bernoulli: no draw for p <= 0 (never fires) or p >= 1 (fires at t);
// otherwise Float64() < p on each draw, compared as the integer test
// u>>11 < ⌈p·2⁵³⌉, which is exact because k·2⁻⁵³ < p ⇔ k < ⌈p·2⁵³⌉
// for an integer k.
func (c *Cursor) draw(src *Source, p float64, t, end int) {
	c.at, c.drawnTo = end, end
	switch {
	case p <= 0:
		return
	case p >= 1:
		c.at, c.drawnTo = t, t+1
		return
	}
	var k uint64 // NaN: every draw fails, as in Bernoulli
	if p == p {
		k = bernoulliThreshold(p)
	}
	for u := t; u < end; u++ {
		if src.Uint64()>>11 < k {
			c.at, c.drawnTo = u, u+1
			return
		}
	}
}

// bernoulliThreshold returns ⌈p·2⁵³⌉ for p in (0, 1): the number of
// 53-bit draws k with k·2⁻⁵³ < p. p·2⁵³ is exact (a power-of-two
// scaling), so the ceiling is too.
func bernoulliThreshold(p float64) uint64 {
	return uint64(ceil(p * (1 << 53)))
}
