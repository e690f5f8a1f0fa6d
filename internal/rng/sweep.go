package rng

import "fmt"

// Sweep draws a station's trials ahead through a cyclic schedule of
// per-round probabilities: step k of the cycle succeeds with
// probability p[k mod L]. A station that would call src.Bernoulli(p of
// its step) once per round instead calls Next when it needs its next
// success and sleeps until then. The draws are exactly the per-round
// ones — same values, same order, same stream, and no draw on a step
// whose p ≤ 0 — so no outcome changes.
//
// A Sweep holds only the precomputed thresholds; it is read-only after
// NewSweep, so one table serves every station of a run, each keeping
// its own position (the round it next succeeds in) as its cursor.
type Sweep struct {
	// thr[k] is ⌈p[k]·2⁵³⌉ (see bernoulliThreshold), or 0 for p[k] ≤ 0:
	// a positive p always has a threshold of at least 1, so 0 marks the
	// steps Bernoulli answers without a draw.
	thr []uint64
}

// NewSweep precomputes the thresholds of the cycle p. Every p must be
// below 1: Bernoulli fires on p ≥ 1 without a draw and makes a draw
// that fails on NaN, neither of which a sweep needs, so both panic. p
// must not be empty.
func NewSweep(p []float64) *Sweep {
	if len(p) == 0 {
		panic("rng: empty sweep")
	}
	thr := make([]uint64, len(p))
	for k, pk := range p {
		switch {
		case pk != pk || pk >= 1:
			panic(fmt.Sprintf("rng: sweep probability %v outside [0, 1)", pk))
		case pk > 0:
			thr[k] = bernoulliThreshold(pk)
		}
	}
	return &Sweep{thr: thr}
}

// Next returns the first round u in [from, end) whose trial succeeds,
// where round from is step `step` (≥ 0, reduced mod L) of the cycle,
// drawing from src the per-round Bernoulli draws of rounds from, …, u.
// It returns end when no round of the span succeeds (having drawn the
// whole span), and draws nothing when end <= from.
func (s *Sweep) Next(src *Source, from, step, end int) int {
	thr := s.thr
	k := step % len(thr)
	for u := from; u < end; u++ {
		if th := thr[k]; th != 0 && src.Uint64()>>11 < th {
			return u
		}
		if k++; k == len(thr) {
			k = 0
		}
	}
	return end
}
