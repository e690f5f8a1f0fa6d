package simd

import "math"

// The portable batch kernels below all follow one contract: they are
// bit-identical to the plain scalar loop they replace. Every term is
// built with the exact operation sequence Kernel.FromDist2 performs for
// the mode (the specialized bodies are unfolded copies — e.g. ipow(d,2)
// evaluates 1·(d·d), which is IEEE-identical to d*d — pinned by the
// batch equivalence tests), and terms fold into the accumulator
// strictly left to right. The unrolled bodies only widen the window of
// independent divisions/square roots the CPU can keep in flight and
// hoist the per-element mode dispatch and bounds checks out of the
// loop.

// FarSum returns Σ p[i] · k.FromDist2((upx-x[i])² + (upy-y[i])²) with
// scalar left-to-right accumulation — the far-field frontier replay of
// the hierarchical engine. x, y and p must have equal length.
func (k Kernel) FarSum(upx, upy float64, x, y, p []float64) float64 {
	switch k.mode {
	case kernInvSq:
		return farSumInvSq(upx, upy, x, y, p)
	case kernInvQuad:
		return farSumInvQuad(upx, upy, x, y, p)
	case kernHalf:
		if k.m == 2 { // α = 2.5: ipow(d, 2) ≡ d·d
			return farSumHalf2(upx, upy, x, y, p)
		}
	}
	return k.farSumGeneric(upx, upy, x, y, p)
}

// farSumInvSq is the α=2 replay: 8-wide, because the loop is bound by
// division throughput and eight independent reciprocals overlap well.
func farSumInvSq(upx, upy float64, x, y, p []float64) float64 {
	n := len(x)
	y = y[:n]
	p = p[:n]
	sum := 0.0
	i := 0
	for ; i+8 <= n; i += 8 {
		dx0, dy0 := upx-x[i], upy-y[i]
		dx1, dy1 := upx-x[i+1], upy-y[i+1]
		dx2, dy2 := upx-x[i+2], upy-y[i+2]
		dx3, dy3 := upx-x[i+3], upy-y[i+3]
		dx4, dy4 := upx-x[i+4], upy-y[i+4]
		dx5, dy5 := upx-x[i+5], upy-y[i+5]
		dx6, dy6 := upx-x[i+6], upy-y[i+6]
		dx7, dy7 := upx-x[i+7], upy-y[i+7]
		t0 := p[i] * (1 / (dx0*dx0 + dy0*dy0))
		t1 := p[i+1] * (1 / (dx1*dx1 + dy1*dy1))
		t2 := p[i+2] * (1 / (dx2*dx2 + dy2*dy2))
		t3 := p[i+3] * (1 / (dx3*dx3 + dy3*dy3))
		t4 := p[i+4] * (1 / (dx4*dx4 + dy4*dy4))
		t5 := p[i+5] * (1 / (dx5*dx5 + dy5*dy5))
		t6 := p[i+6] * (1 / (dx6*dx6 + dy6*dy6))
		t7 := p[i+7] * (1 / (dx7*dx7 + dy7*dy7))
		sum += t0
		sum += t1
		sum += t2
		sum += t3
		sum += t4
		sum += t5
		sum += t6
		sum += t7
	}
	for ; i < n; i++ {
		dx, dy := upx-x[i], upy-y[i]
		sum += p[i] * (1 / (dx*dx + dy*dy))
	}
	return sum
}

// farSumInvQuad is the α=4 replay: 8-wide like α=2.
func farSumInvQuad(upx, upy float64, x, y, p []float64) float64 {
	n := len(x)
	y = y[:n]
	p = p[:n]
	sum := 0.0
	i := 0
	for ; i+8 <= n; i += 8 {
		dx0, dy0 := upx-x[i], upy-y[i]
		dx1, dy1 := upx-x[i+1], upy-y[i+1]
		dx2, dy2 := upx-x[i+2], upy-y[i+2]
		dx3, dy3 := upx-x[i+3], upy-y[i+3]
		dx4, dy4 := upx-x[i+4], upy-y[i+4]
		dx5, dy5 := upx-x[i+5], upy-y[i+5]
		dx6, dy6 := upx-x[i+6], upy-y[i+6]
		dx7, dy7 := upx-x[i+7], upy-y[i+7]
		d20 := dx0*dx0 + dy0*dy0
		d21 := dx1*dx1 + dy1*dy1
		d22 := dx2*dx2 + dy2*dy2
		d23 := dx3*dx3 + dy3*dy3
		d24 := dx4*dx4 + dy4*dy4
		d25 := dx5*dx5 + dy5*dy5
		d26 := dx6*dx6 + dy6*dy6
		d27 := dx7*dx7 + dy7*dy7
		t0 := p[i] * (1 / (d20 * d20))
		t1 := p[i+1] * (1 / (d21 * d21))
		t2 := p[i+2] * (1 / (d22 * d22))
		t3 := p[i+3] * (1 / (d23 * d23))
		t4 := p[i+4] * (1 / (d24 * d24))
		t5 := p[i+5] * (1 / (d25 * d25))
		t6 := p[i+6] * (1 / (d26 * d26))
		t7 := p[i+7] * (1 / (d27 * d27))
		sum += t0
		sum += t1
		sum += t2
		sum += t3
		sum += t4
		sum += t5
		sum += t6
		sum += t7
	}
	for ; i < n; i++ {
		dx, dy := upx-x[i], upy-y[i]
		d2 := dx*dx + dy*dy
		sum += p[i] * (1 / (d2 * d2))
	}
	return sum
}

// farSumHalf2 is the α=2.5 replay: d=√d², 1/((d·d)·√d) per term, 4-wide.
func farSumHalf2(upx, upy float64, x, y, p []float64) float64 {
	n := len(x)
	y = y[:n]
	p = p[:n]
	sum := 0.0
	i := 0
	for ; i+4 <= n; i += 4 {
		dx0, dy0 := upx-x[i], upy-y[i]
		dx1, dy1 := upx-x[i+1], upy-y[i+1]
		dx2, dy2 := upx-x[i+2], upy-y[i+2]
		dx3, dy3 := upx-x[i+3], upy-y[i+3]
		d0 := math.Sqrt(dx0*dx0 + dy0*dy0)
		d1 := math.Sqrt(dx1*dx1 + dy1*dy1)
		d2 := math.Sqrt(dx2*dx2 + dy2*dy2)
		d3 := math.Sqrt(dx3*dx3 + dy3*dy3)
		t0 := p[i] * (1 / ((d0 * d0) * math.Sqrt(d0)))
		t1 := p[i+1] * (1 / ((d1 * d1) * math.Sqrt(d1)))
		t2 := p[i+2] * (1 / ((d2 * d2) * math.Sqrt(d2)))
		t3 := p[i+3] * (1 / ((d3 * d3) * math.Sqrt(d3)))
		sum += t0
		sum += t1
		sum += t2
		sum += t3
	}
	for ; i < n; i++ {
		dx, dy := upx-x[i], upy-y[i]
		d := math.Sqrt(dx*dx + dy*dy)
		sum += p[i] * (1 / ((d * d) * math.Sqrt(d)))
	}
	return sum
}

// farSumGeneric covers the remaining kernel shapes — the default α=3
// among them — as a plain loop with the FromDist2 call per element,
// like nearSumGeneric. Measured against a 4-wide body and the former
// α=3 specialisation (BenchmarkFrontierReplay), the plain loop is the
// fastest of the three for every shape it serves.
func (k Kernel) farSumGeneric(upx, upy float64, x, y, p []float64) float64 {
	n := len(x)
	y = y[:n]
	p = p[:n]
	sum := 0.0
	for i := 0; i < n; i++ {
		dx, dy := upx-x[i], upy-y[i]
		sum += p[i] * k.FromDist2(dx*dx+dy*dy)
	}
	return sum
}

// NearScanIndexed continues a uniform-power exact scan over an id list
// with gathered coordinates (element i lives at (ptsX[ids[i]],
// ptsY[ids[i]])): starting from the running (total, bestD2) it folds
// pw·k.FromDist2(d²(u, i)) for every element in order and tracks the
// strict argmin of d² (first index wins ties). It returns the updated
// total, the station id of the new best element (-1 if none beat the
// incoming bestD2), and the updated bestD2 — bit-identical to the
// scalar loop, in the shape of the grid engine's per-cell near loops,
// where the transmitter list is ids and coordinates live in the
// engine's station slabs.
func (k Kernel) NearScanIndexed(pw, upx, upy float64, ids []int32, ptsX, ptsY []float64, total, bestD2 float64) (float64, int32, float64) {
	best := int32(-1)
	i := 0
	n := len(ids)
	for ; i+4 <= n; i += 4 {
		id0, id1, id2, id3 := ids[i], ids[i+1], ids[i+2], ids[i+3]
		dx0, dy0 := upx-ptsX[id0], upy-ptsY[id0]
		dx1, dy1 := upx-ptsX[id1], upy-ptsY[id1]
		dx2, dy2 := upx-ptsX[id2], upy-ptsY[id2]
		dx3, dy3 := upx-ptsX[id3], upy-ptsY[id3]
		d20 := dx0*dx0 + dy0*dy0
		d21 := dx1*dx1 + dy1*dy1
		d22 := dx2*dx2 + dy2*dy2
		d23 := dx3*dx3 + dy3*dy3
		total += pw * k.FromDist2(d20)
		if d20 < bestD2 {
			bestD2, best = d20, id0
		}
		total += pw * k.FromDist2(d21)
		if d21 < bestD2 {
			bestD2, best = d21, id1
		}
		total += pw * k.FromDist2(d22)
		if d22 < bestD2 {
			bestD2, best = d22, id2
		}
		total += pw * k.FromDist2(d23)
		if d23 < bestD2 {
			bestD2, best = d23, id3
		}
	}
	for ; i < n; i++ {
		id := ids[i]
		dx, dy := upx-ptsX[id], upy-ptsY[id]
		d2 := dx*dx + dy*dy
		total += pw * k.FromDist2(d2)
		if d2 < bestD2 {
			bestD2, best = d2, id
		}
	}
	return total, best, bestD2
}

// AccumRow folds one transmitter at (tx0, ty0) into the exact engine's
// per-receiver accumulators for a contiguous receiver range: for every
// non-transmitting receiver i it adds pw·k.FromDist2(d²) to sig[i] and
// updates (bestD[i], best[i]) on a strict d² improvement. Each element
// is updated independently (no cross-element accumulation), so any
// unroll is trivially bit-exact; the win is the hoisted kernel dispatch
// and four independent divisions in flight. All slices must have the
// length of x.
func (k Kernel) AccumRow(pw, tx0, ty0 float64, t int32, x, y []float64, isTx []bool, sig, bestD []float64, best []int32) {
	n := len(x)
	y = y[:n]
	isTx = isTx[:n]
	sig = sig[:n]
	bestD = bestD[:n]
	best = best[:n]
	switch k.mode {
	case kernInvSq:
		for i := 0; i < n; i++ {
			if isTx[i] {
				continue
			}
			dx := x[i] - tx0
			dy := y[i] - ty0
			d2 := dx*dx + dy*dy
			sig[i] += pw * (1 / d2)
			if d2 < bestD[i] {
				bestD[i] = d2
				best[i] = t
			}
		}
	case kernInvQuad:
		for i := 0; i < n; i++ {
			if isTx[i] {
				continue
			}
			dx := x[i] - tx0
			dy := y[i] - ty0
			d2 := dx*dx + dy*dy
			sig[i] += pw * (1 / (d2 * d2))
			if d2 < bestD[i] {
				bestD[i] = d2
				best[i] = t
			}
		}
	case kernHalf:
		if k.m == 2 {
			for i := 0; i < n; i++ {
				if isTx[i] {
					continue
				}
				dx := x[i] - tx0
				dy := y[i] - ty0
				d2 := dx*dx + dy*dy
				d := math.Sqrt(d2)
				sig[i] += pw * (1 / ((d * d) * math.Sqrt(d)))
				if d2 < bestD[i] {
					bestD[i] = d2
					best[i] = t
				}
			}
			return
		}
		fallthrough
	default:
		for i := 0; i < n; i++ {
			if isTx[i] {
				continue
			}
			dx := x[i] - tx0
			dy := y[i] - ty0
			d2 := dx*dx + dy*dy
			sig[i] += pw * k.FromDist2(d2)
			if d2 < bestD[i] {
				bestD[i] = d2
				best[i] = t
			}
		}
	}
}

// ArgMin scans a coordinate slab for the strict argmin of squared
// distance to (upx, upy), continuing from an incoming bestD2 (first
// index wins ties; -1 when no element improves it). It involves no
// kernel math at all — subtract, multiply, compare — which makes it the
// cheap rejection pass of the hierarchical receiver loop, run over each
// row of a receiver's candidate box with bestD2 carried across rows: a
// station whose nearest transmitter sits outside the communication
// range is dismissed without paying a single divide or square root, and
// only decode candidates go on to the NearSum kernel fold.
func ArgMin(upx, upy float64, x, y []float64, bestD2 float64) (int, float64) {
	n := len(x)
	y = y[:n]
	best := -1
	i := 0
	for ; i+8 <= n; i += 8 {
		dx0, dy0 := upx-x[i], upy-y[i]
		dx1, dy1 := upx-x[i+1], upy-y[i+1]
		dx2, dy2 := upx-x[i+2], upy-y[i+2]
		dx3, dy3 := upx-x[i+3], upy-y[i+3]
		dx4, dy4 := upx-x[i+4], upy-y[i+4]
		dx5, dy5 := upx-x[i+5], upy-y[i+5]
		dx6, dy6 := upx-x[i+6], upy-y[i+6]
		dx7, dy7 := upx-x[i+7], upy-y[i+7]
		d20 := dx0*dx0 + dy0*dy0
		d21 := dx1*dx1 + dy1*dy1
		d22 := dx2*dx2 + dy2*dy2
		d23 := dx3*dx3 + dy3*dy3
		d24 := dx4*dx4 + dy4*dy4
		d25 := dx5*dx5 + dy5*dy5
		d26 := dx6*dx6 + dy6*dy6
		d27 := dx7*dx7 + dy7*dy7
		if d20 < bestD2 {
			bestD2, best = d20, i
		}
		if d21 < bestD2 {
			bestD2, best = d21, i+1
		}
		if d22 < bestD2 {
			bestD2, best = d22, i+2
		}
		if d23 < bestD2 {
			bestD2, best = d23, i+3
		}
		if d24 < bestD2 {
			bestD2, best = d24, i+4
		}
		if d25 < bestD2 {
			bestD2, best = d25, i+5
		}
		if d26 < bestD2 {
			bestD2, best = d26, i+6
		}
		if d27 < bestD2 {
			bestD2, best = d27, i+7
		}
	}
	for ; i < n; i++ {
		dx, dy := upx-x[i], upy-y[i]
		d2 := dx*dx + dy*dy
		if d2 < bestD2 {
			bestD2, best = d2, i
		}
	}
	return best, bestD2
}

// NearSum folds pw·k.FromDist2(d²(u, i)) over a coordinate slab in
// index order starting from total, bit-identical to the scalar loop.
// Paired with ArgMin it splits the near-field scan into rejection and
// accumulation passes whose combined result is bit-identical to a
// fused scan, because the argmin never feeds the float fold.
func (k Kernel) NearSum(pw, upx, upy float64, x, y []float64, total float64) float64 {
	switch k.mode {
	case kernInvSq:
		return nearSumInvSq(pw, upx, upy, x, y, total)
	case kernInvQuad:
		return nearSumInvQuad(pw, upx, upy, x, y, total)
	case kernHalf:
		if k.m == 2 {
			return nearSumHalf2(pw, upx, upy, x, y, total)
		}
	}
	return k.nearSumGeneric(pw, upx, upy, x, y, total)
}

func nearSumInvSq(pw, upx, upy float64, x, y []float64, total float64) float64 {
	n := len(x)
	y = y[:n]
	i := 0
	for ; i+4 <= n; i += 4 {
		dx0, dy0 := upx-x[i], upy-y[i]
		dx1, dy1 := upx-x[i+1], upy-y[i+1]
		dx2, dy2 := upx-x[i+2], upy-y[i+2]
		dx3, dy3 := upx-x[i+3], upy-y[i+3]
		d20 := dx0*dx0 + dy0*dy0
		d21 := dx1*dx1 + dy1*dy1
		d22 := dx2*dx2 + dy2*dy2
		d23 := dx3*dx3 + dy3*dy3
		total += pw * (1 / d20)
		total += pw * (1 / d21)
		total += pw * (1 / d22)
		total += pw * (1 / d23)
	}
	for ; i < n; i++ {
		dx, dy := upx-x[i], upy-y[i]
		d2 := dx*dx + dy*dy
		total += pw * (1 / d2)
	}
	return total
}

func nearSumInvQuad(pw, upx, upy float64, x, y []float64, total float64) float64 {
	n := len(x)
	y = y[:n]
	i := 0
	for ; i+4 <= n; i += 4 {
		dx0, dy0 := upx-x[i], upy-y[i]
		dx1, dy1 := upx-x[i+1], upy-y[i+1]
		dx2, dy2 := upx-x[i+2], upy-y[i+2]
		dx3, dy3 := upx-x[i+3], upy-y[i+3]
		d20 := dx0*dx0 + dy0*dy0
		d21 := dx1*dx1 + dy1*dy1
		d22 := dx2*dx2 + dy2*dy2
		d23 := dx3*dx3 + dy3*dy3
		total += pw * (1 / (d20 * d20))
		total += pw * (1 / (d21 * d21))
		total += pw * (1 / (d22 * d22))
		total += pw * (1 / (d23 * d23))
	}
	for ; i < n; i++ {
		dx, dy := upx-x[i], upy-y[i]
		d2 := dx*dx + dy*dy
		total += pw * (1 / (d2 * d2))
	}
	return total
}

func nearSumHalf2(pw, upx, upy float64, x, y []float64, total float64) float64 {
	n := len(x)
	y = y[:n]
	i := 0
	for ; i+4 <= n; i += 4 {
		dx0, dy0 := upx-x[i], upy-y[i]
		dx1, dy1 := upx-x[i+1], upy-y[i+1]
		dx2, dy2 := upx-x[i+2], upy-y[i+2]
		dx3, dy3 := upx-x[i+3], upy-y[i+3]
		d0 := math.Sqrt(dx0*dx0 + dy0*dy0)
		d1 := math.Sqrt(dx1*dx1 + dy1*dy1)
		d2 := math.Sqrt(dx2*dx2 + dy2*dy2)
		d3 := math.Sqrt(dx3*dx3 + dy3*dy3)
		total += pw * (1 / ((d0 * d0) * math.Sqrt(d0)))
		total += pw * (1 / ((d1 * d1) * math.Sqrt(d1)))
		total += pw * (1 / ((d2 * d2) * math.Sqrt(d2)))
		total += pw * (1 / ((d3 * d3) * math.Sqrt(d3)))
	}
	for ; i < n; i++ {
		dx, dy := upx-x[i], upy-y[i]
		d := math.Sqrt(dx*dx + dy*dy)
		total += pw * (1 / ((d * d) * math.Sqrt(d)))
	}
	return total
}

func (k Kernel) nearSumGeneric(pw, upx, upy float64, x, y []float64, total float64) float64 {
	n := len(x)
	y = y[:n]
	for i := 0; i < n; i++ {
		dx, dy := upx-x[i], upy-y[i]
		total += pw * k.FromDist2(dx*dx+dy*dy)
	}
	return total
}
