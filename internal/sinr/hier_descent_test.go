package sinr

import "math"

// The per-receiver descent oracle of the hierarchical engine: every
// receiver walks the pyramid from the root on its own and folds its
// near and far sums in plain element loops. The production path shares
// one descent per receiver block, replays the frontier through the simd
// batch kernels and caches slabs and far sums across rounds; the
// equivalence tests require the two to agree bit for bit (see
// HierEngine.ResolveDescentForTest).

// collectOne resolves receiver u with its own full pyramid descent and
// plain scalar folds, applying the same block-rectangle θ
// classification and union near box as buildFrontier, so its output
// must be bit-identical to the engine's memoized batch-kernel replay.
// It shares no slab, cache or kernel with that replay: only the round's
// aggregation state (cell lists and pyramid) is common to both.
func (h *HierEngine) collectOne(u int, dst []Reception) []Reception {
	if h.hotCnt[h.blockOf[u]] == 0 || h.isTx[u] {
		return dst
	}
	p := h.params
	pw := p.Power()
	kern := h.kern
	nc := h.nearCells
	upx, upy := h.ptsX[u], h.ptsY[u]
	bx0, by0, bx1, by1 := h.blockCellRange(h.blockOf[u])

	// Near field first: exact per-transmitter sums over the block's
	// union near box, which also finds the decoding candidate. If no
	// candidate lies within the communication range the round is over
	// for u and the far-field descent is skipped entirely.
	total := 0.0
	bestD2 := math.Inf(1)
	best := int32(-1)
	y0, y1 := max(by0-nc, 0), min(by1+nc, h.rows-1)
	x0, x1 := max(bx0-nc, 0), min(bx1+nc, h.cols-1)
	for cy := y0; cy <= y1; cy++ {
		row := cy * h.cols
		for cx := x0; cx <= x1; cx++ {
			for k := h.cellHead[row+cx]; k >= 0; k = h.txNext[k] {
				t := int32(h.prevTx[k])
				dx := upx - h.ptsX[t]
				dy := upy - h.ptsY[t]
				d2 := dx*dx + dy*dy
				total += pw * kern.FromDist2(d2)
				if d2 < bestD2 {
					bestD2 = d2
					best = t
				}
			}
		}
	}
	if best < 0 || bestD2 > 1 {
		return dst
	}

	total += h.farField(upx, upy, bx0, by0, bx1, by1)

	s := pw * kern.FromDist2(bestD2)
	intf := total - s
	if intf < 0 {
		intf = 0
	}
	if p.Decodes(s, intf) {
		dst = append(dst, Reception{Receiver: u, Transmitter: int(best)})
	}
	return dst
}

// farField sums the approximated interference outside the union near
// box of the receiver at (upx,upy), whose block has cell extent
// [bx0c,bx1c]×[by0c,by1c], by descending the pyramid from the root
// with buildFrontier's block-rectangle classification — one receiver's
// private replay of exactly the descent the frontier shares across the
// block. The DFS stack is bounded by 3 pending siblings per level;
// 4·levels slots leave slack for the root.
func (h *HierEngine) farField(upx, upy float64, bx0c, by0c, bx1c, by1c int) float64 {
	kern := h.kern
	theta2 := h.theta2
	nc := h.nearCells
	rx0 := h.minX + float64(bx0c)*h.cellSize - h.rectPad
	rx1 := h.minX + float64(bx1c+1)*h.cellSize + h.rectPad
	ry0 := h.minY + float64(by0c)*h.cellSize - h.rectPad
	ry1 := h.minY + float64(by1c+1)*h.cellSize + h.rectPad
	var stackBuf [160]pyrNode
	stack := stackBuf[:0]
	top := len(h.levels) - 1
	if h.levels[top].pow[0] != 0 {
		stack = append(stack, pyrNode{lv: int32(top), idx: 0})
	}
	sum := 0.0
	for len(stack) > 0 {
		nd := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		lv := &h.levels[nd.lv]
		nx, ny := int(nd.idx)%lv.cols, int(nd.idx)/lv.cols
		// Base-cell extent of the node: [bx0, bx1] × [by0, by1].
		shift := uint(nd.lv)
		bx0, by0 := nx<<shift, ny<<shift
		bx1, by1 := bx0+(1<<shift)-1, by0+(1<<shift)-1
		outsideNear := bx0 > bx1c+nc || bx1 < bx0c-nc || by0 > by1c+nc || by1 < by0c-nc
		if outsideNear {
			pow := lv.pow[nd.idx]
			cx := lv.px[nd.idx] / pow
			cy := lv.py[nd.idx] / pow
			accept := nd.lv == 0
			if !accept {
				dxn, dyn := 0.0, 0.0
				if cx < rx0 {
					dxn = rx0 - cx
				} else if cx > rx1 {
					dxn = cx - rx1
				}
				if cy < ry0 {
					dyn = ry0 - cy
				} else if cy > ry1 {
					dyn = cy - ry1
				}
				accept = lv.diam2 <= theta2*(dxn*dxn+dyn*dyn)
			}
			if accept {
				dx := upx - cx
				dy := upy - cy
				sum += pow * kern.FromDist2(dx*dx+dy*dy)
				continue
			}
		} else if nd.lv == 0 {
			continue // inside the near box: summed exactly already
		}
		// Recurse into the 2×2 children.
		child := &h.levels[nd.lv-1]
		cx0, cy0 := nx*2, ny*2
		for dy := 0; dy < 2; dy++ {
			for dx := 0; dx < 2; dx++ {
				cx, cy := cx0+dx, cy0+dy
				if cx >= child.cols || cy >= child.rows {
					continue
				}
				ci := int32(cy*child.cols + cx)
				if child.pow[ci] != 0 {
					stack = append(stack, pyrNode{lv: nd.lv - 1, idx: ci})
				}
			}
		}
	}
	return sum
}
