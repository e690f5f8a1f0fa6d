package sinr

import (
	"fmt"
	"math"

	"sinrcast/internal/geom"
)

// maxCellBlowup bounds how many grid cells an engine may allocate
// relative to the station count. A legitimate deployment has cell
// counts within a small factor of n (cells are sized near the
// communication radius); a pathological bounding box — two stations a
// million units apart with a 0.5-unit cell — would otherwise allocate
// gigabytes of empty cells before the first round runs.
const maxCellBlowup = 64

// cellBudget is the maximum cell count gridDims accepts for n
// stations; fitCellSize coarsens the auto-engine cell size against the
// same bound, so the two can never disagree.
func cellBudget(n int) float64 { return maxCellBlowup*float64(n) + 1024 }

// gridDims computes the cell-grid geometry shared by GridEngine and
// HierEngine: the bounding box of the points and the column/row counts
// at the given cell size. It rejects empty point sets, non-finite
// coordinates and cell counts beyond cellBudget — the cheap validation
// that keeps sparse-bounding-box pathologies from turning into huge
// allocations.
func gridDims(pts []geom.Point, cellSize float64) (cols, rows int, minX, minY float64, err error) {
	if len(pts) == 0 {
		return 0, 0, 0, 0, fmt.Errorf("sinr: empty point set")
	}
	minX, minY = math.Inf(1), math.Inf(1)
	maxX, maxY := math.Inf(-1), math.Inf(-1)
	for _, q := range pts {
		minX = math.Min(minX, q.X)
		minY = math.Min(minY, q.Y)
		maxX = math.Max(maxX, q.X)
		maxY = math.Max(maxY, q.Y)
	}
	if math.IsInf(minX, 0) || math.IsInf(minY, 0) || math.IsInf(maxX, 0) || math.IsInf(maxY, 0) ||
		math.IsNaN(minX) || math.IsNaN(minY) || math.IsNaN(maxX) || math.IsNaN(maxY) {
		return 0, 0, 0, 0, fmt.Errorf("sinr: non-finite station coordinates")
	}
	// Validate the cell count in float space before any int conversion:
	// a huge span divided by a small cell would overflow int (and the
	// allocation below) long before it described a real deployment.
	fcols := math.Floor((maxX-minX)/cellSize) + 1
	frows := math.Floor((maxY-minY)/cellSize) + 1
	if fcols*frows > cellBudget(len(pts)) {
		return 0, 0, 0, 0, fmt.Errorf(
			"sinr: %.0f×%.0f cells of size %v for %d stations (bounding box %.4g×%.4g) exceeds the %d×n cell budget; increase cellSize or use the exact engine",
			fcols, frows, cellSize, len(pts), maxX-minX, maxY-minY, maxCellBlowup)
	}
	return int(fcols), int(frows), minX, minY, nil
}

// GridEngine resolves rounds approximately for Euclidean networks: the
// plane is bucketed into cells of side cellSize; interference from cells
// farther than nearRadius is approximated by the cell's aggregate power
// placed at its center. Near-field interference (and the decoding
// candidate) stay exact, so approximation error only perturbs the far
// tail, which decays as d^-α with α > 2.
//
// Like Engine, path loss goes through the specialized Kernel and the
// per-receiver loop splits into chunks run by the worker pool on large
// networks, with byte-identical output for every worker count. A
// GridEngine is not safe for concurrent use by multiple goroutines;
// Clone gives each goroutine its own engine over the shared topology.
//
// The per-receiver far-field cost is O(liveCells): every cell holding a
// transmitter is visited per receiver. HierEngine replaces that scan
// with an O(log cells) pyramid descent — prefer it beyond ~32k
// stations (see AutoEngine). The exact Engine remains the default
// everywhere correctness matters; TestGridEngineAgreement measures the
// disagreement rate against it.
type GridEngine struct {
	*gridTopo

	workers      int
	minParallelN int
	par          chunkRunner
	chunkFn      func(chunk, worker int)
	chunkForFn   func(chunk, worker int)

	// per-round scratch
	cellPower []float64
	txInCell  [][]int32
	isTx      []bool
	liveCells []int32
	curRecv   []int // receiver subset of the ResolveFor round being chunked
	solo      soloMemo
	out       []Reception
}

// gridTopo is the immutable half of a GridEngine: parameters, position
// slabs and the cell geometry (station→cell map, per-cell CSR, cell
// centers), all fixed at construction. Clones share one gridTopo and
// allocate only the mutable per-round state.
type gridTopo struct {
	params Params
	kern   Kernel
	pts    []geom.Point
	// ptsX/ptsY are structure-of-arrays coordinate slabs of pts; the
	// near-field inner loop streams them without loading Point structs.
	ptsX     []float64
	ptsY     []float64
	cellSize float64
	nearR2   float64
	// nearCells is the near-field box radius in cells: the exact region
	// must cover all cells intersecting the nearRadius ball, and padding
	// by one cell diagonal is enough. Fixed at construction (it depends
	// only on nearRadius and cellSize).
	nearCells int

	cols, rows int
	minX, minY float64
	cellOf     []int32 // station -> cell
	cellStart  []int32 // CSR index of stations per cell
	cellItems  []int32 // station ids sorted by cell
	cellCenter []geom.Point
}

// NewGridEngine builds a grid engine over Euclidean points. cellSize is
// the bucket side; nearRadius is the exact-summation radius
// (transmitters within nearRadius of a receiver are summed exactly)
// and must be ≥ 1, the normalized communication range: the decoding
// candidate is searched only inside the near box, so a smaller radius
// would silently drop decodable receptions rather than approximate
// them. Grids whose bounding box would need more than maxCellBlowup×n
// cells are rejected.
func NewGridEngine(eu *geom.Euclidean, p Params, cellSize, nearRadius float64) (*GridEngine, error) {
	if err := p.Validate(eu.Growth()); err != nil {
		return nil, err
	}
	if cellSize <= 0 {
		return nil, fmt.Errorf("sinr: cellSize %v must be positive", cellSize)
	}
	if nearRadius < 1 {
		return nil, fmt.Errorf("sinr: nearRadius %v must be >= 1 (the normalized communication range)", nearRadius)
	}
	pts := eu.Pts
	n := len(pts)
	cols, rows, minX, minY, err := gridDims(pts, cellSize)
	if err != nil {
		return nil, err
	}
	tp := &gridTopo{
		params:    p,
		kern:      NewKernel(p.Alpha),
		pts:       pts,
		cellSize:  cellSize,
		nearR2:    nearRadius * nearRadius,
		nearCells: int(math.Ceil(nearRadius/cellSize)) + 1,
		cols:      cols, rows: rows,
		minX: minX, minY: minY,
		cellOf: make([]int32, n),
	}
	tp.ptsX = make([]float64, n)
	tp.ptsY = make([]float64, n)
	counts := make([]int32, cols*rows+1)
	for i, q := range pts {
		tp.ptsX[i], tp.ptsY[i] = q.X, q.Y
		c := tp.cellIndex(q)
		tp.cellOf[i] = int32(c)
		counts[c+1]++
	}
	for c := 1; c <= cols*rows; c++ {
		counts[c] += counts[c-1]
	}
	tp.cellStart = counts
	tp.cellItems = make([]int32, n)
	fill := make([]int32, cols*rows)
	for i := range pts {
		c := tp.cellOf[i]
		tp.cellItems[tp.cellStart[c]+fill[c]] = int32(i)
		fill[c]++
	}
	tp.cellCenter = make([]geom.Point, cols*rows)
	for c := range tp.cellCenter {
		cx := c % cols
		cy := c / cols
		tp.cellCenter[c] = geom.Point{
			X: minX + (float64(cx)+0.5)*cellSize,
			Y: minY + (float64(cy)+0.5)*cellSize,
		}
	}
	return gridFromTopo(tp), nil
}

// gridFromTopo builds the mutable per-round half over a topology;
// NewGridEngine and Clone both go through it. The per-round arrays
// are allocated lazily on first resolve (see ensureRunState), which
// keeps cloning down to pointer copies.
func gridFromTopo(tp *gridTopo) *GridEngine {
	return &GridEngine{
		gridTopo:     tp,
		workers:      resolveWorkers(0),
		minParallelN: parallelCrossover,
	}
}

// ensureRunState allocates the per-round arrays on first use. The
// grid always has at least one cell, so cellPower doubles as the
// "already allocated" sentinel.
func (g *GridEngine) ensureRunState() {
	if g.cellPower != nil {
		return
	}
	g.cellPower = make([]float64, g.cols*g.rows)
	g.txInCell = make([][]int32, g.cols*g.rows)
	g.isTx = make([]bool, len(g.pts))
}

// Clone returns an independent engine sharing this engine's immutable
// topology (positions, cell CSR, cell centers) with fresh per-round
// state. The clone resolves byte-identically to a freshly constructed
// engine; separate clones may run concurrently. Tuning (workers,
// parallel crossover) is copied.
func (g *GridEngine) Clone() *GridEngine {
	c := gridFromTopo(g.gridTopo)
	c.workers, c.minParallelN = g.workers, g.minParallelN
	return c
}

func (g *gridTopo) cellIndex(q geom.Point) int {
	cx := int((q.X - g.minX) / g.cellSize)
	cy := int((q.Y - g.minY) / g.cellSize)
	if cx < 0 {
		cx = 0
	} else if cx >= g.cols {
		cx = g.cols - 1
	}
	if cy < 0 {
		cy = 0
	} else if cy >= g.rows {
		cy = g.rows - 1
	}
	return cy*g.cols + cx
}

// N returns the number of stations.
func (g *GridEngine) N() int { return len(g.pts) }

// Params returns the physical parameters.
func (g *GridEngine) Params() Params { return g.params }

// SetWorkers sets how many goroutines Resolve may use; w ≤ 0 selects
// runtime.GOMAXPROCS(0). Output is byte-identical for every count.
func (g *GridEngine) SetWorkers(w int) { g.workers = resolveWorkers(w) }

// aggregate buckets the round's transmitters by cell (serial: O(|tx|)).
func (g *GridEngine) aggregate(tx []int) {
	pw := g.params.Power()
	for _, t := range tx {
		g.isTx[t] = true
		c := g.cellOf[t]
		if g.cellPower[c] == 0 && len(g.txInCell[c]) == 0 {
			g.liveCells = append(g.liveCells, c)
		}
		g.cellPower[c] += pw
		g.txInCell[c] = append(g.txInCell[c], int32(t))
	}
}

// reset clears the per-round transmitter aggregation.
func (g *GridEngine) reset(tx []int) {
	for _, c := range g.liveCells {
		g.cellPower[c] = 0
		g.txInCell[c] = g.txInCell[c][:0]
	}
	g.liveCells = g.liveCells[:0]
	for _, t := range tx {
		g.isTx[t] = false
	}
}

// Resolve computes receptions for one round (see Engine.Resolve for
// semantics). Far-field interference is approximated per cell. The
// returned slice is owned by the engine and valid until the next
// Resolve call.
func (g *GridEngine) Resolve(tx []int) []Reception {
	if len(tx) == 0 {
		return nil
	}
	if out, ok := g.solo.replay(tx, g.out); ok {
		g.out = out
		return out
	}
	g.ensureRunState()
	g.aggregate(tx)

	n := len(g.pts)
	if g.workers > 1 && n >= g.minParallelN {
		g.resolveParallel()
	} else {
		g.out = g.collectRange(0, n, g.out[:0])
	}

	g.reset(tx)
	g.solo.record(tx, n, g.out)
	return g.out
}

// ResolveFor computes the receptions of one round restricted to the
// given receivers: the result is byte-identical to Resolve(tx) filtered
// to receivers in the subset. receivers must be strictly increasing
// station indices; the slice is only read. Like Resolve, the returned
// slice is engine-owned and the subset loop runs chunked on the
// parallel runner when the subset is large enough.
func (g *GridEngine) ResolveFor(tx []int, receivers []int) []Reception {
	if len(tx) == 0 || len(receivers) == 0 {
		return nil
	}
	g.ensureRunState()
	checkReceivers(receivers, len(g.pts))
	g.aggregate(tx)

	if g.workers > 1 && len(receivers) >= g.minParallelN {
		ensureRunner(&g.par, g, g.workers)
		if g.chunkForFn == nil {
			g.chunkForFn = g.runChunkFor
		}
		g.curRecv = receivers
		g.out = g.par.runRange(len(receivers), g.workers, g.chunkForFn, g.out)
		g.curRecv = nil
	} else {
		g.out = g.collectList(receivers, g.out[:0])
	}

	g.reset(tx)
	return g.out
}

// resolveParallel chunks the receiver loop across the worker pool.
// After aggregation all per-cell state is read-only, so chunks only
// write their own output slots; concatenating them in chunk order
// reproduces the serial receiver order exactly.
func (g *GridEngine) resolveParallel() {
	ensureRunner(&g.par, g, g.workers)
	if g.chunkFn == nil {
		g.chunkFn = g.runChunk
	}
	g.out = g.par.runRange(len(g.pts), g.workers, g.chunkFn, g.out)
}

// runChunk collects one contiguous receiver range.
func (g *GridEngine) runChunk(chunk, worker int) {
	lo, hi := g.par.chunkRange(chunk, len(g.pts))
	g.par.slots[chunk].out = g.collectRange(lo, hi, g.par.slots[chunk].out[:0])
}

// runChunkFor collects one contiguous slice of the subset.
func (g *GridEngine) runChunkFor(chunk, worker int) {
	lo, hi := g.par.chunkRange(chunk, len(g.curRecv))
	g.par.slots[chunk].out = g.collectList(g.curRecv[lo:hi], g.par.slots[chunk].out[:0])
}

// collectRange resolves receivers in [lo,hi), appending receptions to
// dst. It only reads shared state.
func (g *GridEngine) collectRange(lo, hi int, dst []Reception) []Reception {
	for u := lo; u < hi; u++ {
		dst = g.collectOne(u, dst)
	}
	return dst
}

// collectList resolves exactly the listed receivers in order.
func (g *GridEngine) collectList(receivers []int, dst []Reception) []Reception {
	for _, u := range receivers {
		dst = g.collectOne(u, dst)
	}
	return dst
}

// collectOne resolves receiver u, appending its reception (if any) to
// dst. It only reads shared state, so chunks may run it concurrently.
// The receiver's cell coordinates come from the precomputed cellOf
// table — no per-receiver float divisions.
func (g *GridEngine) collectOne(u int, dst []Reception) []Reception {
	if g.isTx[u] {
		return dst
	}
	p := g.params
	pw := p.Power()
	kern := g.kern
	nearCells := g.nearCells
	up := g.pts[u]
	uc := int(g.cellOf[u])
	ucx := uc % g.cols
	ucy := uc / g.cols
	total := 0.0
	bestD2 := math.Inf(1)
	best := int32(-1)
	// Far field: aggregate cell powers.
	for _, c := range g.liveCells {
		cx := int(c) % g.cols
		cy := int(c) / g.cols
		if abs(cx-ucx) <= nearCells && abs(cy-ucy) <= nearCells {
			continue // handled exactly below
		}
		ctr := g.cellCenter[c]
		dx, dy := up.X-ctr.X, up.Y-ctr.Y
		d2 := dx*dx + dy*dy
		total += g.cellPower[c] * kern.FromDist2(d2)
	}
	// Near field: exact per-transmitter sums, one NearScanIndexed batch
	// call per cell list. The running (total, bestD2) thread through the
	// calls in cell-scan order, so the accumulation is bit-identical to
	// the plain nested loop.
	for cy := ucy - nearCells; cy <= ucy+nearCells; cy++ {
		if cy < 0 || cy >= g.rows {
			continue
		}
		for cx := ucx - nearCells; cx <= ucx+nearCells; cx++ {
			if cx < 0 || cx >= g.cols {
				continue
			}
			c := cy*g.cols + cx
			var bid int32
			total, bid, bestD2 = kern.NearScanIndexed(pw, up.X, up.Y, g.txInCell[c], g.ptsX, g.ptsY, total, bestD2)
			if bid >= 0 {
				best = bid
			}
		}
	}
	if best < 0 || bestD2 > 1 {
		return dst
	}
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

// checkReceivers validates a ResolveFor subset: indices must be inside
// [0,n) and strictly increasing (which also rules out duplicates). The
// ordering requirement is what makes ResolveFor output byte-identical
// to a filtered Resolve.
func checkReceivers(receivers []int, n int) {
	prev := -1
	for _, u := range receivers {
		if u < 0 || u >= n {
			panic(fmt.Sprintf("sinr: receiver %d out of range [0,%d)", u, n))
		}
		if u <= prev {
			panic(fmt.Sprintf("sinr: receivers not strictly increasing at %d (after %d)", u, prev))
		}
		prev = u
	}
}

func abs(x int) int {
	if x < 0 {
		return -x
	}
	return x
}
