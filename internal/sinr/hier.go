package sinr

import (
	"fmt"
	"math"
	"slices"
	"sync/atomic"

	"sinrcast/internal/geom"
	"sinrcast/internal/sinr/simd"
)

// Default geometry of the approximate engines: half-comm-radius cells,
// a near field covering one-and-a-half communication radii (so every
// decodable transmitter is summed exactly), and a Barnes–Hut style
// opening threshold of one node diameter per two distances. These are
// the values AutoEngine and the CLIs use; constructors accept explicit
// overrides.
const (
	// DefaultCellSize is the base-grid bucket side.
	DefaultCellSize = 0.5
	// DefaultNearRadius is the exact-summation radius.
	DefaultNearRadius = 1.5
	// DefaultTheta is the HierEngine well-separatedness threshold θ: a
	// pyramid node's aggregate is accepted when diameter/distance ≤ θ.
	// Smaller is more accurate and slower; 0.5 keeps the measured
	// disagreement against the exact Engine below GridEngine's (see
	// TestHierEngineAgreement).
	DefaultTheta = 0.5
	// DefaultDeltaCrossover is the churn fraction above which a round
	// abandons the incremental cross-round update and rebuilds its
	// transmitter aggregation from scratch: with Δ = |departed| +
	// |arrived| between consecutive rounds, the delta path runs while
	// Δ ≤ crossover·(|prev| + |cur|). At 0.5 the delta path covers up
	// to ~50% transmitter churn, where incremental ancestor recomputes
	// and a full rebuild cost about the same (see the cost model in the
	// package docs and BenchmarkHierResolveRounds).
	DefaultDeltaCrossover = 0.5
	// frontierBlock is the side, in cells, of the receiver blocks that
	// share one far-field frontier and one near-field gather. One cell
	// holds too few receivers to amortize a descent; a 16×16 block
	// shares it across two orders of magnitude more receivers, and the
	// frontier growth from the conservative θ test (measured from the
	// block rectangle's nearest point) is more than paid for by
	// replacing per-receiver tree walks with flat slab replays —
	// measured on BenchmarkHierResolve/n=65536, block sides 4/8/16
	// give 1.6×/2.8×/3.8× over the per-receiver descent, with
	// diminishing returns (and a near box growing quadratically)
	// beyond.
	frontierBlock = 16
)

// pyrLevel is one level of the far-field pyramid. Level 0 is the base
// cell grid; level ℓ+1 aggregates 2×2 blocks of level ℓ. Per node the
// level stores the aggregate transmit power and the power-weighted
// coordinate sums, so a node's center of mass is (px/pow, py/pow).
// Zero power marks a dead node. live lists the nodes touched since the
// last full reset (it may carry stale dead entries between delta
// rounds; liveCount tracks the true live population and triggers
// compaction); stamp/gen dedup node visits without O(cells) clears.
type pyrLevel struct {
	cols, rows int
	pow        []float64
	px, py     []float64
	live       []int32
	liveCount  int
	stamp      []uint32
	// diam2 is the squared node diagonal (the well-separatedness
	// numerator): (side·√2)² for nodes of side cellSize·2^ℓ.
	diam2 float64
}

// pyrNode addresses one pyramid node during descent.
type pyrNode struct {
	lv  int32
	idx int32
}

// blockSlabs holds the replayable per-block slabs of the memoized
// receiver loop: the accepted-node frontier in descent order (center-of-
// mass coordinates and aggregate power, replayed as flat multiply-adds)
// and the near-field gather (transmitter ids and coordinates in scan
// order over the block's union near box). Buffers are reused via [:0]
// truncation, so a rebuilt block reallocates only past its high-water
// mark.
type blockSlabs struct {
	evX, evY, evP []float64
	nearID        []int32
	nearX, nearY  []float64
}

// blockCacheEntry is one slot of the cross-round per-block slab cache:
// the slabs plus the aggregation epoch each was built at. Both slabs
// depend only on the transmitter aggregation state (cell lists and
// pyramid aggregates) and static block geometry, so while its epoch
// matches a slab replays bit-identically without re-gathering or re-
// descending. The two are stamped apart because the frontier is built
// later than the near field, and only for a block with a decode
// candidate.
type blockCacheEntry struct {
	blockSlabs
	nearEpoch, frontierEpoch uint32
}

// blockRange is one entry of a round's receiver work list: block b's
// receivers are workItems[lo:hi], in ascending station order.
type blockRange struct {
	b, lo, hi int32
}

// HierEngine resolves rounds approximately for Euclidean networks with
// a hierarchical far field: transmitters are bucketed into grid cells
// (exactly like GridEngine), the cells are stacked into a power-of-two
// pyramid whose nodes aggregate their children's transmit power at the
// children's center of mass, and receivers consume the pyramid through
// a Barnes–Hut descent. A node's aggregate is accepted when it is well
// separated from the receiver (node diameter / distance ≤ θ) and does
// not touch the receiver's near-field box; otherwise the descent
// recurses into its 2×2 children. Leaves inside the near box stay
// exact per-transmitter, so decoding candidates are untouched —
// approximation error only perturbs the far interference tail, and the
// center-of-mass placement cancels the first-order term of that error.
//
// Three amortizations keep the hot path cheap:
//
//   - Across receivers (frontier memoization): the descent runs once
//     per round and block of frontierBlock×frontierBlock cells that
//     holds a decode candidate (a receiver passing the near-field
//     rejection; a hot block without one gathers its near field and
//     stops there) — whole rounds and ResolveFor subsets alike, since
//     a subset round groups its receivers by block before it resolves
//     them —
//     classifying each node against the whole block rectangle —
//     accepted only when θ holds at the rectangle's nearest point (so
//     it holds for every receiver in the block), descended otherwise —
//     and the near field is gathered once over the block's union near
//     box, which every receiver sums exactly. The resulting
//     accepted-node frontier is a flat structure-of-arrays slab every
//     receiver in the block replays as pure multiply-adds; tree
//     walking, extent arithmetic and the center-of-mass divisions are
//     paid once per block instead of once per receiver. Both the
//     conservative θ test and the enlarged exact region are strictly
//     finer approximations than the per-receiver descent's, so the
//     error can only shrink (TestHierEngineAgreement still bounds it
//     by GridEngine's; measured, it drops by an order of magnitude).
//
//   - Across rounds (delta aggregation): aggregates persist between
//     Resolve calls. When consecutive rounds' (sorted) transmitter
//     sets differ by a small delta, only the dirty cells and their
//     O(Δ·log cells) ancestor chains are recomputed — canonically,
//     child-order sums, so incremental state is bit-identical to a
//     from-scratch build — and the block-granularity hot table updates
//     by counting. Beyond SetDeltaCrossover churn the round rebuilds
//     from scratch.
//
//   - Across rounds, receiver side (epoch caching): every delta or
//     rebuild that changes anything bumps an aggregation epoch, and
//     both the per-block slabs (near gather + frontier) and each
//     receiver's far-field sum are cached under the epoch that built
//     them. Rounds whose transmitter set did not change replay cached
//     slabs and far sums verbatim — bit-identical by construction —
//     so their cost collapses to the near-field rejection scans and
//     the decode tests.
//
// These amortizations are the engine's only resolve path: Resolve and
// ResolveFor run one block loop (collectBlocks) over a work list of
// per-block receiver ranges. The plain per-receiver descent they
// replace is kept in the tests as an oracle, and the round-sequence
// tests require the two to agree bit for bit.
//
// Like the other engines, path loss goes through the specialized
// Kernel, large rounds split into chunks (one per block) drained by the
// worker pool with byte-identical output for every worker count, and
// ResolveFor restricts a round to a receiver subset.
// A HierEngine is not safe for concurrent use by multiple goroutines;
// Clone gives each goroutine its own engine over the shared topology.
type HierEngine struct {
	*hierTopo

	// blockStamp dedups per-round block visits.
	blockStamp []uint32
	levels     []pyrLevel

	workers      int
	minParallelN int
	par          chunkRunner
	// Cached chunk closure of the parallel block loop (allocated once so
	// steady-state rounds stay alloc-free).
	blockFn func(chunk, worker int)

	// deltaCrossover is the churn tuning knob (see SetDeltaCrossover).
	deltaCrossover float64

	// Cross-round transmitter aggregation state. Unlike the other
	// engines this is NOT scratch: it persists between rounds so the
	// delta path can update it incrementally.
	txInCell [][]int32
	// hotCnt[b] counts live cells whose near box intersects receiver
	// block b: a station in a block with count 0 has no transmitter
	// within the near radius (every cell of the block is cold) and is
	// rejected without any work. Block granularity keeps bumpHot at a
	// handful of counter updates per live-cell transition instead of
	// (2·nearCells+1)² per-cell ones. hotList holds blocks that have
	// been hot since the last reset (stale entries are filtered on
	// use); hotBumps/hotTransitions count counter updates and bumpHot
	// calls for the hardware-independent cost gates, as frontierBuilds
	// counts buildFrontier calls (atomic: parallel blocks build
	// concurrently).
	hotCnt         []int32
	hotList        []int32
	hotCount       int
	hotBumps       int64
	hotTransitions int64
	frontierBuilds atomic.Int64
	isTx           []bool
	prevTx         []int
	// prevSorted records whether prevTx was strictly increasing — the
	// precondition for the sorted-merge delta diff and for per-cell
	// transmitter lists being in ascending (= canonical) order.
	prevSorted bool
	haveRound  bool
	gen        uint32
	// aggEpoch numbers distinct transmitter-aggregation states: bumped
	// by every fresh build and by every delta application that touched
	// anything. Per-block slabs are pure functions of the aggregation
	// state, so a blockCache entry stamped with the current epoch
	// replays bit-identically — zero-churn rounds skip every gather and
	// descent.
	aggEpoch uint32

	// Delta scratch, reused across rounds.
	gone       []bool
	departed   []int
	arrived    []int
	dirtyCells []int32
	dirtyOrd   []int32
	dirtyGen   []uint32
	arrivalBuf [][]int32
	mergeBuf   []int32
	dirtyNodes [2][]int32

	// Per-round receiver work list: one (block, lo, hi) range of
	// workItems per block with receivers to resolve. Resolve points
	// workItems at the static block CSR (blockItems); ResolveFor points
	// it at recvItems, its subset grouped by block (blockSlot maps a
	// block stamped this round to its work-list entry).
	workList  []blockRange
	workItems []int32
	recvItems []int32
	blockSlot []int32
	// blockCache persists each block's slabs across rounds, stamped
	// with the aggregation epoch that built them. The parallel block
	// loop makes each work-list block its own chunk, claimed by exactly
	// one worker, so each entry is written by at most one goroutine per
	// round; the runner's round barrier orders cross-round handoffs.
	blockCache []blockCacheEntry
	// farCache/farEpoch memoize each receiver's far-field replay: the
	// frontier sum is a pure function of (receiver position, aggregation
	// epoch), so a receiver whose stamp matches the current epoch reuses
	// the stored value — bit-identical by construction — instead of
	// replaying the slabs. Receivers are partitioned across chunks in
	// every parallel mode (a receiver's block lives in exactly one
	// chunk), so each entry has one writer per round.
	farCache []float64
	farEpoch []uint32
	solo     soloMemo
	out      []Reception
}

// hierTopo is the immutable half of a HierEngine: parameters, position
// slabs, the cell geometry and the receiver-block CSR, all fixed at
// construction. The pyramid's aggregates are per-run state and live in
// the engine (their shape is rebuilt from cols/rows/cellSize); clones
// share one hierTopo and allocate only the mutable half.
type hierTopo struct {
	params   Params
	kern     Kernel
	pts      []geom.Point
	ptsX     []float64 // structure-of-arrays slabs of pts
	ptsY     []float64
	cellSize float64
	nearR2   float64
	theta2   float64
	// nearCells is the near-field box radius in cells (see GridEngine).
	nearCells int

	cols, rows int
	minX, minY float64
	// rectPad expands block rectangles during the shared descent so
	// floating-point rounding in cell assignment can never place a
	// boundary receiver outside its block's rectangle (padding only
	// moves borderline nodes from accepted to descended — the safe
	// direction).
	rectPad float64
	cellOf  []int32
	// Receiver blocks: the plane is cut into frontierBlock-sized
	// squares of cells; bcols×brows of them. blockItems[blockStart[b]:
	// blockStart[b+1]] are block b's stations in ascending index order
	// (a static CSR) — the memoized receiver loop walks blocks, not
	// indices, so receivers of one block are resolved back to back
	// against the block's shared slabs.
	bcols, brows int
	blockStart   []int32
	blockItems   []int32
}

// NewHierEngine builds a hierarchical engine over Euclidean points.
// cellSize is the base bucket side; nearRadius is the exact-summation
// radius and must be ≥ 1 (the normalized communication range — the
// candidate search only looks inside the near box, so the box must
// cover every decodable transmitter); theta is the well-separatedness
// threshold in (0, 1]. Grids beyond maxCellBlowup×n cells are rejected.
func NewHierEngine(eu *geom.Euclidean, p Params, cellSize, nearRadius, theta float64) (*HierEngine, error) {
	if err := p.Validate(eu.Growth()); err != nil {
		return nil, err
	}
	if cellSize <= 0 {
		return nil, fmt.Errorf("sinr: cellSize %v must be positive", cellSize)
	}
	if nearRadius < 1 {
		return nil, fmt.Errorf("sinr: nearRadius %v must be >= 1 (the normalized communication range)", nearRadius)
	}
	if theta <= 0 || theta > 1 {
		return nil, fmt.Errorf("sinr: theta %v must be in (0, 1]", theta)
	}
	pts := eu.Pts
	n := len(pts)
	cols, rows, minX, minY, err := gridDims(pts, cellSize)
	if err != nil {
		return nil, err
	}
	tp := &hierTopo{
		params:    p,
		kern:      NewKernel(p.Alpha),
		pts:       pts,
		ptsX:      make([]float64, n),
		ptsY:      make([]float64, n),
		cellSize:  cellSize,
		nearR2:    nearRadius * nearRadius,
		theta2:    theta * theta,
		nearCells: int(math.Ceil(nearRadius/cellSize)) + 1,
		cols:      cols, rows: rows,
		minX: minX, minY: minY,
		cellOf: make([]int32, n),
	}
	span := math.Abs(minX) + math.Abs(minY) + (float64(cols)+float64(rows))*cellSize
	tp.rectPad = 1e-12 * (span + 1)
	for i, q := range pts {
		tp.ptsX[i], tp.ptsY[i] = q.X, q.Y
		tp.cellOf[i] = int32(tp.cellIndex(q))
	}
	// Static station CSR by receiver block (counting sort).
	tp.bcols = (cols + frontierBlock - 1) / frontierBlock
	tp.brows = (rows + frontierBlock - 1) / frontierBlock
	nBlocks := tp.bcols * tp.brows
	counts := make([]int32, nBlocks+1)
	for _, c := range tp.cellOf {
		counts[tp.blockOfCell(c)+1]++
	}
	for b := 1; b <= nBlocks; b++ {
		counts[b] += counts[b-1]
	}
	tp.blockStart = counts
	tp.blockItems = make([]int32, n)
	fill := make([]int32, nBlocks)
	for i := range pts {
		b := tp.blockOfCell(tp.cellOf[i])
		tp.blockItems[tp.blockStart[b]+fill[b]] = int32(i)
		fill[b]++
	}
	return hierFromTopo(tp), nil
}

// hierFromTopo builds the mutable per-run half of a hierarchical
// engine over an already-built topology. The run-state arrays (pyramid
// aggregates, per-block and per-receiver caches, delta scratch) are
// not allocated here but lazily by ensureRunState on the first
// resolve: they scale with the cell grid, and deferring them keeps
// cloning a large engine down to pointer copies. NewHierEngine and
// Clone both go through here, so a clone starts in exactly the state
// a fresh construction would.
func hierFromTopo(tp *hierTopo) *HierEngine {
	return &HierEngine{
		hierTopo:       tp,
		workers:        resolveWorkers(0),
		minParallelN:   parallelCrossover,
		deltaCrossover: DefaultDeltaCrossover,
		aggEpoch:       1,
	}
}

// ensureRunState allocates the per-run arrays on first use. The
// pyramid always has at least one level, so h.levels doubles as the
// "already allocated" sentinel.
func (h *HierEngine) ensureRunState() {
	if h.levels != nil {
		return
	}
	n := len(h.pts)
	nBlocks := h.bcols * h.brows
	h.blockStamp = make([]uint32, nBlocks)
	h.blockSlot = make([]int32, nBlocks)
	h.hotCnt = make([]int32, nBlocks)
	h.blockCache = make([]blockCacheEntry, nBlocks)
	h.farCache = make([]float64, n)
	h.farEpoch = make([]uint32, n)
	h.txInCell = make([][]int32, h.cols*h.rows)
	h.isTx = make([]bool, n)
	h.gone = make([]bool, n)
	h.dirtyOrd = make([]int32, h.cols*h.rows)
	h.dirtyGen = make([]uint32, h.cols*h.rows)
	// Stack levels until a single node covers the whole grid.
	lc, lr := h.cols, h.rows
	side := h.cellSize
	for {
		h.levels = append(h.levels, pyrLevel{
			cols: lc, rows: lr,
			pow:   make([]float64, lc*lr),
			px:    make([]float64, lc*lr),
			py:    make([]float64, lc*lr),
			stamp: make([]uint32, lc*lr),
			diam2: 2 * side * side,
		})
		if lc == 1 && lr == 1 {
			break
		}
		lc = (lc + 1) / 2
		lr = (lr + 1) / 2
		side *= 2
	}
}

// Clone returns an independent engine sharing this engine's immutable
// topology (positions, cell geometry, block CSR) with a fresh pyramid,
// caches and scratch. The clone resolves byte-identically to a freshly
// constructed engine — it inherits none of the original's cross-round
// aggregation state — and separate clones may run concurrently. Tuning
// (workers, parallel crossover, delta crossover) is copied.
func (h *HierEngine) Clone() *HierEngine {
	c := hierFromTopo(h.hierTopo)
	c.workers, c.minParallelN = h.workers, h.minParallelN
	c.deltaCrossover = h.deltaCrossover
	return c
}

// blockOfCell maps a base cell to its receiver block.
func (h *hierTopo) blockOfCell(c int32) int32 {
	cx, cy := int(c)%h.cols, int(c)/h.cols
	return int32(cy/frontierBlock*h.bcols + cx/frontierBlock)
}

// blockCellRange returns block b's base-cell extent [x0,x1]×[y0,y1].
func (h *hierTopo) blockCellRange(b int32) (x0, y0, x1, y1 int) {
	bx, by := int(b)%h.bcols, int(b)/h.bcols
	x0, y0 = bx*frontierBlock, by*frontierBlock
	x1 = min(x0+frontierBlock-1, h.cols-1)
	y1 = min(y0+frontierBlock-1, h.rows-1)
	return
}

func (h *hierTopo) cellIndex(q geom.Point) int {
	cx := int((q.X - h.minX) / h.cellSize)
	cy := int((q.Y - h.minY) / h.cellSize)
	if cx < 0 {
		cx = 0
	} else if cx >= h.cols {
		cx = h.cols - 1
	}
	if cy < 0 {
		cy = 0
	} else if cy >= h.rows {
		cy = h.rows - 1
	}
	return cy*h.cols + cx
}

// N returns the number of stations.
func (h *HierEngine) N() int { return len(h.pts) }

// Params returns the physical parameters.
func (h *HierEngine) Params() Params { return h.params }

// Levels returns the pyramid height (for tests and diagnostics).
func (h *HierEngine) Levels() int {
	h.ensureRunState()
	return len(h.levels)
}

// SetWorkers sets how many goroutines Resolve may use; w ≤ 0 selects
// runtime.GOMAXPROCS(0). Output is byte-identical for every count.
func (h *HierEngine) SetWorkers(w int) { h.workers = resolveWorkers(w) }

// SetDeltaCrossover sets the churn fraction up to which consecutive
// rounds update transmitter aggregates incrementally instead of
// rebuilding (see DefaultDeltaCrossover); f ≤ 0 disables the delta
// path entirely, forcing a full rebuild every round — the debugging
// reference, bit-identical to the incremental path.
func (h *HierEngine) SetDeltaCrossover(f float64) {
	h.deltaCrossover = f
}

// --- Round aggregation (fresh, delta, reset) ---------------------------

// recomputeCell recomputes cell c's level-0 aggregate from its
// transmitter list, in list order. With a sorted transmitter round the
// list is ascending, so the sums are canonical: a delta-maintained list
// accumulates bit-identically to a from-scratch bucketing.
func (h *HierEngine) recomputeCell(c int32) {
	pw := h.params.Power()
	l0 := &h.levels[0]
	pow, px, py := 0.0, 0.0, 0.0
	for _, t := range h.txInCell[c] {
		pow += pw
		px += pw * h.ptsX[t]
		py += pw * h.ptsY[t]
	}
	l0.pow[c] = pow
	l0.px[c] = px
	l0.py[c] = py
}

// recomputeNode recomputes one upper-level node from its ≤4 children in
// fixed child order (dead children contribute exact zeros), so the
// value depends only on the children's aggregates — never on the order
// rounds or deltas touched them.
func (h *HierEngine) recomputeNode(lv int, idx int32) {
	cur := &h.levels[lv]
	child := &h.levels[lv-1]
	nx, ny := int(idx)%cur.cols, int(idx)/cur.cols
	cx0, cy0 := nx*2, ny*2
	pow, px, py := 0.0, 0.0, 0.0
	for dy := 0; dy < 2; dy++ {
		cy := cy0 + dy
		if cy >= child.rows {
			continue
		}
		for dx := 0; dx < 2; dx++ {
			cx := cx0 + dx
			if cx >= child.cols {
				continue
			}
			ci := cy*child.cols + cx
			pow += child.pow[ci]
			px += child.px[ci]
			py += child.py[ci]
		}
	}
	cur.pow[idx] = pow
	cur.px[idx] = px
	cur.py[idx] = py
}

// bumpHot adds d (±1) to the hot count of every receiver block whose
// cell extent the near box of live cell c touches, tracking first-hot
// transitions. Working at block granularity costs at most
// (⌈(2·nearCells+1)/frontierBlock⌉+1)² counter updates per transition —
// ≤ 4 with the default geometry, versus the 81 per-cell bumps the same
// near box used to pay — which is what keeps the delta path cheap under
// churn. The coarsening is output-neutral: a station is now rejected
// only when its whole block is cold, and a station in a cold cell of a
// hot block still finds no transmitter within the communication range
// during its near scan, so it decodes nothing either way.
func (h *HierEngine) bumpHot(c int32, d int32) {
	h.hotTransitions++
	nc := h.nearCells
	ccx, ccy := int(c)%h.cols, int(c)/h.cols
	y0, y1 := max(ccy-nc, 0), min(ccy+nc, h.rows-1)
	x0, x1 := max(ccx-nc, 0), min(ccx+nc, h.cols-1)
	bx0, bx1 := x0/frontierBlock, x1/frontierBlock
	by0, by1 := y0/frontierBlock, y1/frontierBlock
	for by := by0; by <= by1; by++ {
		row := by * h.bcols
		for bx := bx0; bx <= bx1; bx++ {
			i := row + bx
			h.hotBumps++
			was := h.hotCnt[i]
			h.hotCnt[i] = was + d
			if d > 0 && was == 0 {
				h.hotList = append(h.hotList, int32(i))
				h.hotCount++
			} else if d < 0 && was == 1 {
				h.hotCount--
			}
		}
	}
}

// aggregateFresh builds the full aggregation state of a round from
// scratch: bucket transmitters into cells, compute canonical per-cell
// and per-node sums bottom-up over live nodes only, and count hot
// cells. Cost O(|tx| + live·(log cells + nearBox²)).
func (h *HierEngine) aggregateFresh(tx []int) {
	l0 := &h.levels[0]
	for _, t := range tx {
		h.isTx[t] = true
		c := h.cellOf[t]
		if len(h.txInCell[c]) == 0 {
			l0.live = append(l0.live, c)
		}
		h.txInCell[c] = append(h.txInCell[c], int32(t))
	}
	for _, c := range l0.live {
		h.recomputeCell(c)
	}
	l0.liveCount = len(l0.live)
	for lv := 0; lv+1 < len(h.levels); lv++ {
		cur, par := &h.levels[lv], &h.levels[lv+1]
		h.gen++
		for _, c := range cur.live {
			ncx, ncy := int(c)%cur.cols/2, int(c)/cur.cols/2
			pc := int32(ncy*par.cols + ncx)
			if par.stamp[pc] != h.gen {
				par.stamp[pc] = h.gen
				par.live = append(par.live, pc)
			}
		}
		for _, pc := range par.live {
			h.recomputeNode(lv+1, pc)
		}
		par.liveCount = len(par.live)
	}
	for _, c := range l0.live {
		h.bumpHot(c, +1)
	}
	h.aggEpoch++
	h.haveRound = true
}

// resetRound clears all aggregation state in O(touched nodes), leaving
// the engine as if no round had run.
func (h *HierEngine) resetRound() {
	for _, c := range h.levels[0].live {
		h.txInCell[c] = h.txInCell[c][:0]
	}
	for lv := range h.levels {
		l := &h.levels[lv]
		for _, c := range l.live {
			l.pow[c] = 0
			l.px[c] = 0
			l.py[c] = 0
		}
		l.live = l.live[:0]
		l.liveCount = 0
	}
	for _, c := range h.hotList {
		h.hotCnt[c] = 0
	}
	h.hotList = h.hotList[:0]
	h.hotCount = 0
	for _, t := range h.prevTx {
		h.isTx[t] = false
	}
	h.haveRound = false
}

// diffSorted fills h.departed (in prev, not in cur) and h.arrived (in
// cur, not in prev) from the two strictly increasing rounds.
func (h *HierEngine) diffSorted(prev, cur []int) {
	h.departed = h.departed[:0]
	h.arrived = h.arrived[:0]
	i, j := 0, 0
	for i < len(prev) && j < len(cur) {
		switch {
		case prev[i] == cur[j]:
			i++
			j++
		case prev[i] < cur[j]:
			h.departed = append(h.departed, prev[i])
			i++
		default:
			h.arrived = append(h.arrived, cur[j])
			j++
		}
	}
	h.departed = append(h.departed, prev[i:]...)
	h.arrived = append(h.arrived, cur[j:]...)
}

// dirtyCell registers base cell c in the round's dirty set, returning
// its ordinal (with an empty arrival bucket ready).
func (h *HierEngine) dirtyCell(c int32) int32 {
	if h.dirtyGen[c] == h.gen {
		return h.dirtyOrd[c]
	}
	ord := int32(len(h.dirtyCells))
	h.dirtyGen[c] = h.gen
	h.dirtyOrd[c] = ord
	h.dirtyCells = append(h.dirtyCells, c)
	if int(ord) < len(h.arrivalBuf) {
		h.arrivalBuf[ord] = h.arrivalBuf[ord][:0]
	} else {
		h.arrivalBuf = append(h.arrivalBuf, nil)
	}
	return ord
}

// applyDelta updates the persisted aggregation incrementally from the
// departed/arrived diff: dirty cells rebuild their (ascending)
// transmitter lists by a filter-merge and recompute canonically, hot
// counts adjust only around liveness transitions, and each dirty
// ancestor chain recomputes from its children — bit-identical to a
// fresh build, in O(Δ·(cellPop + log cells + transitions·nearBox²)).
func (h *HierEngine) applyDelta() {
	if len(h.departed)+len(h.arrived) == 0 {
		return // identical round: aggregation (and epoch) unchanged
	}
	h.aggEpoch++
	l0 := &h.levels[0]
	h.gen++
	h.dirtyCells = h.dirtyCells[:0]
	for _, t := range h.departed {
		h.isTx[t] = false
		h.gone[t] = true
		h.dirtyCell(h.cellOf[t])
	}
	for _, t := range h.arrived {
		h.isTx[t] = true
		ord := h.dirtyCell(h.cellOf[t])
		h.arrivalBuf[ord] = append(h.arrivalBuf[ord], int32(t))
	}
	for ord, c := range h.dirtyCells {
		wasLive := len(h.txInCell[c]) > 0
		h.mergeCellList(c, h.arrivalBuf[ord])
		h.recomputeCell(c)
		nowLive := len(h.txInCell[c]) > 0
		if nowLive != wasLive {
			if nowLive {
				l0.live = append(l0.live, c)
				l0.liveCount++
				h.bumpHot(c, +1)
			} else {
				l0.liveCount--
				h.bumpHot(c, -1)
			}
		}
	}
	for _, t := range h.departed {
		h.gone[t] = false
	}
	// Propagate dirty ancestor chains, one dedup context per level.
	cur := h.dirtyCells
	for lv := 0; lv+1 < len(h.levels); lv++ {
		clv, par := &h.levels[lv], &h.levels[lv+1]
		h.gen++
		next := h.dirtyNodes[lv%2][:0]
		for _, c := range cur {
			ncx, ncy := int(c)%clv.cols/2, int(c)/clv.cols/2
			pc := int32(ncy*par.cols + ncx)
			if par.stamp[pc] != h.gen {
				par.stamp[pc] = h.gen
				next = append(next, pc)
			}
		}
		for _, pc := range next {
			was := par.pow[pc] != 0
			h.recomputeNode(lv+1, pc)
			if now := par.pow[pc] != 0; now != was {
				if now {
					par.live = append(par.live, pc)
					par.liveCount++
				} else {
					par.liveCount--
				}
			}
		}
		h.dirtyNodes[lv%2] = next
		cur = next
	}
}

// mergeCellList rebuilds cell c's transmitter list: survivors of the
// old list (ascending) merged with the cell's arrivals (ascending),
// preserving the canonical ascending order a fresh sorted-round
// bucketing would produce.
func (h *HierEngine) mergeCellList(c int32, arrived []int32) {
	old := h.txInCell[c]
	h.mergeBuf = h.mergeBuf[:0]
	i, j := 0, 0
	for i < len(old) {
		t := old[i]
		if h.gone[t] {
			i++
			continue
		}
		for j < len(arrived) && arrived[j] < t {
			h.mergeBuf = append(h.mergeBuf, arrived[j])
			j++
		}
		h.mergeBuf = append(h.mergeBuf, t)
		i++
	}
	h.mergeBuf = append(h.mergeBuf, arrived[j:]...)
	h.txInCell[c] = append(old[:0], h.mergeBuf...)
}

// compactLists drops stale dead entries (and duplicates) that long
// delta streaks accumulate in the live and hot lists, whenever a list
// outgrows twice its live population.
func (h *HierEngine) compactLists() {
	for lv := range h.levels {
		l := &h.levels[lv]
		if len(l.live) <= 2*l.liveCount+16 {
			continue
		}
		h.gen++
		keep := l.live[:0]
		for _, c := range l.live {
			if l.pow[c] != 0 && l.stamp[c] != h.gen {
				l.stamp[c] = h.gen
				keep = append(keep, c)
			}
		}
		l.live = keep
	}
	if len(h.hotList) > 2*h.hotCount+16 {
		h.gen++
		keep := h.hotList[:0]
		for _, b := range h.hotList {
			if h.hotCnt[b] > 0 && h.blockStamp[b] != h.gen {
				h.blockStamp[b] = h.gen
				keep = append(keep, b)
			}
		}
		h.hotList = keep
	}
}

// prepareRound brings the aggregation state up to date for round tx:
// the delta path when the previous and current rounds are both sorted
// and the churn is below the crossover, a reset + fresh build
// otherwise. Either way the resulting state is bit-identical.
func (h *HierEngine) prepareRound(tx []int) {
	// Generation counters wrap after ~10⁸ rounds; clear every stamp
	// array then so a stale stamp can never collide with a fresh
	// generation.
	if h.gen > math.MaxUint32-64 || h.aggEpoch > math.MaxUint32-2 {
		for lv := range h.levels {
			clear(h.levels[lv].stamp)
		}
		clear(h.blockStamp)
		clear(h.dirtyGen)
		clear(h.farEpoch)
		for i := range h.blockCache {
			h.blockCache[i].nearEpoch, h.blockCache[i].frontierEpoch = 0, 0
		}
		h.gen, h.aggEpoch = 0, 1
	}
	sorted := isStrictlyIncreasing(tx)
	if h.haveRound && h.prevSorted && sorted && h.deltaCrossover > 0 {
		h.diffSorted(h.prevTx, tx)
		churn := len(h.departed) + len(h.arrived)
		if float64(churn) <= h.deltaCrossover*float64(len(h.prevTx)+len(tx)) {
			h.compactLists()
			h.applyDelta()
			h.recordPrev(tx, sorted)
			return
		}
	}
	if h.haveRound {
		h.resetRound()
	}
	h.aggregateFresh(tx)
	h.recordPrev(tx, sorted)
}

func (h *HierEngine) recordPrev(tx []int, sorted bool) {
	h.prevTx = append(h.prevTx[:0], tx...)
	h.prevSorted = sorted
}

func isStrictlyIncreasing(tx []int) bool {
	for i := 1; i < len(tx); i++ {
		if tx[i] <= tx[i-1] {
			return false
		}
	}
	return true
}

// --- Resolution --------------------------------------------------------

func (h *HierEngine) checkTx(tx []int) {
	for _, t := range tx {
		if t < 0 || t >= len(h.pts) {
			panic(fmt.Sprintf("sinr: transmitter %d out of range [0,%d)", t, len(h.pts)))
		}
	}
}

// buildWorkList collects the round's occupied hot blocks — the only
// blocks whose stations can decode anything — as ranges of the static
// block CSR. The hot list is already block-granular, so this is a
// filter pass (drop gone-cold and unoccupied blocks, dedup stale
// duplicates), not a projection from cells.
func (h *HierEngine) buildWorkList() {
	h.workList = h.workList[:0]
	h.workItems = h.blockItems
	h.gen++
	for _, b := range h.hotList {
		if h.hotCnt[b] == 0 {
			continue
		}
		lo, hi := h.blockStart[b], h.blockStart[b+1]
		if hi > lo && h.blockStamp[b] != h.gen {
			h.blockStamp[b] = h.gen
			h.workList = append(h.workList, blockRange{b: b, lo: lo, hi: hi})
		}
	}
}

// groupReceivers builds the work list of a ResolveFor round: the
// receivers that can decode anything (not transmitting, in a hot
// block) bucketed by receiver block with a two-pass counting sort into
// recvItems, so every block's receivers are one ascending range and
// its slabs are built at most once per round. The cost is
// O(len(receivers)), never O(n): blocks are deduplicated by generation
// stamp, not by clearing a per-block array.
func (h *HierEngine) groupReceivers(receivers []int) {
	h.workList = h.workList[:0]
	h.gen++
	kept := int32(0)
	for _, u := range receivers {
		b := h.blockOfCell(h.cellOf[u])
		if h.hotCnt[b] == 0 || h.isTx[u] {
			continue
		}
		if h.blockStamp[b] != h.gen {
			h.blockStamp[b] = h.gen
			h.blockSlot[b] = int32(len(h.workList))
			h.workList = append(h.workList, blockRange{b: b})
		}
		h.workList[h.blockSlot[b]].hi++
		kept++
	}
	// Counts become start offsets; hi then serves as each block's fill
	// cursor and ends at lo + count.
	off := int32(0)
	for i := range h.workList {
		w := &h.workList[i]
		w.lo, w.hi, off = off, off, off+w.hi
	}
	if int32(cap(h.recvItems)) < kept {
		h.recvItems = make([]int32, kept)
	}
	h.recvItems = h.recvItems[:kept]
	for _, u := range receivers {
		b := h.blockOfCell(h.cellOf[u])
		if h.hotCnt[b] == 0 || h.isTx[u] {
			continue
		}
		w := &h.workList[h.blockSlot[b]]
		h.recvItems[w.hi] = int32(u)
		w.hi++
	}
	h.workItems = h.recvItems
}

// Resolve computes receptions for one round (see Engine.Resolve for
// semantics). The returned slice is owned by the engine and valid
// until the next Resolve call. Aggregation state persists across calls
// so consecutive rounds with overlapping transmitter sets resolve
// incrementally; results are bit-identical to a fresh engine's.
func (h *HierEngine) Resolve(tx []int) []Reception {
	if len(tx) == 0 {
		return nil
	}
	if out, ok := h.solo.replay(tx, h.out); ok {
		h.out = out
		return out
	}
	h.ensureRunState()
	h.checkTx(tx)
	h.prepareRound(tx)
	h.buildWorkList()
	h.resolveWork(len(h.pts))
	h.solo.record(tx, len(h.pts), h.out)
	return h.out
}

// ResolveFor computes the receptions of one round restricted to the
// given receivers: byte-identical to Resolve(tx) filtered to the
// subset. receivers must be strictly increasing station indices. The
// subset is grouped by receiver block and runs Resolve's block loop, so
// however scattered its receivers are, each block gathers its near
// field and descends the pyramid at most once per round — and not at
// all while its cached slabs carry the current epoch.
func (h *HierEngine) ResolveFor(tx []int, receivers []int) []Reception {
	if len(tx) == 0 || len(receivers) == 0 {
		return nil
	}
	h.ensureRunState()
	checkReceivers(receivers, len(h.pts))
	h.checkTx(tx)
	h.prepareRound(tx)
	h.groupReceivers(receivers)
	h.resolveWork(len(receivers))
	return h.out
}

// resolveWork resolves the round's work list into h.out — serially, or
// one block per chunk on the worker pool once the round has
// minParallelN receivers — and sorts the block-grouped receptions back
// to the ascending receiver order every engine guarantees. Receivers
// are unique keys, so the order is total: identical for any worker
// count.
func (h *HierEngine) resolveWork(receivers int) {
	if h.workers > 1 && receivers >= h.minParallelN {
		ensureRunner(&h.par, h, h.workers)
		if h.blockFn == nil {
			h.blockFn = h.runChunkBlock
		}
		h.out = h.par.run(len(h.workList), h.blockFn, h.out)
	} else {
		h.out = h.collectBlocks(h.workList, h.out[:0])
	}
	slices.SortFunc(h.out, func(a, b Reception) int { return a.Receiver - b.Receiver })
}

// runChunkBlock resolves the chunk-th work-list block against the
// shared per-block cache. The pool's workers take blocks from its
// cursor in work-list order: skewed block occupancy — cold blocks
// finish nearly free while decode-heavy blocks dominate — only means
// the workers on cheap blocks take more of them. The cursor hands each
// chunk to exactly one worker, so the block's cache entry and its
// receivers' far-sum entries keep a single writer per round.
func (h *HierEngine) runChunkBlock(chunk, worker int) {
	h.par.slots[chunk].out = h.collectBlocks(h.workList[chunk:chunk+1], h.par.slots[chunk].out[:0])
}

// --- Frontier-memoized collection --------------------------------------

// gatherNear collects the transmitters of the block's union near box —
// the block's cell extent padded by the near-field radius, so every
// receiver in the block has its own near box covered — into the
// block's slabs, in (cell-row, cell-col, list) scan order. Every
// receiver of the block sums all of them exactly: a superset of its
// own near box, so the exact region only grows.
func (h *HierEngine) gatherNear(sl *blockSlabs, bx0, by0, bx1, by1 int) {
	sl.nearID = sl.nearID[:0]
	sl.nearX = sl.nearX[:0]
	sl.nearY = sl.nearY[:0]
	nc := h.nearCells
	y0, y1 := max(by0-nc, 0), min(by1+nc, h.rows-1)
	x0, x1 := max(bx0-nc, 0), min(bx1+nc, h.cols-1)
	for cy := y0; cy <= y1; cy++ {
		row := cy * h.cols
		for cx := x0; cx <= x1; cx++ {
			for _, t := range h.txInCell[row+cx] {
				sl.nearID = append(sl.nearID, t)
				sl.nearX = append(sl.nearX, h.ptsX[t])
				sl.nearY = append(sl.nearY, h.ptsY[t])
			}
		}
	}
}

// buildFrontier runs the shared Barnes–Hut descent for the receiver
// block with cell extent [bx0c,bx1c]×[by0c,by1c], emitting the
// accepted-node frontier every receiver in the block replays. A node
// wholly outside the block's union near box is accepted when θ holds
// at the point of the block's (padded) rectangle nearest to the node's
// center of mass — then it holds for every receiver position in the
// block — and descended otherwise; level-0 nodes outside the union box
// are always accepted, the leaf case of the per-receiver descent. The
// conservative test is monotone in IEEE arithmetic, so the frontier is
// a refinement of what any single receiver's own θ test would accept:
// receivers in the block share one descent and one set of
// center-of-mass divisions, at equal or better accuracy.
func (h *HierEngine) buildFrontier(sl *blockSlabs, bx0c, by0c, bx1c, by1c int) {
	h.frontierBuilds.Add(1)
	sl.evX = sl.evX[:0]
	sl.evY = sl.evY[:0]
	sl.evP = sl.evP[:0]
	rx0 := h.minX + float64(bx0c)*h.cellSize - h.rectPad
	rx1 := h.minX + float64(bx1c+1)*h.cellSize + h.rectPad
	ry0 := h.minY + float64(by0c)*h.cellSize - h.rectPad
	ry1 := h.minY + float64(by1c+1)*h.cellSize + h.rectPad
	theta2 := h.theta2
	nc := h.nearCells
	var stackBuf [160]pyrNode
	stack := stackBuf[:0]
	top := len(h.levels) - 1
	if h.levels[top].pow[0] != 0 {
		stack = append(stack, pyrNode{lv: int32(top), idx: 0})
	}
	for len(stack) > 0 {
		nd := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		lv := &h.levels[nd.lv]
		nx, ny := int(nd.idx)%lv.cols, int(nd.idx)/lv.cols
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
				// Nearest squared distance from the rectangle to the COM.
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
				sl.evX = append(sl.evX, cx)
				sl.evY = append(sl.evY, cy)
				sl.evP = append(sl.evP, pow)
				continue
			}
		} else if nd.lv == 0 {
			continue // inside the near box: summed exactly already
		}
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
}

// resolveReceiver resolves one receiver of block b against the block's
// cache entry, whose near field is current: a kernel-free argmin over
// the gathered near field elects the decoding candidate, then only
// candidates pay the exact near fold and the frontier replay (accepted
// nodes as flat multiply-adds). The block's frontier is built on its
// first candidate whose far sum is not cached, so a block whose
// receivers are all rejected never descends. Both folds run through
// the portable simd batch kernels, which preserve the scalar summation
// order bit-exactly — the per-receiver descent oracle of the
// round-sequence tests pins that.
func (h *HierEngine) resolveReceiver(bc *blockCacheEntry, b, u int32, dst []Reception) []Reception {
	sl := &bc.blockSlabs
	p := h.params
	pw := p.Power()
	kern := h.kern
	upx, upy := h.ptsX[u], h.ptsY[u]

	// Rejection first: a pure-distance argmin with no kernel math. Most
	// stations of a hot block have no transmitter within the
	// communication range (only their block is hot, not their cell) and
	// bow out here without a single divide or square root. Only decode
	// candidates pay the kernel fold — which accumulates in index order,
	// so the split is bit-identical to a fused scan (a rejected
	// station's total is never observed).
	bi, bestD2 := simd.ArgMin(upx, upy, sl.nearX, sl.nearY, math.Inf(1))
	if bi < 0 || bestD2 > 1 {
		return dst
	}
	best := sl.nearID[bi]
	total := kern.NearSum(pw, upx, upy, sl.nearX, sl.nearY, 0)

	if h.farEpoch[u] != h.aggEpoch {
		if bc.frontierEpoch != h.aggEpoch {
			bx0, by0, bx1, by1 := h.blockCellRange(b)
			h.buildFrontier(sl, bx0, by0, bx1, by1)
			bc.frontierEpoch = h.aggEpoch
		}
		h.farCache[u] = kern.FarSum(upx, upy, sl.evX, sl.evY, sl.evP)
		h.farEpoch[u] = h.aggEpoch
	}
	total += h.farCache[u]

	s := pw * kern.FromDist2(bestD2)
	intf := total - s
	if intf < 0 {
		intf = 0
	}
	if p.Decodes(s, intf) {
		dst = append(dst, Reception{Receiver: int(u), Transmitter: int(best)})
	}
	return dst
}

// collectBlocks is the engine's one receiver loop: it resolves every
// non-transmitting station of the given work-list ranges (whose blocks
// are hot by construction) against the per-block slab cache. A slab
// whose stamp carries the current aggregation epoch replays as-is;
// otherwise it is rebuilt lazily and restamped — the near gather on
// the block's first eligible receiver, the shared descent on its first
// decode candidate (see resolveReceiver), so a hot block with no
// candidate skips the descent. A block appears once per work list and
// runs in exactly one chunk, so each cache entry has a single writer
// per round. Receptions come out grouped by block; the caller sorts by
// receiver.
func (h *HierEngine) collectBlocks(work []blockRange, dst []Reception) []Reception {
	for _, w := range work {
		bc := &h.blockCache[w.b]
		for _, u := range h.workItems[w.lo:w.hi] {
			if h.isTx[u] {
				continue
			}
			if bc.nearEpoch != h.aggEpoch {
				bx0, by0, bx1, by1 := h.blockCellRange(w.b)
				h.gatherNear(&bc.blockSlabs, bx0, by0, bx1, by1)
				bc.nearEpoch = h.aggEpoch
			}
			dst = h.resolveReceiver(bc, w.b, u, dst)
		}
	}
	return dst
}
