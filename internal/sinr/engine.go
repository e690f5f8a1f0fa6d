package sinr

import (
	"fmt"
	"math"

	"sinrcast/internal/geom"
)

// Reception describes the outcome at one receiver in one round.
type Reception struct {
	// Receiver is the station index hearing the message.
	Receiver int
	// Transmitter is the station index whose message was decoded.
	Transmitter int
}

// Engine resolves rounds of the SINR model exactly: for every listening
// station it sums interference over all transmitters and applies Eq. (1).
// With uniform power the strongest (closest) transmitter is the only
// decoding candidate, so at most one message is delivered per receiver
// per round.
//
// Path loss is evaluated through a Kernel specialized for the exponent
// α, and rounds over networks at least as large as the parallel
// crossover are cut into receiver-range chunks drained by the worker
// pool (see chunkRunner). Parallel resolution is byte-identical to
// serial: each receiver accumulates interference in the same
// transmitter order regardless of chunking, and chunk outputs are
// concatenated in receiver order whichever worker ran each chunk.
//
// A full round with a single transmitter is resolved once per station
// and replayed from a per-run memo afterwards (see soloMemo; the grid
// and hier engines do the same).
//
// The zero value is not usable; construct with NewEngine. An Engine is
// not safe for concurrent use by multiple goroutines (it owns scratch
// state); use one Engine per goroutine instead — Clone is the cheap way
// to get one, sharing the topology-derived slabs and allocating only
// the per-run scratch.
type Engine struct {
	*engineTopo

	// workers is the resolved worker count; minParallelN is the
	// receiver count below which rounds stay serial.
	workers      int
	minParallelN int
	par          chunkRunner
	chunkFn      func(chunk, worker int)
	chunkForFn   func(chunk, worker int)
	curTx        []int // transmitter set of the round being chunked
	curRecv      []int // receiver subset of the ResolveFor round being chunked

	// scratch buffers reused across rounds to stay allocation free.
	sig  []float64 // total received power per station
	best []int32   // index of closest transmitter per station
	// bestD is the distance from each station to its closest
	// transmitter, in the unit native to the resolve path: SQUARED
	// Euclidean distance on the fast path, RAW metric distance on the
	// generic path. Both paths cut off decoding at bestD > 1, which is
	// the same predicate either way because the communication range is
	// normalized to exactly 1 (d > 1 ⇔ d² > 1).
	bestD []float64
	isTx  []bool
	solo  soloMemo
	// out is the merged reception list returned by Resolve; the
	// chunkRunner holds per-chunk buffers so parallel rounds write
	// disjoint slices and merge deterministically.
	out []Reception
}

// engineTopo is the immutable half of an Engine: everything derived
// from the (space, params) pair alone, never written after
// construction. Clones of one engine share a single engineTopo — the
// position slabs are the bulk of an exact engine's footprint — and
// allocate only the mutable half (scratch arrays, runner, output).
type engineTopo struct {
	params Params
	kern   Kernel
	space  geom.Space
	// pts is a fast-path cache of planar positions when the space is
	// Euclidean; nil otherwise. ptsX/ptsY are the same coordinates as
	// structure-of-arrays slabs — the accumulate inner loops stream
	// through one coordinate axis at a time, and the slab layout keeps
	// those streams dense in cache.
	pts  []geom.Point
	ptsX []float64
	ptsY []float64
}

// NewEngine builds an engine for the given space and parameters. The
// worker count defaults to runtime.GOMAXPROCS(0); see SetWorkers.
func NewEngine(s geom.Space, p Params) (*Engine, error) {
	if err := p.Validate(s.Growth()); err != nil {
		return nil, err
	}
	tp := &engineTopo{
		params: p,
		kern:   NewKernel(p.Alpha),
		space:  s,
	}
	if eu, ok := s.(*geom.Euclidean); ok {
		n := s.Len()
		tp.pts = eu.Pts
		tp.ptsX = make([]float64, n)
		tp.ptsY = make([]float64, n)
		for i, q := range eu.Pts {
			tp.ptsX[i], tp.ptsY[i] = q.X, q.Y
		}
	}
	return engineFromTopo(tp), nil
}

// engineFromTopo builds the mutable per-run half of an engine over
// an already-built topology. Both NewEngine and Clone go through it, so
// a clone starts in exactly the state a fresh construction would. The
// scratch arrays are allocated lazily on first resolve (see
// ensureRunState), which keeps cloning down to pointer copies.
func engineFromTopo(tp *engineTopo) *Engine {
	return &Engine{
		engineTopo:   tp,
		workers:      resolveWorkers(0),
		minParallelN: parallelCrossover,
	}
}

// ensureRunState allocates the per-round scratch on first use; sig
// doubles as the "already allocated" sentinel (engines require at
// least one station).
func (e *Engine) ensureRunState() {
	if e.sig != nil {
		return
	}
	n := e.space.Len()
	e.sig = make([]float64, n)
	e.best = make([]int32, n)
	e.bestD = make([]float64, n)
	e.isTx = make([]bool, n)
}

// Clone returns an independent engine sharing this engine's immutable
// topology (positions, kernel, space) with fresh per-run scratch. The
// clone resolves byte-identically to a freshly constructed engine and
// may be used concurrently with the original — each engine still owns
// its scratch, so no single engine is concurrency-safe, but separate
// clones are. Tuning (workers, parallel crossover) is copied.
func (e *Engine) Clone() *Engine {
	c := engineFromTopo(e.engineTopo)
	c.workers, c.minParallelN = e.workers, e.minParallelN
	return c
}

// Params returns the physical parameters the engine was built with.
func (e *Engine) Params() Params { return e.params }

// N returns the number of stations.
func (e *Engine) N() int { return e.space.Len() }

// SetWorkers sets how many goroutines Resolve may use; w ≤ 0 selects
// runtime.GOMAXPROCS(0). Networks smaller than the parallel crossover
// still resolve serially, and output is byte-identical for every
// worker count.
func (e *Engine) SetWorkers(w int) { e.workers = resolveWorkers(w) }

// Resolve computes all successful receptions for one round in which
// exactly the stations listed in tx transmit. The returned slice is
// owned by the engine and valid until the next Resolve call.
//
// Semantics follow §1.1: a transmitting station cannot receive; a
// station decodes its closest transmitter iff the SINR threshold holds.
func (e *Engine) Resolve(tx []int) []Reception {
	if len(tx) == 0 {
		return nil
	}
	if out, ok := e.solo.replay(tx, e.out); ok {
		e.out = out
		return out
	}
	e.ensureRunState()
	n := e.space.Len()
	for _, t := range tx {
		if t < 0 || t >= n {
			panic(fmt.Sprintf("sinr: transmitter %d out of range [0,%d)", t, n))
		}
		e.isTx[t] = true
	}
	if e.workers > 1 && n >= e.minParallelN {
		e.resolveParallel(tx)
	} else {
		e.accumulate(tx, 0, n)
		e.out = e.collect(0, n, e.out[:0])
	}
	for _, t := range tx {
		e.isTx[t] = false
	}
	e.solo.record(tx, n, e.out)
	return e.out
}

// ResolveFor computes the receptions of one round restricted to the
// given receivers: the result is byte-identical to Resolve(tx) filtered
// to receivers in the subset — interference at a receiver depends only
// on that receiver and the transmitter set, so skipping other stations
// changes nothing for the listed ones. receivers must be strictly
// increasing station indices; the slice is only read. The cost is
// O(|tx|·|receivers|), which is what makes it worthwhile: protocols
// whose inactive stations can no longer change state (see sim.Engine's
// receiver-activity hook) stop paying O(n) per round.
func (e *Engine) ResolveFor(tx []int, receivers []int) []Reception {
	if len(tx) == 0 || len(receivers) == 0 {
		return nil
	}
	e.ensureRunState()
	n := e.space.Len()
	checkReceivers(receivers, n)
	for _, t := range tx {
		if t < 0 || t >= n {
			panic(fmt.Sprintf("sinr: transmitter %d out of range [0,%d)", t, n))
		}
		e.isTx[t] = true
	}
	if e.workers > 1 && len(receivers) >= e.minParallelN {
		ensureRunner(&e.par, e, e.workers)
		if e.chunkForFn == nil {
			e.chunkForFn = e.runChunkFor
		}
		e.curTx, e.curRecv = tx, receivers
		e.out = e.par.runRange(len(receivers), e.workers, e.chunkForFn, e.out)
		e.curTx, e.curRecv = nil, nil
	} else {
		e.accumulateFor(tx, receivers)
		e.out = e.collectFor(receivers, e.out[:0])
	}
	for _, t := range tx {
		e.isTx[t] = false
	}
	return e.out
}

// runChunkFor resolves one contiguous slice of the ResolveFor subset.
func (e *Engine) runChunkFor(chunk, worker int) {
	lo, hi := e.par.chunkRange(chunk, len(e.curRecv))
	recv := e.curRecv[lo:hi]
	e.accumulateFor(e.curTx, recv)
	e.par.slots[chunk].out = e.collectFor(recv, e.par.slots[chunk].out[:0])
}

// resolveParallel chunks the receiver range [0,n) across the worker
// pool. Chunks touch disjoint ranges of the scratch arrays and append
// into their own output slots, which are then concatenated in chunk
// (= ascending receiver) order, so the merged result is byte-identical
// to the serial one regardless of which worker ran which chunk.
func (e *Engine) resolveParallel(tx []int) {
	ensureRunner(&e.par, e, e.workers)
	if e.chunkFn == nil {
		e.chunkFn = e.runChunk
	}
	e.curTx = tx
	e.out = e.par.runRange(e.space.Len(), e.workers, e.chunkFn, e.out)
	e.curTx = nil
}

// runChunk resolves one contiguous receiver range.
func (e *Engine) runChunk(chunk, worker int) {
	lo, hi := e.par.chunkRange(chunk, e.space.Len())
	e.accumulate(e.curTx, lo, hi)
	e.par.slots[chunk].out = e.collect(lo, hi, e.par.slots[chunk].out[:0])
}

// accumulate fills sig/best/bestD for receivers in [lo,hi).
func (e *Engine) accumulate(tx []int, lo, hi int) {
	if e.pts != nil {
		e.accumulateEuclidean(tx, lo, hi)
	} else {
		e.accumulateGeneric(tx, lo, hi)
	}
}

// accumulateEuclidean is the hot path: flat slices, squared distances,
// kernel-specialized path loss, no interface calls in the inner loop.
// Each transmitter row runs through the batch AccumRow kernel — d^-α
// evaluated from the squared distance (no sqrt, no Pow for the common
// exponents), with the kernel dispatch hoisted out of the receiver
// loop. Per-receiver updates are independent, so the batch form is
// trivially bit-identical to the plain loop.
func (e *Engine) accumulateEuclidean(tx []int, lo, hi int) {
	pw := e.params.Power()
	kern := e.kern
	for u := lo; u < hi; u++ {
		e.sig[u] = 0
		e.best[u] = -1
		e.bestD[u] = math.Inf(1)
	}
	x, y := e.ptsX[lo:hi], e.ptsY[lo:hi]
	isTx, sig := e.isTx[lo:hi], e.sig[lo:hi]
	bestD, best := e.bestD[lo:hi], e.best[lo:hi]
	for _, t := range tx {
		kern.AccumRow(pw, e.ptsX[t], e.ptsY[t], int32(t), x, y, isTx, sig, bestD, best)
	}
}

// accumulateFor fills sig/best/bestD for exactly the listed receivers.
// The transmitter loop order matches accumulate, so every touched entry
// holds bit-identical values to a full-range pass.
func (e *Engine) accumulateFor(tx []int, receivers []int) {
	pw := e.params.Power()
	kern := e.kern
	for _, u := range receivers {
		e.sig[u] = 0
		e.best[u] = -1
		e.bestD[u] = math.Inf(1)
	}
	if e.pts != nil {
		for _, t := range tx {
			tx0, ty0 := e.ptsX[t], e.ptsY[t]
			for _, u := range receivers {
				if e.isTx[u] {
					continue
				}
				dx := e.ptsX[u] - tx0
				dy := e.ptsY[u] - ty0
				d2 := dx*dx + dy*dy
				e.sig[u] += pw * kern.FromDist2(d2)
				if d2 < e.bestD[u] {
					e.bestD[u] = d2
					e.best[u] = int32(t)
				}
			}
		}
		return
	}
	for _, t := range tx {
		for _, u := range receivers {
			if e.isTx[u] {
				continue
			}
			d := e.space.Dist(t, u)
			e.sig[u] += pw * kern.FromDist(d)
			if d < e.bestD[u] {
				e.bestD[u] = d
				e.best[u] = int32(t)
			}
		}
	}
}

// collectFor appends the receptions of exactly the listed receivers,
// in list (= ascending receiver) order.
func (e *Engine) collectFor(receivers []int, dst []Reception) []Reception {
	p := e.params
	pw := p.Power()
	euclid := e.pts != nil
	for _, u := range receivers {
		if e.isTx[u] || e.best[u] < 0 || e.bestD[u] > 1 {
			continue
		}
		var s float64
		if euclid {
			s = pw * e.kern.FromDist2(e.bestD[u])
		} else {
			s = pw * e.kern.FromDist(e.bestD[u])
		}
		intf := e.sig[u] - s
		if intf < 0 {
			intf = 0
		}
		if p.Decodes(s, intf) {
			dst = append(dst, Reception{Receiver: u, Transmitter: int(e.best[u])})
		}
	}
	return dst
}

// accumulateGeneric handles arbitrary metric spaces through the
// interface; bestD holds raw metric distances here.
func (e *Engine) accumulateGeneric(tx []int, lo, hi int) {
	pw := e.params.Power()
	kern := e.kern
	for u := lo; u < hi; u++ {
		e.sig[u] = 0
		e.best[u] = -1
		e.bestD[u] = math.Inf(1)
	}
	for _, t := range tx {
		for u := lo; u < hi; u++ {
			if e.isTx[u] {
				continue
			}
			d := e.space.Dist(t, u)
			e.sig[u] += pw * kern.FromDist(d)
			if d < e.bestD[u] {
				e.bestD[u] = d
				e.best[u] = int32(t)
			}
		}
	}
}

// collect appends the receptions of receivers in [lo,hi) to dst. The
// bestD[u] > 1 cutoff rejects receivers farther than the normalized
// communication range 1 from their closest transmitter (no signal can
// be decoded there even with zero interference); it is correct in both
// distance units because 1² = 1.
func (e *Engine) collect(lo, hi int, dst []Reception) []Reception {
	p := e.params
	pw := p.Power()
	euclid := e.pts != nil
	for u := lo; u < hi; u++ {
		if e.isTx[u] || e.best[u] < 0 || e.bestD[u] > 1 {
			continue
		}
		var s float64
		if euclid {
			s = pw * e.kern.FromDist2(e.bestD[u])
		} else {
			s = pw * e.kern.FromDist(e.bestD[u])
		}
		intf := e.sig[u] - s
		if intf < 0 {
			intf = 0
		}
		if p.Decodes(s, intf) {
			dst = append(dst, Reception{Receiver: u, Transmitter: int(e.best[u])})
		}
	}
	return dst
}

// InterferenceAt returns the total received power at station u from all
// stations in tx (excluding u itself if present). Used by invariant
// checks and tests; not on the hot path.
func (e *Engine) InterferenceAt(u int, tx []int) float64 {
	total := 0.0
	for _, t := range tx {
		if t == u {
			continue
		}
		total += e.params.Signal(e.space.Dist(t, u))
	}
	return total
}

// SINRAt returns the SINR of transmitter v at receiver u against the set
// tx (v need not be a member of tx; it is excluded from interference).
func (e *Engine) SINRAt(v, u int, tx []int) float64 {
	sig := e.params.Signal(e.space.Dist(v, u))
	intf := 0.0
	for _, t := range tx {
		if t == v || t == u {
			continue
		}
		intf += e.params.Signal(e.space.Dist(t, u))
	}
	return sig / (e.params.Noise + intf)
}
