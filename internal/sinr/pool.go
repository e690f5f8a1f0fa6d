package sinr

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// parallelCrossover is the default receiver count below which Resolve
// stays serial even when workers are available: a round costs
// O(n·|tx|) float ops, and below ~1k receivers the few microseconds of
// chunk dispatch outweigh the parallel win. Engines expose the knob via
// their minParallelN field so tests can force the parallel path on
// tiny instances.
const parallelCrossover = 1024

// defaultChunkReceivers is the target receiver count per work chunk on
// the range and list paths. Chunks are the unit of load balance: small
// enough that several per worker exist (a slow chunk leaves the others
// to the remaining workers), large enough that the per-chunk cursor
// increment and output slot are noise against the receiver math. The
// hier engine's block path ignores this and chunks at its natural
// 16×16-cell receiver-block granularity.
const defaultChunkReceivers = 1024

// resolveWorkers normalizes a Workers setting: values ≤ 0 select
// runtime.GOMAXPROCS(0).
func resolveWorkers(w int) int {
	if w <= 0 {
		return runtime.GOMAXPROCS(0)
	}
	return w
}

// chunkSlot is one chunk's private output buffer. The trailing pad
// keeps neighboring slice headers on distinct cache lines: two workers
// appending to adjacent chunks would otherwise false-share the line
// holding both headers and ping it between cores on every append.
type chunkSlot struct {
	out []Reception
	_   [40]byte // slice header (24 B on 64-bit) padded to a 64 B line
}

// chunkRunner owns the parallel-resolve machinery shared by the
// engines: the lazy worker pool, its GC teardown registration, and the
// per-chunk output slots that make the ordered merge deterministic.
// hiWater remembers the largest per-chunk reception count ever merged,
// so fresh slots — whether from a bigger round or a rebuilt pool — are
// presized instead of rediscovering the round's decode volume through
// repeated append growth.
//
// Slots are keyed by chunk, not by worker: a pool rebuild (worker-count
// change) keeps every slot, so mid-sequence reconfiguration never
// reallocates or invalidates output buffers.
type chunkRunner struct {
	pool    *workerPool
	cleanup runtime.Cleanup
	slots   []chunkSlot
	nChunks int
	hiWater int
	// chunkTarget overrides defaultChunkReceivers when positive; tests
	// set it to 1 to make every receiver its own chunk.
	chunkTarget int
}

// workerPool runs rounds of chunks on persistent goroutines. The
// calling goroutine works as worker 0 and the pool's goroutines as
// workers 1..size-1; every worker takes the next chunk index from one
// atomic cursor until the round is drained, so a slow chunk holds up
// only its own worker. Which worker runs which chunk never affects the
// output: callers give every chunk its own output slot and merge slots
// in chunk order. Steady-state rounds do not allocate.
type workerPool struct {
	size int
	wake []chan struct{} // one per pool goroutine (workers 1..size-1)
	wg   sync.WaitGroup

	// Round state: written by run before the wake sends and read-only
	// for the round (the channel send/receive pair orders the writes),
	// except the cursor.
	fn      func(chunk, worker int)
	nChunks int
	next    atomic.Int64
}

// newWorkerPool starts size-1 goroutines (size ≥ 1).
func newWorkerPool(size int) *workerPool {
	p := &workerPool{size: size, wake: make([]chan struct{}, size-1)}
	for i := range p.wake {
		p.wake[i] = make(chan struct{}, 1)
		go p.loop(i + 1)
	}
	return p
}

// close terminates the pool's goroutines; the pool must be idle.
func (p *workerPool) close() {
	for _, ch := range p.wake {
		close(ch)
	}
}

func (p *workerPool) loop(id int) {
	for range p.wake[id-1] {
		p.drain(id)
		p.wg.Done()
	}
}

// drain runs chunks from the cursor until none are left.
func (p *workerPool) drain(worker int) {
	for {
		c := int(p.next.Add(1)) - 1
		if c >= p.nChunks {
			return
		}
		p.fn(c, worker)
	}
}

// run executes fn(c, w) exactly once for every chunk c in [0, nChunks),
// where w is the worker that ran it, and returns when every chunk has
// finished. fn must only write chunk-private state (plus
// worker-private scratch indexed by w). Only as many pool goroutines
// are woken as there are chunks beyond the caller's first.
func (p *workerPool) run(nChunks int, fn func(chunk, worker int)) {
	p.fn, p.nChunks = fn, nChunks
	p.next.Store(0)
	helpers := max(min(p.size, nChunks)-1, 0)
	p.wg.Add(helpers)
	for w := 0; w < helpers; w++ {
		p.wake[w] <- struct{}{}
	}
	p.drain(0)
	p.wg.Wait()
	// Drop the engine-bound closure so the pool holds no reference
	// back to its engine between rounds and the GC cleanup can fire.
	p.fn = nil
}

// ensureRunner (re)builds r's worker pool for the given worker count.
// owner is the engine whose unreachability tears the pool down.
// Replacing an existing pool stops its cleanup before closing it, so
// its goroutines are never closed twice.
func ensureRunner[T any](r *chunkRunner, owner *T, workers int) {
	if r.pool != nil && r.pool.size == workers {
		return
	}
	if r.pool != nil {
		r.cleanup.Stop()
		r.pool.close()
	}
	r.pool = newWorkerPool(workers)
	r.cleanup = runtime.AddCleanup(owner, (*workerPool).close, r.pool)
}

// chunkCount cuts n items into chunks: ~chunkTarget items each, at
// least a few per worker so an uneven round still has chunks left to
// hand out, and never more chunks than items — a round with more
// workers than receivers wakes only as many workers as there are
// chunks instead of dispatching degenerate empty ranges.
func (r *chunkRunner) chunkCount(n, workers int) int {
	target := r.chunkTarget
	if target <= 0 {
		target = defaultChunkReceivers
	}
	c := (n + target - 1) / target
	if c < workers*4 {
		c = workers * 4
	}
	if c > n {
		c = n
	}
	return c
}

// chunkRange returns the half-open item range of one chunk over n
// items for the current round's chunk count.
func (r *chunkRunner) chunkRange(chunk, n int) (lo, hi int) {
	return chunk * n / r.nChunks, (chunk + 1) * n / r.nChunks
}

// run executes fn for every one of nChunks chunks on the pool and
// returns out (reused) with the per-chunk receptions appended in chunk
// order. New slots are presized to the high-water reception count.
// Chunk outputs are written by exactly one worker each and the merge
// order is fixed, so the result is byte-identical to serial resolution
// regardless of which worker ran which chunk.
func (r *chunkRunner) run(nChunks int, fn func(chunk, worker int), out []Reception) []Reception {
	r.nChunks = nChunks
	if len(r.slots) < nChunks {
		grown := make([]chunkSlot, nChunks)
		copy(grown, r.slots)
		if r.hiWater > 0 {
			for i := len(r.slots); i < nChunks; i++ {
				grown[i].out = make([]Reception, 0, r.hiWater)
			}
		}
		r.slots = grown
	}
	r.pool.run(nChunks, fn)
	out = out[:0]
	for i := range nChunks {
		s := r.slots[i].out
		out = append(out, s...)
		r.hiWater = max(r.hiWater, len(s))
	}
	return out
}

// runRange chunks n items into contiguous ranges (see chunkCount and
// chunkRange), executes fn for every chunk, and merges.
func (r *chunkRunner) runRange(n, workers int, fn func(chunk, worker int), out []Reception) []Reception {
	return r.run(r.chunkCount(n, workers), fn, out)
}
