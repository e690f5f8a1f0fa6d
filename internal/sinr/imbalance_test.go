package sinr

import (
	"fmt"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"sinrcast/internal/rng"
)

// parallelEngines builds one engine of every parallel shape over the
// scene: exact, grid and hier.
func parallelEngines(t *testing.T, seed uint64, n int, side float64) map[string]func() Resolver {
	t.Helper()
	scene := randomScene(seed, n, side)
	return map[string]func() Resolver{
		"exact": func() Resolver {
			e, err := NewEngine(scene, DefaultParams())
			if err != nil {
				t.Fatal(err)
			}
			return e
		},
		"grid": func() Resolver {
			g, err := NewGridEngine(scene, DefaultParams(), DefaultCellSize, DefaultNearRadius)
			if err != nil {
				t.Fatal(err)
			}
			return g
		},
		"hier": func() Resolver {
			h, err := NewHierEngine(scene, DefaultParams(), DefaultCellSize, DefaultNearRadius, DefaultTheta)
			if err != nil {
				t.Fatal(err)
			}
			return h
		},
	}
}

// TestOneReceiverPerChunkByteIdentical runs every engine with one
// receiver per chunk — hundreds of chunks per round, so the workers
// contend on the cursor for every receiver — and requires the output
// to stay byte-identical to the serial engine on Resolve and
// ResolveFor alike.
func TestOneReceiverPerChunkByteIdentical(t *testing.T) {
	const n = 600
	for name, build := range parallelEngines(t, 42, n, 35) {
		for _, workers := range []int{2, 3, 8} {
			serial := build()
			serial.SetWorkers(1)
			par := build()
			ForceParallelForTest(par, workers)
			SetChunkTargetForTest(par, 1)
			r := rng.New(uint64(workers) * 17)
			for round := 0; round < 8; round++ {
				tx := randomTxSet(r, n, 0.15)
				label := fmt.Sprintf("%s w=%d round=%d", name, workers, round)
				want := append([]Reception(nil), serial.Resolve(tx)...)
				diffReceptions(t, label, want, par.Resolve(tx))
				sub := randomTxSet(r, n, 0.3) // ascending subset, reuse the generator
				want = append(want[:0], serial.ResolveFor(tx, sub)...)
				diffReceptions(t, label+" subset", want, par.ResolveFor(tx, sub))
			}
		}
	}
}

// TestWorkerCountChangesMidSequence drives the hier engine through a
// round sequence that exercises the delta aggregation and epoch caches
// — overlapping transmitter sets, exact repeats, subset rounds — while
// reconfiguring the worker pool between rounds (worker counts up and
// down, serial interludes). Every round must stay byte-identical to a
// serial engine replaying the same sequence: pool rebuilds must neither
// corrupt nor drop the cross-round caches.
func TestWorkerCountChangesMidSequence(t *testing.T) {
	const n = 700
	scene := randomScene(9, n, 30)
	serial, err := NewHierEngine(scene, DefaultParams(), DefaultCellSize, DefaultNearRadius, DefaultTheta)
	if err != nil {
		t.Fatal(err)
	}
	serial.SetWorkers(1)
	par, err := NewHierEngine(scene, DefaultParams(), DefaultCellSize, DefaultNearRadius, DefaultTheta)
	if err != nil {
		t.Fatal(err)
	}
	par.minParallelN = 0

	r := rng.New(1234)
	tx := randomTxSet(r, n, 0.2)
	for round, workers := range []int{2, 2, 4, 1, 4, 3, 3, 1, 2, 8} {
		par.SetWorkers(workers)
		switch round % 4 {
		case 1:
			// Exact repeat: the zero-churn epoch-cache replay path.
		case 2:
			// Small churn: flip a few stations in or out.
			in := make([]bool, n)
			for _, s := range tx {
				in[s] = true
			}
			tx = tx[:0]
			for i := 0; i < n; i++ {
				if in[i] != r.Bernoulli(0.02) {
					tx = append(tx, i)
				}
			}
		default:
			tx = randomTxSet(r, n, 0.2)
		}
		label := fmt.Sprintf("round=%d w=%d", round, workers)
		want := append([]Reception(nil), serial.Resolve(tx)...)
		diffReceptions(t, label, want, par.Resolve(tx))
		if round%3 == 0 {
			sub := randomTxSet(r, n, 0.4)
			want = append(want[:0], serial.ResolveFor(tx, sub)...)
			diffReceptions(t, label+" subset", want, par.ResolveFor(tx, sub))
		}
	}
}

// heldRound is the imbalance fixture for one parallel round: chunk 0
// does not start its work until every other chunk of the round has
// finished, counted on done. The wait has a deadline, so a runtime
// that cannot finish the other chunks without the worker holding
// chunk 0 — a static split that gives each worker one fixed range of
// chunks — fails the test instead of hanging it.
type heldRound struct {
	par      *chunkRunner
	deadline time.Duration
	done     atomic.Int64
	by       []int // worker that ran each chunk, by chunk index
	// timedOut and doneAtDeadline are written by chunk 0 only.
	timedOut       bool
	doneAtDeadline int64
}

// wrap returns fn with the hold in front of chunk 0.
func (h *heldRound) wrap(fn func(chunk, worker int)) func(chunk, worker int) {
	return func(chunk, worker int) {
		h.by[chunk] = worker
		if chunk == 0 {
			end := time.Now().Add(h.deadline)
			for h.done.Load() < int64(h.par.nChunks-1) {
				if time.Now().After(end) {
					h.timedOut, h.doneAtDeadline = true, h.done.Load()
					break
				}
				runtime.Gosched()
			}
			fn(chunk, worker)
			return
		}
		fn(chunk, worker)
		h.done.Add(1)
	}
}

// install puts the hold around the chunk function of the engine's
// whole-round parallel path: the receiver-range path on the exact and
// grid engines, the receiver-block path on the hier engine.
func (h *heldRound) install(r Resolver) {
	switch e := r.(type) {
	case *Engine:
		e.chunkFn = h.wrap(e.runChunk)
	case *GridEngine:
		e.chunkFn = h.wrap(e.runChunk)
	case *HierEngine:
		e.blockFn = h.wrap(e.runChunkBlock)
	default:
		panic("heldRound: unknown engine type")
	}
	h.par = runnerOf(r)
}

// TestHeldChunkImbalanceGate is the counted imbalance gate of the
// parallel runtime. In one round, chunk 0 blocks until every other
// chunk has finished. The round must complete within the deadline, no
// other chunk may run on the worker holding chunk 0, and the output
// must stay byte-identical to the serial engine. The hold forces the
// imbalance on any hardware and any GOMAXPROCS, so the gate is
// counted, not timed.
func TestHeldChunkImbalanceGate(t *testing.T) {
	const n = 800
	for name, build := range parallelEngines(t, 5, n, 35) {
		for _, workers := range []int{2, 3} {
			label := fmt.Sprintf("%s w=%d", name, workers)
			serial := build()
			serial.SetWorkers(1)
			par := build()
			ForceParallelForTest(par, workers)
			h := &heldRound{deadline: 10 * time.Second, by: make([]int, n)}
			h.install(par)

			tx := randomTxSet(rng.New(77), n, 0.25)
			want := append([]Reception(nil), serial.Resolve(tx)...)
			got := par.Resolve(tx)
			if h.timedOut {
				t.Fatalf("%s: chunk 0 waited %v and %d of %d other chunks finished; the others could not run without its worker",
					label, h.deadline, h.doneAtDeadline, h.par.nChunks-1)
			}
			if h.par.nChunks < 4 {
				t.Fatalf("%s: fixture round has %d chunks, want at least 4", label, h.par.nChunks)
			}
			if got := h.done.Load(); got != int64(h.par.nChunks-1) {
				t.Fatalf("%s: %d other chunks finished, want %d", label, got, h.par.nChunks-1)
			}
			for c := 1; c < h.par.nChunks; c++ {
				if h.by[c] == h.by[0] {
					t.Fatalf("%s: chunk %d ran on worker %d, which was holding chunk 0", label, c, h.by[0])
				}
			}
			diffReceptions(t, label, want, got)
		}
	}
}

// TestWorkerPoolRunsEveryChunkOnce pins the pool contract the engines
// build on: every chunk of a round runs exactly once, on a worker id
// below the pool size.
func TestWorkerPoolRunsEveryChunkOnce(t *testing.T) {
	for _, size := range []int{1, 2, 3, 8} {
		p := newWorkerPool(size)
		for _, nChunks := range []int{1, 2, 5, 64} {
			runs := make([]int32, nChunks)
			by := make([]int, nChunks)
			p.run(nChunks, func(chunk, worker int) {
				atomic.AddInt32(&runs[chunk], 1)
				by[chunk] = worker
			})
			for c, k := range runs {
				if k != 1 {
					t.Fatalf("size=%d chunks=%d: chunk %d ran %d times", size, nChunks, c, k)
				}
				if by[c] < 0 || by[c] >= size {
					t.Fatalf("size=%d chunks=%d: chunk %d ran on worker %d", size, nChunks, c, by[c])
				}
			}
		}
		p.close()
	}
}

// TestWorkerPoolFewerChunksThanWorkers: a round with fewer chunks than
// workers wakes only as many workers as there are chunks (no
// degenerate empty dispatches) and still runs every chunk once.
func TestWorkerPoolFewerChunksThanWorkers(t *testing.T) {
	p := newWorkerPool(16)
	defer p.close()
	for _, nChunks := range []int{1, 2, 3} {
		runs := make([]int32, nChunks)
		by := make([]int, nChunks)
		p.run(nChunks, func(chunk, worker int) {
			atomic.AddInt32(&runs[chunk], 1)
			by[chunk] = worker
		})
		for c, k := range runs {
			if k != 1 {
				t.Fatalf("chunks=%d: chunk %d ran %d times", nChunks, c, k)
			}
			if by[c] >= nChunks {
				t.Fatalf("chunks=%d: chunk %d ran on worker %d, but only %d workers may wake", nChunks, c, by[c], nChunks)
			}
		}
	}
}

// TestWorkerPoolEmptyRoundIsNoOp: a zero-chunk round calls nothing and
// leaves the pool usable.
func TestWorkerPoolEmptyRoundIsNoOp(t *testing.T) {
	for _, size := range []int{1, 4} {
		p := newWorkerPool(size)
		called := false
		p.run(0, func(chunk, worker int) { called = true })
		if called {
			t.Fatalf("size=%d: fn called on an empty round", size)
		}
		var ran atomic.Int32
		p.run(3, func(chunk, worker int) { ran.Add(1) })
		if ran.Load() != 3 {
			t.Fatalf("size=%d: round after the empty one ran %d of 3 chunks", size, ran.Load())
		}
		p.close()
	}
}

// TestWorkerPoolSizeOneRunsInline: a size-1 pool has no goroutines of
// its own, so the caller runs every chunk as worker 0, in ascending
// chunk order.
func TestWorkerPoolSizeOneRunsInline(t *testing.T) {
	p := newWorkerPool(1)
	defer p.close()
	var order []int
	p.run(5, func(chunk, worker int) {
		if worker != 0 {
			t.Fatalf("size-1 pool used worker %d", worker)
		}
		order = append(order, chunk)
	})
	if len(order) != 5 {
		t.Fatalf("size-1 pool ran %d of 5 chunks", len(order))
	}
	for i, c := range order {
		if c != i {
			t.Fatalf("size-1 chunk order %v, want ascending", order)
		}
	}
}

// TestWorkerPoolHeldChunkImbalanceGate is the pool-level counted
// imbalance gate: chunk 0 blocks until every other chunk has finished,
// counted, with a deadline that fails the test instead of hanging it.
// The round must complete and no other chunk may run on the worker
// holding chunk 0 — so the other workers must drain the whole rest of
// the round, on any hardware and any GOMAXPROCS.
func TestWorkerPoolHeldChunkImbalanceGate(t *testing.T) {
	const nChunks = 32
	const deadline = 10 * time.Second
	for _, size := range []int{2, 4} {
		p := newWorkerPool(size)
		var done atomic.Int64
		runs := make([]int32, nChunks)
		by := make([]int, nChunks)
		timedOut, doneAtDeadline := false, int64(0)
		p.run(nChunks, func(chunk, worker int) {
			atomic.AddInt32(&runs[chunk], 1)
			by[chunk] = worker
			if chunk != 0 {
				done.Add(1)
				return
			}
			end := time.Now().Add(deadline)
			for done.Load() < nChunks-1 {
				if time.Now().After(end) {
					timedOut, doneAtDeadline = true, done.Load()
					return
				}
				runtime.Gosched()
			}
		})
		p.close()
		if timedOut {
			t.Fatalf("size=%d: chunk 0 waited %v and %d of %d other chunks finished; the others could not run without its worker", size, deadline, doneAtDeadline, nChunks-1)
		}
		for c, k := range runs {
			if k != 1 {
				t.Fatalf("size=%d: chunk %d ran %d times", size, c, k)
			}
			if c != 0 && by[c] == by[0] {
				t.Fatalf("size=%d: chunk %d ran on worker %d, which was holding chunk 0", size, c, by[0])
			}
		}
	}
}
