package exp

import (
	"runtime"
	"sync"
	"sync/atomic"

	"sinrcast/internal/rng"
)

// Trial concurrency and deterministic seeding.
//
// Every repetition ("trial") of an experiment data point is an
// independent unit of work: it builds its own SINR engine, protocols
// and RNG streams, and only reads the immutable *network.Network it is
// given. An experiment registers the trials of its data points on one
// trialPool, which runs every (point, trial) unit on up to
// Config.Workers goroutines fed by a single cursor, so no data point
// waits for the slowest trial of the one before it. Determinism is
// preserved by construction: a trial's seed is a pure function of
// (Config.Seed, experiment id, data-point id, trial index) — never of
// scheduling — and results land in slots indexed by (point, trial), so
// every table is bit-identical for Workers=1 and Workers=N.
// TestTablesIdenticalAcrossWorkers pins this down.

// workers resolves Config.Workers: values ≤ 0 select GOMAXPROCS.
func (c Config) workers() int {
	if c.Workers <= 0 {
		return runtime.GOMAXPROCS(0)
	}
	return c.Workers
}

// trialSeed derives the RNG seed of one trial from its experiment
// coordinates. expID is the experiment number (1–13); point enumerates
// the data points of the experiment (and, where several algorithms
// share a data point, the algorithm slot — see each runner; the
// registry sweeps E12/E13 key points by family/protocol name hashes).
func (c Config) trialSeed(expID, point uint64, trial int) uint64 {
	return rng.Derive(c.Seed, expID, point, uint64(trial))
}

// trialPool runs the trials of every data point registered on it as
// one batch of work. Register points with addTrials, call run once,
// then read each point's trialSet.
type trialPool struct {
	cfg   Config
	units []trialUnit
}

// trialUnit is one trial of one registered data point.
type trialUnit struct {
	run func(tr int)
	tr  int
}

func newTrialPool(cfg Config) *trialPool { return &trialPool{cfg: cfg} }

// trialSet holds one data point's trial results, in trial order. Its
// slots are filled by trialPool.run.
type trialSet[T any] struct {
	out  []T
	errs []error
}

// addTrials registers n trials of data point (expID, point) on p. fn
// receives each trial's derived seed and must not touch shared mutable
// state (construct engines, policies and RNGs inside fn). The returned
// set is valid once p.run has returned.
func addTrials[T any](p *trialPool, n int, expID, point uint64, fn func(seed uint64) (T, error)) *trialSet[T] {
	s := &trialSet[T]{out: make([]T, n), errs: make([]error, n)}
	cfg := p.cfg
	run := func(tr int) { s.out[tr], s.errs[tr] = runOneTrial(cfg, expID, point, tr, fn) }
	for tr := 0; tr < n; tr++ {
		p.units = append(p.units, trialUnit{run: run, tr: tr})
	}
	return s
}

// run executes every registered unit, concurrently up to
// cfg.workers() goroutines (the caller's included), and returns when
// all have finished. Units are taken in registration order from one
// atomic cursor.
func (p *trialPool) run() {
	w := min(p.cfg.workers(), len(p.units))
	var next atomic.Int64
	work := func() {
		for {
			u := int(next.Add(1)) - 1
			if u >= len(p.units) {
				return
			}
			p.units[u].run(p.units[u].tr)
		}
	}
	var wg sync.WaitGroup
	for i := 1; i < w; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			work()
		}()
	}
	work()
	wg.Wait()
}

// results returns the set's trial results in trial order. If any trial
// failed, the error of the lowest-indexed failing trial is returned —
// deterministic regardless of which goroutine hit it first.
func (s *trialSet[T]) results() ([]T, error) {
	for _, err := range s.errs {
		if err != nil {
			return s.out, err
		}
	}
	return s.out, nil
}

// runNTrials runs n trials of one data point on a one-point pool and
// returns their results (see trialSet.results).
func runNTrials[T any](cfg Config, n int, expID, point uint64, fn func(seed uint64) (T, error)) ([]T, error) {
	p := newTrialPool(cfg)
	s := addTrials(p, n, expID, point, fn)
	p.run()
	return s.results()
}

// runTrials is runNTrials over the configured cfg.trials() count.
func runTrials[T any](cfg Config, expID, point uint64, fn func(seed uint64) (T, error)) ([]T, error) {
	return runNTrials(cfg, cfg.trials(), expID, point, fn)
}
