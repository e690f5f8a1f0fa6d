package main

import (
	"sinrcast/internal/exp"
	"sinrcast/internal/rng"
	"sinrcast/internal/serve"
)

// Seed plumbing. Every input a workload hands the program derives from
// the workload seed through rng.Derive, with one domain constant per
// purpose, so one seed reproduces the inputs exactly and no input
// depends on timing or on which client goroutine sends it.
const (
	domServePool uint64 = iota + 1
	domServeJob
	domServeFresh
	domBcast
	domExp
)

// serve-mix: short run jobs over four small families and three
// flooding protocols. The key pool is small so most jobs hit the
// warm-engine cache.
var (
	serveScenarios = []string{"uniform:n=256", "gridholes:n=256", "annulus:n=256", "starclusters"}
	serveProtocols = []string{"decay", "oracle", "tdma"}
)

const servePoolSeeds = 8

// Job classes of the serve-mix schedule.
const (
	classHit  = "hit"  // pool key, served from the warm cache
	classMiss = "miss" // fresh seed: generation and engine build
	classExp  = "exp"  // E13 restricted to one cell; bypasses the cache
)

// serveJob is one scheduled submission.
type serveJob struct {
	class string
	req   serve.JobRequest
}

// servePoolSeed is the k-th deployment seed of the key pool.
func servePoolSeed(seed uint64, k int) uint64 { return rng.Derive(seed, domServePool, uint64(k)) }

// serveWarmup lists one run job per (scenario, pool seed, protocol):
// the first job of each key builds its cache entry, the rest hit it.
func serveWarmup(seed uint64) []serveJob {
	var out []serveJob
	for _, sc := range serveScenarios {
		for k := 0; k < servePoolSeeds; k++ {
			for _, pr := range serveProtocols {
				out = append(out, serveJob{classHit, serve.JobRequest{
					Scenario: sc, Protocol: pr, Seed: servePoolSeed(seed, k), Trials: 1}})
			}
		}
	}
	return out
}

// serveJobAt is the i-th job of the measured schedule: 1 in 16 uses a
// fresh seed (a cache miss), 1 in 16 is a one-cell E13 experiment with
// 2 trials, and the rest reuse a pool key.
func serveJobAt(seed uint64, i int) serveJob {
	h := rng.Derive(seed, domServeJob, uint64(i))
	sc := serveScenarios[(h>>8)%uint64(len(serveScenarios))]
	pr := serveProtocols[(h>>16)%uint64(len(serveProtocols))]
	pool := servePoolSeed(seed, int((h>>24)%servePoolSeeds))
	switch h % 16 {
	case 0:
		return serveJob{classMiss, serve.JobRequest{
			Scenario: sc, Protocol: pr, Seed: rng.Derive(seed, domServeFresh, uint64(i)), Trials: 1}}
	case 1:
		return serveJob{classExp, serve.JobRequest{
			Experiment: 13, Scenario: sc, Protocol: pr, Seed: pool, Trials: 2}}
	default:
		return serveJob{classHit, serve.JobRequest{Scenario: sc, Protocol: pr, Seed: pool, Trials: 1}}
	}
}

// bcastCase is one library-path broadcast of bcast-solo.
type bcastCase struct {
	Name, Scenario, Protocol, Engine string
}

// bcastCases split into approximate engines, where resolve dominates,
// and the paper's algorithms on the exact engine, where protocol logic
// and the wake calendar dominate.
var bcastCases = []bcastCase{
	{"decay-hier", "uniform:n=8192", "decay", "hier"},
	{"decay-grid", "uniform:n=4096", "decay", "auto"},
	{"nos-exact", "uniform:n=128", "nos", "exact"},
	{"s-exact", "uniform:n=256", "s", "exact"},
}

// bcastSeeds returns the deployment and protocol seeds of instance k
// of case c. Every instance draws fresh inputs, so a run's median
// averages over many deployments instead of riding on one.
func bcastSeeds(seed uint64, k, c int) (deploy, proto uint64) {
	return rng.Derive(seed, domBcast, uint64(k), uint64(c), 0), rng.Derive(seed, domBcast, uint64(k), uint64(c), 1)
}

// expConfig is the configuration of the t-th exp-matrix table: every
// protocol × every family, 2 trials per cell, at scale 0.5 (n = 16),
// default workers. Each table draws fresh deployments and trial seeds,
// so a run's median averages over many inputs.
func expConfig(seed uint64, t int) exp.Config {
	return exp.Config{Seed: rng.Derive(seed, domExp, uint64(t)), Trials: 2, Scale: 0.5}
}
