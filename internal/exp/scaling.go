package exp

import (
	"fmt"
	"math"
	"time"

	"sinrcast/internal/baseline"
	"sinrcast/internal/broadcast"
	"sinrcast/internal/network"
	"sinrcast/internal/scenario"
	"sinrcast/internal/sim"
	"sinrcast/internal/sinr"
	"sinrcast/internal/stats"
)

// E14LargeNScaling measures how far the engine stack carries the
// paper's algorithms: NoSBroadcast and the Decay flood on uniform and
// starclusters deployments at n ∈ {10⁴, 10⁵, 10⁶} (times Config.Scale),
// resolved by the engine Config.Engine selects (default "auto" — exact
// below 4096 stations, the hierarchical far-field pyramid from there
// on; see sinr.Choose).
//
// Unlike E1–E13 this is a throughput experiment, not a completion
// experiment: each run is capped at ⌈2·lg²n⌉ rounds — enough to watch
// the broadcast wavefront move, far too few to cover a million-station
// diameter — and the table reports how far the message got (informed%)
// next to the wall-clock round throughput. That bounded budget is
// itself a finding at the top sizes: NoSBroadcast spends a Θ(lg² n)
// coloring preamble (with a constant well above 2) before its first
// data transmission, so its informed% stays ≈0 at n ≥ 10⁵ while decay
// pushes its wavefront hundreds of hops — the engine, not the
// algorithm, is what scales here. The deterministic columns
// (rounds, informed%, receptions) are bit-identical across Workers;
// the rounds/s column measures this machine and is annotated as such.
//
// Deployment shapes scale realistically: uniform holds per-ball density
// at ln(n)+3 (the connectivity threshold grows with ln n, and retrying
// a disconnected million-station sample is the real cost), and
// starclusters grows its relay arms, not its cluster blobs, so density
// stays bounded while the diameter explodes — the geometry the paper's
// granularity analysis is about.
func E14LargeNScaling(cfg Config) (*stats.Table, error) {
	engine := cfg.Engine
	if engine == "" {
		engine = "auto"
	}
	t := stats.NewTable(
		fmt.Sprintf("E14: large-n scaling, engine=%s, budget 2·lg²n rounds (rounds/s is wall-clock, machine-dependent)", engine),
		"family", "n", "engine", "alg", "rounds", "informed%", "receptions", "rounds/s")
	for _, base := range []int{10000, 100000, 1000000} {
		n := cfg.scaled(base, 48)
		for _, fam := range []string{"uniform", "starclusters"} {
			spec := scalingSpec(fam, n)
			net, err := scenario.Generate(spec, physParams(), cfg.Seed+uint64(base))
			if err != nil {
				return nil, fmt.Errorf("E14 %s n=%d: %w", fam, n, err)
			}
			kind := sinrKindFor(engine, net)
			budget := int(math.Ceil(2 * lg2(net.N()) * lg2(net.N())))
			// Large points cap their trial count: a 10⁶-station trial is
			// minutes of work and the medians stabilize quickly.
			trials := cfg.trials()
			if n >= 100000 && trials > 2 {
				trials = 2
			}
			// All trials at this point share one deployment, so they
			// share one topology construction: each trial resolves on a
			// clone of a prototype that never runs (engine purity makes a
			// clone byte-identical to a fresh build).
			proto, err := sinr.NewNamedEngine(engine, net.Space, net.Params)
			if err != nil {
				return nil, fmt.Errorf("E14 %s n=%d: %w", fam, n, err)
			}
			for ai, alg := range []string{"nos", "decay"} {
				point := matrixKey(fam, fmt.Sprintf("%d/%s", base, alg))
				runs, err := runNTrials(cfg, trials, 14, point+uint64(ai), func(seed uint64) (scalingRun, error) {
					phys, _ := sinr.CloneResolver(proto) // NewNamedEngine builds only cloneable engines
					return scalingTrial(net, alg, seed, budget, phys)
				})
				if err != nil {
					return nil, fmt.Errorf("E14 %s n=%d %s: %w", fam, n, alg, err)
				}
				var rounds, informed, recs, rps []float64
				for _, r := range runs {
					rounds = append(rounds, float64(r.rounds))
					informed = append(informed, 100*float64(r.informed)/float64(net.N()))
					recs = append(recs, float64(r.receptions))
					rps = append(rps, r.roundsPerSec)
				}
				t.AddRow(fam, net.N(), string(kind), alg,
					fmt.Sprintf("%.0f", stats.Summarize(rounds).Median),
					fmt.Sprintf("%.1f", stats.Summarize(informed).Median),
					fmt.Sprintf("%.0f", stats.Summarize(recs).Median),
					fmt.Sprintf("%.0f", stats.Summarize(rps).Median))
			}
		}
	}
	return t, nil
}

// scalingRun is one trial's measurements.
type scalingRun struct {
	rounds       int
	informed     int
	receptions   int64
	roundsPerSec float64
}

// scalingTrial runs one bounded trial of alg on net, resolving rounds
// with the trial's private engine phys.
func scalingTrial(net *network.Network, alg string, seed uint64, budget int, phys sim.Resolver) (scalingRun, error) {
	start := time.Now()
	var res *broadcast.Result
	var err error
	switch alg {
	case "nos":
		bc := bcastCfg(net)
		bc.MaxRounds = budget
		bc.Channel = func(*network.Network) (sim.Resolver, error) { return phys, nil }
		res, err = broadcast.RunNoS(net, bc, seed, 0, 1)
	case "decay":
		res, err = baseline.RunFloodOn(net, baseline.NewDecay(net.N()), seed, 0, budget, phys)
	default:
		err = fmt.Errorf("exp: unknown scaling algorithm %q", alg)
	}
	if err != nil {
		return scalingRun{}, err
	}
	elapsed := time.Since(start).Seconds()
	run := scalingRun{rounds: res.Metrics.Rounds, receptions: res.Metrics.Receptions}
	for _, it := range res.InformTime {
		if it >= 0 {
			run.informed++
		}
	}
	if elapsed > 0 {
		run.roundsPerSec = float64(res.Metrics.Rounds) / elapsed
	}
	return run, nil
}

// scalingSpec sizes one E14 family to ≈n stations.
func scalingSpec(fam string, n int) scenario.Spec {
	switch fam {
	case "uniform":
		return scenario.Spec{Family: "uniform", Params: map[string]float64{
			"n":       float64(n),
			"density": math.Ceil(math.Log(float64(n))) + 3,
		}}
	case "starclusters":
		// Fixed 5 arms and bounded cluster blobs; the arms' relay
		// chains absorb the growth, so n drives diameter, not density.
		m := n / 16
		if m > 2000 {
			m = 2000
		}
		if m < 2 {
			m = 2
		}
		hops := (n - 6*m) / 5
		if hops < 1 {
			hops = 1
		}
		return scenario.Spec{Family: "starclusters", Params: map[string]float64{
			"arms": 5, "m": float64(m), "hops": float64(hops),
		}}
	default:
		return scenario.Spec{Family: fam, Params: map[string]float64{"n": float64(n)}}
	}
}

// sinrKindFor resolves the engine kind actually used for a network
// under the given selection (what "auto" picked).
func sinrKindFor(engine string, net *network.Network) sinr.EngineKind {
	if engine == "auto" {
		return sinr.Choose(net.Space, net.Params)
	}
	return sinr.EngineKind(engine)
}
