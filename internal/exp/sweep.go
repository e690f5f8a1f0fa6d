package exp

import (
	"fmt"
	"hash/fnv"
	"math"

	"sinrcast/internal/baseline"
	"sinrcast/internal/broadcast"
	"sinrcast/internal/network"
	"sinrcast/internal/scenario"
	"sinrcast/internal/stats"
)

// E12CrossFamilySweep races NoSBroadcast, SBroadcast and the Decay
// baseline over *every* registered scenario family at matched n,
// reporting per-family geometry (D, granularity Rs, density spread)
// next to the round counts. Its coverage grows automatically: a family
// registered with scenario.Register shows up here with no experiment
// code change. Config.Scenario optionally restricts the sweep to a
// single explicit spec.
func E12CrossFamilySweep(cfg Config) (*stats.Table, error) {
	n := cfg.scaled(64, 24)
	specs, err := cfg.scenarioSpecs(n)
	if err != nil {
		return nil, fmt.Errorf("E12: %w", err)
	}
	t := stats.NewTable(
		fmt.Sprintf("E12: cross-family sweep over %d registered scenarios, target n=%d", len(specs), n),
		"family", "n", "D", "log2(Rs)", "dens-spread", "NoS", "S", "decay")
	// Every family is generated and its three data points registered
	// before any trial runs, so the whole sweep is one batch of work.
	type row struct {
		family        string
		net           *network.Network
		d             int
		nos, s, decay *trialSet[*broadcast.Result]
	}
	pool := newTrialPool(cfg)
	var rows []row
	for _, sp := range specs {
		net, err := scenario.Generate(sp, physParams(), cfg.Seed)
		if err != nil {
			return nil, fmt.Errorf("E12 %s: %w", sp.Family, err)
		}
		r := row{family: sp.Family, net: net}
		r.d, _ = net.Diameter()
		// Data points are keyed by family name (not slice index), so a
		// family's series is stable as other families register.
		famKey := fnvHash(sp.Family)
		add := func(alg uint64, fn func(seed uint64) (*broadcast.Result, error)) *trialSet[*broadcast.Result] {
			return addTrials(pool, cfg.trials(), 12, famKey+alg, fn)
		}
		r.nos = add(0, func(seed uint64) (*broadcast.Result, error) {
			return broadcast.RunNoS(net, bcastCfg(net), seed, 0, 1)
		})
		r.s = add(1, func(seed uint64) (*broadcast.Result, error) {
			return broadcast.RunS(net, bcastCfg(net), seed, 0, 1)
		})
		r.decay = add(2, func(seed uint64) (*broadcast.Result, error) {
			return baseline.RunFlood(net, baseline.NewDecay(net.N()), seed, 0, 0)
		})
		rows = append(rows, r)
	}
	pool.run()
	for _, r := range rows {
		t.AddRow(r.family, r.net.N(), r.d,
			fmt.Sprintf("%.1f", math.Log2(r.net.Granularity())),
			fmt.Sprintf("%.1f", densitySpread(r.net)),
			medianCell(r.nos.results()), medianCell(r.s.results()), medianCell(r.decay.results()))
	}
	return t, nil
}

// scenarioSpecs returns the scenario axis of the registry sweeps (E12,
// E13): the single parsed Config.Scenario spec when set, else every
// registered family sized to ≈n stations.
func (c Config) scenarioSpecs(n int) ([]scenario.Spec, error) {
	if c.Scenario != "" {
		sp, err := scenario.Parse(c.Scenario)
		if err != nil {
			return nil, err
		}
		return []scenario.Spec{sp}, nil
	}
	var specs []scenario.Spec
	for _, f := range scenario.Families() {
		specs = append(specs, f.SpecForN(n))
	}
	return specs, nil
}

// fnvHash maps a family name to a stable data-point key; the low two
// bits stay clear so algorithm slots can be added without collisions.
func fnvHash(name string) uint64 {
	h := fnv.New64a()
	h.Write([]byte(name))
	return h.Sum64() &^ 3
}

// densitySpread is the ratio between the largest and smallest
// communication-ball population over all stations — the paper's
// non-uniformity measure (per-ball density varying by orders of
// magnitude is what geometry-sensitive algorithms pay for).
func densitySpread(net *network.Network) float64 {
	minB, maxB := math.MaxInt, 0
	for i := 0; i < net.N(); i++ {
		b := net.Degree(i) + 1
		if b < minB {
			minB = b
		}
		if b > maxB {
			maxB = b
		}
	}
	if minB < 1 {
		minB = 1
	}
	return float64(maxB) / float64(minB)
}
