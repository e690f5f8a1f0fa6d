// Package exp implements the experiment suite of EXPERIMENTS.md: one
// runner per quantitative claim of the paper (E1–E9), robustness and
// ablation studies (E10–E11), and the registry-driven sweeps — the
// cross-family broadcast sweep E12 (coverage grows with every
// scenario.Register call) and the protocol×scenario matrix E13
// (coverage grows with every scenario.Register *and* protocol.Register
// call). All topologies come from scenario.Generate specs; each runner
// returns a stats.Table; cmd/experiments streams the full-size suite
// to a text/CSV/JSON sink, bench_test.go runs reduced sizes.
package exp

import (
	"fmt"
	"math"

	"sinrcast/internal/apps/consensus"
	"sinrcast/internal/apps/leader"
	"sinrcast/internal/apps/wakeup"
	"sinrcast/internal/baseline"
	"sinrcast/internal/broadcast"
	"sinrcast/internal/coloring"
	"sinrcast/internal/network"
	"sinrcast/internal/scenario"
	"sinrcast/internal/sinr"
	"sinrcast/internal/stats"
)

// Config sizes the experiment suite.
type Config struct {
	// Seed drives all randomness.
	Seed uint64
	// Trials is the number of repetitions per data point.
	Trials int
	// Scale multiplies the base network sizes (1 = the EXPERIMENTS.md
	// sizes; benches use smaller fractions).
	Scale float64
	// Workers is the size of each table's trial pool: how many trials
	// run concurrently. E12 and E13 put every data point's trials in
	// one pool, so all cells of the table share the workers; the other
	// experiments run one data point per pool. 0 (the default) uses
	// runtime.GOMAXPROCS(0); 1 forces serial execution. Tables are
	// bit-identical for every value: trial randomness is derived from
	// (Seed, experiment, data point, trial) alone (see trials.go).
	Workers int
	// Scenario optionally restricts E12CrossFamilySweep and
	// E13ProtocolMatrix to one parsed scenario spec (e.g.
	// "annulus:n=96"). Empty sweeps every registered family.
	Scenario string
	// Protocol optionally restricts E13ProtocolMatrix to one parsed
	// protocol spec (e.g. "nos:budgetmul=2"). Empty sweeps every
	// registered protocol.
	Protocol string
	// Engine selects the physical engine of E14LargeNScaling: "exact",
	// "grid", "hier" or "auto" (empty = "auto"). E1–E13 always use each
	// protocol's default exact engine — their tables are pinned
	// byte-identical to the historical output and must not drift with
	// an engine flag.
	Engine string
	// Checkpoint, when non-nil, persists completed trial results and
	// restores them on a rerun — sinrcastd's crash-resume path. Tables
	// stay byte-identical with or without it (see TrialCheckpoint).
	Checkpoint TrialCheckpoint
}

// DefaultConfig returns the full-size configuration: the defaults of
// both cmd/experiments' flags and sinrcastd's experiment jobs.
func DefaultConfig() Config { return Config{Seed: 2014, Trials: 5, Scale: 1, Engine: "auto"} }

func (c Config) trials() int {
	if c.Trials < 1 {
		return 1
	}
	return c.Trials
}

// scaled returns max(lo, round(base·Scale)).
func (c Config) scaled(base, lo int) int {
	s := c.Scale
	if s <= 0 {
		s = 1
	}
	v := int(math.Round(float64(base) * s))
	if v < lo {
		v = lo
	}
	return v
}

func lg2(n int) float64 {
	l := math.Log2(float64(n))
	if l < 1 {
		l = 1
	}
	return l
}

func physParams() sinr.Params { return sinr.DefaultParams() }

// genNet builds a registered scenario family with explicit parameter
// overrides, so every E1–E11 network is byte-identical to the
// pre-registry suite. The scenario registry is the single topology
// path of the experiment suite.
func genNet(family string, seed uint64, params map[string]float64) (*network.Network, error) {
	return scenario.Generate(scenario.Spec{Family: family, Params: params}, physParams(), seed)
}

func bcastCfg(net *network.Network) broadcast.Config {
	return broadcast.DefaultConfig(net.N(), net.Space.Growth(), net.Params.Eps)
}

// medianRounds runs fn once per trial (concurrently up to cfg.workers())
// and returns the median round count, requiring at least one trial to
// complete. (expID, point) identify the data point for deterministic
// trial seeding.
func medianRounds(cfg Config, expID, point uint64, fn func(seed uint64) (*broadcast.Result, error)) (float64, int, error) {
	return medianOf(runTrials(cfg, expID, point, fn))
}

// medianOf summarizes one data point's broadcast trials: the median
// round count over the trials that informed every station, and how
// many did not. A trial error, or no trial informing everyone, is an
// error.
func medianOf(results []*broadcast.Result, err error) (float64, int, error) {
	if err != nil {
		return 0, 0, err
	}
	var rounds []float64
	fails := 0
	for _, res := range results {
		if !res.AllInformed {
			fails++
			continue
		}
		rounds = append(rounds, float64(res.Rounds))
	}
	if len(rounds) == 0 {
		return 0, fails, fmt.Errorf("exp: all %d trials failed to complete", len(results))
	}
	return stats.Summarize(rounds).Median, fails, nil
}

// medianCell renders one data point's broadcast trials as a table
// cell: the median rounds, annotated "(k!)" when k trials left a
// station uninformed, or "fail" when medianOf errs.
func medianCell(results []*broadcast.Result, err error) string {
	med, fails, err := medianOf(results, err)
	switch {
	case err != nil:
		return "fail"
	case fails > 0:
		return fmt.Sprintf("%.0f(%d!)", med, fails)
	default:
		return fmt.Sprintf("%.0f", med)
	}
}

// E1NoSBroadcastVsD measures Theorem 1's shape: NoSBroadcast rounds on
// corridor networks of fixed n and growing diameter D; the normalized
// column rounds/(D·lg²n) should be roughly flat.
func E1NoSBroadcastVsD(cfg Config) (*stats.Table, error) {
	n := cfg.scaled(64, 24)
	t := stats.NewTable(
		fmt.Sprintf("E1 (Theorem 1): NoSBroadcast rounds vs D, path networks, n=%d", n),
		"D", "median-rounds", "rounds/(D·lg²n)", "fails")
	for pi, frac := range []float64{0.15, 0.3, 0.5, 0.95} {
		net, err := genNet("path", cfg.Seed, map[string]float64{"n": float64(n), "frac": frac})
		if err != nil {
			return nil, err
		}
		d, _ := net.Diameter()
		med, fails, err := medianRounds(cfg, 1, uint64(pi), func(seed uint64) (*broadcast.Result, error) {
			return broadcast.RunNoS(net, bcastCfg(net), seed, 0, 1)
		})
		if err != nil {
			return nil, fmt.Errorf("E1 D=%d: %w", d, err)
		}
		norm := med / (float64(d) * lg2(n) * lg2(n))
		t.AddRow(d, med, norm, fails)
	}
	return t, nil
}

// E2SBroadcastScaling measures Theorem 2's shape: SBroadcast rounds vs D
// (fixed n) and vs n (compact networks where the additive log² n term
// dominates). The normalized column uses the theorem's own formula.
func E2SBroadcastScaling(cfg Config) (*stats.Table, error) {
	n := cfg.scaled(64, 24)
	t := stats.NewTable(
		fmt.Sprintf("E2 (Theorem 2): SBroadcast rounds, paths n=%d then uniform n sweep", n),
		"network", "D", "n", "median-rounds", "rounds/(D·lgn+lg²n)", "fails")
	for pi, frac := range []float64{0.15, 0.3, 0.5, 0.95} {
		net, err := genNet("path", cfg.Seed, map[string]float64{"n": float64(n), "frac": frac})
		if err != nil {
			return nil, err
		}
		d, _ := net.Diameter()
		med, fails, err := medianRounds(cfg, 2, uint64(pi), func(seed uint64) (*broadcast.Result, error) {
			return broadcast.RunS(net, bcastCfg(net), seed, 0, 1)
		})
		if err != nil {
			return nil, fmt.Errorf("E2 path D=%d: %w", d, err)
		}
		norm := med / (float64(d)*lg2(n) + lg2(n)*lg2(n))
		t.AddRow("path", d, n, med, norm, fails)
	}
	for pi, nn := range []int{cfg.scaled(48, 16), cfg.scaled(96, 32), cfg.scaled(192, 64)} {
		net, err := genNet("uniform", cfg.Seed+uint64(nn), map[string]float64{"n": float64(nn), "density": 10})
		if err != nil {
			return nil, err
		}
		d, _ := net.Diameter()
		med, fails, err := medianRounds(cfg, 2, uint64(4+pi), func(seed uint64) (*broadcast.Result, error) {
			return broadcast.RunS(net, bcastCfg(net), seed, 0, 1)
		})
		if err != nil {
			return nil, fmt.Errorf("E2 uniform n=%d: %w", nn, err)
		}
		norm := med / (float64(d)*lg2(nn) + lg2(nn)*lg2(nn))
		t.AddRow("uniform", d, nn, med, norm, fails)
	}
	return t, nil
}

// familyNets builds the invariant-test network families.
func familyNets(cfg Config) (map[string]*network.Network, []string, error) {
	nets := map[string]*network.Network{}
	order := []string{"uniform", "dense", "clusters", "path", "expchain"}
	var err error
	if nets["uniform"], err = genNet("uniform", cfg.Seed, map[string]float64{
		"n": float64(cfg.scaled(128, 32)), "density": 8}); err != nil {
		return nil, nil, err
	}
	if nets["dense"], err = genNet("uniform", cfg.Seed, map[string]float64{
		"n": float64(cfg.scaled(256, 48)), "density": 32}); err != nil {
		return nil, nil, err
	}
	if nets["clusters"], err = genNet("clusters", cfg.Seed, map[string]float64{
		"k": 4, "m": float64(cfg.scaled(24, 8)), "radius": 0.08, "gap": 0.6}); err != nil {
		return nil, nil, err
	}
	if nets["path"], err = genNet("path", cfg.Seed, map[string]float64{
		"n": float64(cfg.scaled(48, 16)), "frac": 0.9}); err != nil {
		return nil, nil, err
	}
	if nets["expchain"], err = genNet("expchain", cfg.Seed, map[string]float64{
		"n": float64(cfg.scaled(64, 16)), "first": 0.5, "ratio": 0.75}); err != nil {
		return nil, nil, err
	}
	return nets, order, nil
}

// E3Lemma1 measures the Lemma 1 invariant (per-color unit-ball mass
// ≤ C1-scale constant) across network families.
func E3Lemma1(cfg Config) (*stats.Table, error) {
	nets, order, err := familyNets(cfg)
	if err != nil {
		return nil, err
	}
	t := stats.NewTable("E3 (Lemma 1): max per-color unit-ball probability mass",
		"family", "n", "maxMass(worst trial)", "bound-ok(≤1.0)")
	for fi, name := range order {
		net := nets[name]
		par := coloring.DefaultParams(net.N(), net.Space.Growth(), net.Params.Eps)
		masses, err := runTrials(cfg, 3, uint64(fi), func(seed uint64) (float64, error) {
			res, err := coloring.Run(net, par, seed)
			if err != nil {
				return 0, err
			}
			return coloring.CheckLemma1(net, res.Colors).MaxMass, nil
		})
		if err != nil {
			return nil, err
		}
		worst := 0.0
		for _, m := range masses {
			if m > worst {
				worst = m
			}
		}
		t.AddRow(name, net.N(), fmt.Sprintf("%.3f", worst), worst <= 1.0)
	}
	return t, nil
}

// E4Lemma2 measures the Lemma 2 invariant (every station has a color
// with constant ε/2-ball mass) as a fraction of 2·pmax.
func E4Lemma2(cfg Config) (*stats.Table, error) {
	nets, order, err := familyNets(cfg)
	if err != nil {
		return nil, err
	}
	t := stats.NewTable("E4 (Lemma 2): min best-color ε/2-ball mass / 2pmax",
		"family", "n", "minMass/2pmax(worst trial)", "bound-ok(≥1/8)")
	for fi, name := range order {
		net := nets[name]
		par := coloring.DefaultParams(net.N(), net.Space.Growth(), net.Params.Eps)
		ratios, err := runTrials(cfg, 4, uint64(fi), func(seed uint64) (float64, error) {
			res, err := coloring.Run(net, par, seed)
			if err != nil {
				return 0, err
			}
			return coloring.CheckLemma2(net, res.Colors).MinBestMass / par.FinalColor(), nil
		})
		if err != nil {
			return nil, err
		}
		worst := math.Inf(1)
		for _, r := range ratios {
			if r < worst {
				worst = r
			}
		}
		t.AddRow(name, net.N(), fmt.Sprintf("%.3f", worst), worst >= 1.0/8)
	}
	return t, nil
}

// E5ColoringRounds verifies Fact 7: the StabilizeProbability schedule is
// O(log² n) rounds. With the default parameters it is exactly
// 32·lg n·(lg n − 5) rounds (lg n − 5 phases of 32·lg n rounds), so
// the normalized column rounds/lg²n = 32·(1 − 5/lg n) rises toward the
// constant 32 over the table's n instead of sitting flat; it stays
// below 32 for every n.
func E5ColoringRounds(cfg Config) (*stats.Table, error) {
	t := stats.NewTable("E5 (Fact 7): StabilizeProbability schedule length vs n",
		"n", "rounds", "rounds/lg²n")
	for _, n := range []int{64, 256, 1024, 4096, 16384} {
		par := coloring.DefaultParams(n, 2, physParams().Eps)
		rounds := par.TotalRounds()
		t.AddRow(n, rounds, float64(rounds)/(lg2(n)*lg2(n)))
	}
	return t, nil
}

// E6GeometryImpact is the headline experiment (§1.3): broadcast time vs
// granularity Rs at FIXED diameter. The topology is a clustered path: a
// constant-length path (fixing D) with an exponential cluster at the
// source end whose gap ratio controls Rs. sinrcast's algorithms must
// stay flat while the Daum-style sweep pays Θ(log Rs) extra levels per
// hop.
func E6GeometryImpact(cfg Config) (*stats.Table, error) {
	pathLen := cfg.scaled(12, 6)
	clusterSize := cfg.scaled(20, 10)
	n := pathLen + clusterSize
	t := stats.NewTable(
		fmt.Sprintf("E6 (§1.3): rounds vs granularity Rs, clustered paths, n=%d, D fixed", n),
		"log2(Rs)", "sinrcast-NoS", "sinrcast-S", "daum-style", "daum-levels")
	for ri, ratio := range []float64{0.9, 0.75, 0.6, 0.45} {
		net, err := genNet("clusteredpath", cfg.Seed, map[string]float64{
			"pathlen": float64(pathLen), "cluster": float64(clusterSize), "ratio": ratio})
		if err != nil {
			return nil, err
		}
		rs := net.Granularity()
		src := net.N() - 1 // deepest cluster station
		// Data points ri*4+{0,1,2} distinguish the three algorithms.
		nosMed, _, err := medianRounds(cfg, 6, uint64(ri*4), func(seed uint64) (*broadcast.Result, error) {
			return broadcast.RunNoS(net, bcastCfg(net), seed, src, 1)
		})
		if err != nil {
			return nil, fmt.Errorf("E6 nos ratio=%v: %w", ratio, err)
		}
		sMed, _, err := medianRounds(cfg, 6, uint64(ri*4+1), func(seed uint64) (*broadcast.Result, error) {
			return broadcast.RunS(net, bcastCfg(net), seed, src, 1)
		})
		if err != nil {
			return nil, fmt.Errorf("E6 s ratio=%v: %w", ratio, err)
		}
		daum := baseline.NewDaumStyle(net) // for the L column; trials build their own
		daumMed, _, err := medianRounds(cfg, 6, uint64(ri*4+2), func(seed uint64) (*broadcast.Result, error) {
			return baseline.RunFlood(net, baseline.NewDaumStyle(net), seed, src, 0)
		})
		if err != nil {
			return nil, fmt.Errorf("E6 daum ratio=%v: %w", ratio, err)
		}
		t.AddRow(fmt.Sprintf("%.0f", math.Log2(rs)), nosMed, sMed, daumMed, daum.L)
	}
	return t, nil
}

// E7BaselineComparison races all algorithms on three network families.
func E7BaselineComparison(cfg Config) (*stats.Table, error) {
	type fam struct {
		name string
		net  *network.Network
	}
	var fams []fam
	uni, err := genNet("uniform", cfg.Seed, map[string]float64{"n": float64(cfg.scaled(96, 32)), "density": 10})
	if err != nil {
		return nil, err
	}
	fams = append(fams, fam{"uniform", uni})
	clu, err := genNet("clusters", cfg.Seed, map[string]float64{
		"k": 4, "m": float64(cfg.scaled(20, 6)), "radius": 0.08, "gap": 0.6})
	if err != nil {
		return nil, err
	}
	fams = append(fams, fam{"clusters", clu})
	cor, err := genNet("corridor", cfg.Seed, map[string]float64{"n": float64(cfg.scaled(64, 24)), "step": 0.5})
	if err != nil {
		return nil, err
	}
	fams = append(fams, fam{"corridor", cor})

	t := stats.NewTable("E7: median broadcast rounds per algorithm and family",
		"family", "n", "D", "NoS", "S", "decay", "density-oracle", "grid-tdma")
	for fi, f := range fams {
		d, _ := f.net.Diameter()
		// Data points fi*8+{0..4} distinguish the five algorithm slots;
		// a failing baseline is a data point, not an error.
		run := func(alg uint64, fn func(seed uint64) (*broadcast.Result, error)) string {
			return medianCell(runTrials(cfg, 7, uint64(fi*8)+alg, fn))
		}
		nos := run(0, func(seed uint64) (*broadcast.Result, error) {
			return broadcast.RunNoS(f.net, bcastCfg(f.net), seed, 0, 1)
		})
		s := run(1, func(seed uint64) (*broadcast.Result, error) {
			return broadcast.RunS(f.net, bcastCfg(f.net), seed, 0, 1)
		})
		dec := run(2, func(seed uint64) (*broadcast.Result, error) {
			return baseline.RunFlood(f.net, baseline.NewDecay(f.net.N()), seed, 0, 0)
		})
		ora := run(3, func(seed uint64) (*broadcast.Result, error) {
			return baseline.RunFlood(f.net, baseline.NewDensityOracle(f.net, 0), seed, 0, 0)
		})
		tdma := "n/a"
		if _, err := baseline.NewGridTDMA(f.net); err == nil {
			// GridTDMA keeps per-round oracle state, so every trial
			// builds its own instance.
			tdma = run(4, func(seed uint64) (*broadcast.Result, error) {
				gtd, err := baseline.NewGridTDMA(f.net)
				if err != nil {
					return nil, err
				}
				return baseline.RunFlood(f.net, gtd, seed, 0, 0)
			})
		}
		t.AddRow(f.name, f.net.N(), d, nos, s, dec, ora, tdma)
	}
	return t, nil
}

// E8Applications exercises the §5 protocols and reports measured times
// against their bounds.
func E8Applications(cfg Config) (*stats.Table, error) {
	net, err := genNet("uniform", cfg.Seed, map[string]float64{"n": float64(cfg.scaled(48, 24)), "density": 8})
	if err != nil {
		return nil, err
	}
	d, _ := net.Diameter()
	t := stats.NewTable(fmt.Sprintf("E8 (§5): applications on uniform n=%d (D=%d)", net.N(), d),
		"protocol", "rounds/span", "correct", "normalized")

	// Wake-up: three adversarial spontaneous wake-ups.
	bc := bcastCfg(net)
	wake := make([]int, net.N())
	for i := range wake {
		wake[i] = -1
	}
	wake[0] = bc.PhaseLen() / 3
	wake[net.N()/2] = bc.PhaseLen()
	wres, err := wakeup.Run(net, bc, cfg.Seed+3, wakeup.Schedule{WakeAt: wake})
	if err != nil {
		return nil, err
	}
	t.AddRow("wakeup", wres.Span, wres.AllAwake,
		fmt.Sprintf("span/(D·lg²n)=%.2f", float64(wres.Span)/(float64(d)*lg2(net.N())*lg2(net.N()))))

	// Consensus over 8-bit messages.
	ccfg := consensus.DefaultConfig(net.N(), net.Space.Growth(), net.Params.Eps, 255)
	msgs := make([]int64, net.N())
	for i := range msgs {
		msgs[i] = int64((i*37 + 100) % 256)
	}
	cres, err := consensus.Run(net, ccfg, cfg.Seed+5, msgs)
	if err != nil {
		return nil, err
	}
	t.AddRow("consensus(x=255)", cres.Rounds, cres.Correct,
		fmt.Sprintf("rounds/(lgx·(D·lgn+lg²n))=%.2f",
			float64(cres.Rounds)/(8*(float64(d)*lg2(net.N())+lg2(net.N())*lg2(net.N())))))

	// Leader election.
	lcfg := consensus.DefaultConfig(net.N(), net.Space.Growth(), net.Params.Eps, 1)
	lres, err := leader.Run(net, lcfg, cfg.Seed+7)
	if err != nil {
		return nil, err
	}
	t.AddRow("leader", lres.Consensus.Rounds, lres.Leader >= 0 && lres.Consensus.Correct,
		fmt.Sprintf("leader=%d unique-ids=%v", lres.Leader, lres.Unique))
	return t, nil
}

// E9SuccessProbability estimates the whp claims: fraction of independent
// runs that complete within the default budget.
func E9SuccessProbability(cfg Config) (*stats.Table, error) {
	net, err := genNet("uniform", cfg.Seed, map[string]float64{"n": float64(cfg.scaled(64, 24)), "density": 8})
	if err != nil {
		return nil, err
	}
	trials := cfg.trials() * 10
	t := stats.NewTable(fmt.Sprintf("E9: success rate over %d independent runs, uniform n=%d", trials, net.N()),
		"algorithm", "successes", "trials", "rate")
	for ai, alg := range []struct {
		name string
		run  func(seed uint64) (*broadcast.Result, error)
	}{
		{"NoSBroadcast", func(seed uint64) (*broadcast.Result, error) {
			return broadcast.RunNoS(net, bcastCfg(net), seed, 0, 1)
		}},
		{"SBroadcast", func(seed uint64) (*broadcast.Result, error) {
			return broadcast.RunS(net, bcastCfg(net), seed, 0, 1)
		}},
	} {
		completed, err := runNTrials(cfg, trials, 9, uint64(ai), func(seed uint64) (bool, error) {
			res, err := alg.run(seed)
			if err != nil {
				return false, err
			}
			return res.AllInformed, nil
		})
		if err != nil {
			return nil, err
		}
		succ := 0
		for _, ok := range completed {
			if ok {
				succ++
			}
		}
		t.AddRow(alg.name, succ, trials, float64(succ)/float64(trials))
	}
	return t, nil
}

// Experiment is one entry of the suite: its display name ("E6") and
// its runner.
type Experiment struct {
	Name string
	Run  func(Config) (*stats.Table, error)
}

// Suite lists E1–E14 in order; Suite[i] is experiment i+1. It is the
// one runner table behind cmd/experiments and sinrcastd's experiment
// jobs, so both produce byte-identical tables for one configuration.
var Suite = []Experiment{
	{"E1", E1NoSBroadcastVsD},
	{"E2", E2SBroadcastScaling},
	{"E3", E3Lemma1},
	{"E4", E4Lemma2},
	{"E5", E5ColoringRounds},
	{"E6", E6GeometryImpact},
	{"E7", E7BaselineComparison},
	{"E8", E8Applications},
	{"E9", E9SuccessProbability},
	{"E10", E10ModelRobustness},
	{"E11", E11ColoringAblation},
	{"E12", E12CrossFamilySweep},
	{"E13", E13ProtocolMatrix},
	{"E14", E14LargeNScaling},
}

// Lookup returns experiment id (1-based, as in E<id>).
func Lookup(id int) (Experiment, bool) {
	if id < 1 || id > len(Suite) {
		return Experiment{}, false
	}
	return Suite[id-1], true
}
