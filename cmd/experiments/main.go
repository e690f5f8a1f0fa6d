// Command experiments regenerates every table of EXPERIMENTS.md: the
// measured reproduction of each quantitative claim in the paper
// (E1–E11), the registry-driven sweeps — the cross-family sweep (E12)
// and the protocol×scenario matrix (E13) — and the large-n engine
// scaling study E14 (the only experiment the -engine flag applies to;
// E1–E13 always run the paper's exact engine). Tables stream to a
// pluggable sink: aligned text (default), CSV, or JSON.
//
// Usage:
//
//	experiments                    # full suite (E14's 10⁶ points dominate)
//	experiments -scale 0.5         # half-size networks
//	experiments -only 6            # a single experiment
//	experiments -format json       # machine-readable output
//	experiments -only 12 -scenario annulus:n=96
//	experiments -only 13 -alg nos:budgetmul=2 -scenario uniform:n=48
//	experiments -only 14 -scale 0.01 -engine auto -trials 2
//	experiments -only 14 -cpuprofile e14.pprof   # profile a run (internal/prof)
//	experiments -list              # protocol and scenario catalogues
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"

	"sinrcast/internal/exp"
	"sinrcast/internal/prof"
	"sinrcast/internal/protocol"
	"sinrcast/internal/scenario"
	"sinrcast/internal/stats"
)

func main() {
	profiles := prof.AddFlags(flag.CommandLine)
	def := exp.DefaultConfig()
	var (
		seed    = flag.Uint64("seed", def.Seed, "experiment seed")
		trials  = flag.Int("trials", def.Trials, "trials per data point")
		scale   = flag.Float64("scale", def.Scale, "network size multiplier")
		only    = flag.Int("only", 0, "run a single experiment (1-14), 0 = all")
		workers = flag.Int("workers", runtime.GOMAXPROCS(0),
			"concurrent trials per data point (tables are identical for any value)")
		format = flag.String("format", "text", "output format: text|csv|json")
		spec   = flag.String("scenario", "",
			"restrict E12/E13 to one scenario spec (default: every registered family)")
		alg = flag.String("alg", "",
			"restrict E13 to one protocol spec (default: every registered protocol)")
		engine = flag.String("engine", def.Engine,
			"physical engine for E14: exact|grid|hier|auto (E1-E13 always use the exact engine)")
		list = flag.Bool("list", false, "list registered protocols and scenario families and exit")
	)
	flag.Parse()

	stopProf, err := profiles.Start()
	if err != nil {
		fmt.Fprintf(os.Stderr, "experiments: %v\n", err)
		os.Exit(2)
	}
	defer func() {
		if err := stopProf(); err != nil {
			fmt.Fprintf(os.Stderr, "experiments: %v\n", err)
		}
	}()

	if *list {
		fmt.Print("protocols (-alg)\n\n")
		fmt.Print(protocol.Describe())
		fmt.Print("\nscenario families (-scenario)\n\n")
		fmt.Print(scenario.Describe())
		return
	}

	// Validate restriction specs up front: a typo must fail fast with a
	// usage exit, not abort E12/E13 after minutes of earlier experiments.
	if *spec != "" {
		sp, err := scenario.Parse(*spec)
		if err == nil {
			err = scenario.Validate(sp)
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "experiments: %v\n", err)
			os.Exit(2)
		}
	}
	if *alg != "" {
		ps, err := protocol.Parse(*alg)
		if err == nil {
			err = protocol.Validate(ps)
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "experiments: %v\n", err)
			os.Exit(2)
		}
	}

	if _, err := protocol.NamedChannel(*engine); err != nil {
		fmt.Fprintf(os.Stderr, "experiments: %v\n", err)
		os.Exit(2)
	}

	cfg := exp.Config{Seed: *seed, Trials: *trials, Scale: *scale, Workers: *workers,
		Scenario: *spec, Protocol: *alg, Engine: *engine}
	suite := exp.Suite
	if *only != 0 {
		e, ok := exp.Lookup(*only)
		if !ok {
			fmt.Fprintf(os.Stderr, "experiments: no experiment %d\n", *only)
			os.Exit(2)
		}
		suite = []exp.Experiment{e}
	}
	sink, err := stats.NewSink(*format, os.Stdout)
	if err != nil {
		fmt.Fprintf(os.Stderr, "experiments: %v\n", err)
		os.Exit(2)
	}
	for _, e := range suite {
		tb, err := e.Run(cfg)
		if err != nil {
			fmt.Fprintf(os.Stderr, "experiments: %s failed: %v\n", e.Name, err)
			os.Exit(1)
		}
		if err := sink.Emit(tb); err != nil {
			fmt.Fprintf(os.Stderr, "experiments: emitting %s: %v\n", e.Name, err)
			os.Exit(1)
		}
	}
	if err := sink.Close(); err != nil {
		fmt.Fprintf(os.Stderr, "experiments: %v\n", err)
		os.Exit(1)
	}
}
