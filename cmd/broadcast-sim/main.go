// Command broadcast-sim runs one registered protocol on one generated
// network and reports the outcome: rounds, phases, inform-time spread
// and energy (transmission counts). Both axes are declarative specs
// backed by registries — the protocol comes from internal/protocol
// (-alg), the network from internal/scenario (-scenario) — and -list
// prints both catalogues.
//
// Usage:
//
//	broadcast-sim -alg nos                -scenario uniform:n=96
//	broadcast-sim -alg s:source=5         -scenario path:n=48
//	broadcast-sim -alg decay              -scenario expchain:n=32,ratio=0.6
//	broadcast-sim -alg wakeup:wakers=4    -scenario clusters:k=3,m=16
//	broadcast-sim -alg nos:budgetmul=2    -scenario dumbbell:n=96
//	broadcast-sim -alg decay -engine hier -scenario uniform:n=100000,density=16
//	broadcast-sim -list
//
// The -engine flag selects the physical layer for any protocol:
// "exact" (the paper's model and the default), the approximate "grid"
// (a reference only) or "hier" engines, or "auto" (exact below 4096
// stations, the hierarchical far field from there on — see the
// engine-selection notes in the repository README). -cpuprofile and
// -memprofile write pprof profiles of the run (internal/prof).
//
// Exit codes: 2 for usage errors — malformed or unknown specs,
// out-of-range values against declared bounds, protocol parameters
// that mismatch the generated network (source ≥ n), and scenario
// parameters whose physics-dependent bounds the builder rejects
// (dumbbell radius beyond the comm radius); 1 for runtime failures
// (e.g. a densifying generator exhausting its connectivity retries).
package main

import (
	"errors"
	"flag"
	"fmt"
	"os"

	"sinrcast/internal/prof"
	"sinrcast/internal/protocol"
	"sinrcast/internal/scenario"
	"sinrcast/internal/sinr"
	"sinrcast/internal/stats"
)

// Exit codes of the unified error path: every failure goes through
// die, usage errors with exitUsage, runtime failures with exitRun.
const (
	exitRun   = 1
	exitUsage = 2
)

// die prints one formatted error line and exits with the given code —
// the single error exit of the command.
func die(code int, format string, args ...any) {
	fmt.Fprintf(os.Stderr, "broadcast-sim: "+format+"\n", args...)
	os.Exit(code)
}

func main() {
	profiles := prof.AddFlags(flag.CommandLine)
	var (
		alg    = flag.String("alg", "nos", "protocol spec: name[:param=value,...]; see -list")
		spec   = flag.String("scenario", "uniform:n=96", "scenario spec: family[:name=value,...]; see -list")
		seed   = flag.Uint64("seed", 1, "seed for generator and protocol")
		engine = flag.String("engine", "exact", "physical engine: exact|grid|hier|auto")
		list   = flag.Bool("list", false, "list registered protocols and scenario families with their parameters and exit")
	)
	flag.Parse()

	stopProf, err := profiles.Start()
	if err != nil {
		die(exitUsage, "%v", err)
	}
	defer func() {
		if err := stopProf(); err != nil {
			fmt.Fprintf(os.Stderr, "broadcast-sim: %v\n", err)
		}
	}()

	if *list {
		fmt.Print("protocols (-alg)\n\n")
		fmt.Print(protocol.Describe())
		fmt.Print("\nscenario families (-scenario)\n\n")
		fmt.Print(scenario.Describe())
		return
	}

	ps, err := protocol.Parse(*alg)
	if err != nil {
		die(exitUsage, "%v", err)
	}
	if err := protocol.Validate(ps); err != nil {
		die(exitUsage, "%v", err)
	}
	sp, err := scenario.Parse(*spec)
	if err != nil {
		die(exitUsage, "%v", err)
	}
	if err := scenario.Validate(sp); err != nil {
		die(exitUsage, "%v", err)
	}
	channel, err := protocol.NamedChannel(*engine)
	if err != nil {
		die(exitUsage, "%v", err)
	}
	net, err := scenario.Generate(sp, sinr.DefaultParams(), *seed)
	if err != nil {
		// Physics-dependent parameter rejections from the builder are
		// usage errors; exhausted connectivity retries are runtime.
		var se *scenario.SpecError
		if errors.As(err, &se) {
			die(exitUsage, "%v", err)
		}
		die(exitRun, "%v", err)
	}
	res, err := protocol.RunOn(net, ps, *seed, channel)
	if err != nil {
		// Spec-vs-network mismatches (source ≥ n, too many wakers) are
		// usage errors like any other bad spec.
		var se *protocol.SpecError
		if errors.As(err, &se) {
			die(exitUsage, "%v", err)
		}
		die(exitRun, "%v", err)
	}

	d, _ := net.Diameter()
	fmt.Printf("algorithm      %s\n", ps.String())
	fmt.Printf("network        %s n=%d D=%d Rs=%.3g\n", sp.String(), net.N(), d, net.Granularity())
	// The canonical physics key: paste it (with -scenario/-alg/-seed)
	// to reproduce this run; it is also the engine-cache address the
	// sinrcastd service shares warmed engines under.
	fmt.Printf("physics        %s\n", sinr.EngineKey(*engine, net.Params))
	fmt.Printf("all informed   %v\n", res.AllInformed)
	fmt.Printf("rounds         %d\n", res.Rounds)
	if res.Phases > 0 {
		fmt.Printf("phases         %d\n", res.Phases)
	}
	fmt.Printf("transmissions  %d (%.2f per station)\n",
		res.Metrics.Transmissions, float64(res.Metrics.Transmissions)/float64(net.N()))
	fmt.Printf("receptions     %d\n", res.Metrics.Receptions)

	if res.InformTime != nil {
		var times []float64
		for _, it := range res.InformTime {
			if it >= 0 {
				times = append(times, float64(it))
			}
		}
		fmt.Printf("inform times   %s\n", stats.FormatSummary(stats.Summarize(times)))
	}
}
