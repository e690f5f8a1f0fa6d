// Command coloring-viz runs StabilizeProbability on a generated network
// and prints the resulting color distribution plus the Lemma 1 and
// Lemma 2 invariant measurements — the fastest way to inspect what the
// paper's §3 procedure actually computes on a given topology.
//
// Usage:
//
//	coloring-viz -scenario uniform:n=128,density=24
//	coloring-viz -scenario expchain:n=64,ratio=0.7
//	coloring-viz -scenario clusters:k=4,m=32 -seed 3
//
// The scenario catalogue is printed by netgen -list.
package main

import (
	"errors"
	"flag"
	"fmt"
	"os"

	"sinrcast/internal/coloring"
	"sinrcast/internal/scenario"
	"sinrcast/internal/sinr"
	"sinrcast/internal/stats"
)

func main() {
	var (
		spec = flag.String("scenario", "uniform:n=128,density=8", "scenario spec: family[:name=value,...]")
		seed = flag.Uint64("seed", 1, "seed")
	)
	flag.Parse()

	sp, err := scenario.Parse(*spec)
	if err != nil {
		fmt.Fprintf(os.Stderr, "coloring-viz: %v\n", err)
		os.Exit(2)
	}
	net, err := scenario.Generate(sp, sinr.DefaultParams(), *seed)
	if err != nil {
		fmt.Fprintf(os.Stderr, "coloring-viz: %v\n", err)
		var se *scenario.SpecError
		if errors.As(err, &se) {
			os.Exit(2)
		}
		os.Exit(1)
	}

	par := coloring.DefaultParams(net.N(), net.Space.Growth(), net.Params.Eps)
	res, err := coloring.Run(net, par, *seed)
	if err != nil {
		fmt.Fprintf(os.Stderr, "coloring-viz: %v\n", err)
		os.Exit(1)
	}

	fmt.Printf("network    %s n=%d Rs=%.3g\n", sp, net.N(), net.Granularity())
	fmt.Printf("schedule   %d rounds (%d phases × %d), palette up to %d colors\n",
		par.TotalRounds(), par.Phases(), par.PhaseLen(), par.NumColors())
	fmt.Printf("traffic    %d transmissions, %d receptions\n\n",
		res.Metrics.Transmissions, res.Metrics.Receptions)

	counts := map[float64]int{}
	for _, c := range res.Colors {
		counts[c]++
	}
	tb := stats.NewTable("color distribution", "color (prob)", "stations", "bar")
	for _, c := range coloring.Palette(res.Colors) {
		bar := ""
		for i := 0; i < counts[c]*40/net.N()+1; i++ {
			bar += "#"
		}
		tb.AddRow(fmt.Sprintf("%.6f", c), counts[c], bar)
	}
	fmt.Println(tb.String())

	l1 := coloring.CheckLemma1(net, res.Colors)
	l2 := coloring.CheckLemma2(net, res.Colors)
	fmt.Printf("Lemma 1: max per-color unit-ball mass = %.4f (station %d, color %.5f)\n",
		l1.MaxMass, l1.Station, l1.Color)
	fmt.Printf("Lemma 2: min best-color ε/2-ball mass = %.5f = %.2f×2pmax (station %d)\n",
		l2.MinBestMass, l2.MinBestMass/par.FinalColor(), l2.Station)
}
