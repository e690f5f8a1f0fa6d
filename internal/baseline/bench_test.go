package baseline

import (
	"fmt"
	"testing"

	"sinrcast/internal/scenario"
	"sinrcast/internal/sinr"
)

// BenchmarkFloodRounds measures a whole decay flood through
// RunFloodOn on sim.Engine — station ticks, subset resolution of the
// uninformed receivers, delivery and the inform tracer — per executed
// round. Each deployment and its engine are built once; every
// iteration floods it with a fresh seed. The three n=4096 cases share
// one deployment, so they compare the engines sinr.Choose decides
// between at the bottom of its approximate band (CI gates their
// ratios).
func BenchmarkFloodRounds(b *testing.B) {
	for _, c := range []struct {
		n      int
		engine string
	}{{4096, "exact"}, {4096, "grid"}, {4096, "hier"}, {8192, "hier"}} {
		b.Run(fmt.Sprintf("n=%d/engine=%s", c.n, c.engine), func(b *testing.B) {
			spec, err := scenario.Parse(fmt.Sprintf("uniform:n=%d", c.n))
			if err != nil {
				b.Fatal(err)
			}
			net, err := scenario.Generate(spec, sinr.DefaultParams(), uint64(c.n)+1)
			if err != nil {
				b.Fatal(err)
			}
			phys, err := sinr.NewNamedEngine(c.engine, net.Space, net.Params)
			if err != nil {
				b.Fatal(err)
			}
			budget := defaultBudget(net)
			rounds := 0
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				res, err := RunFloodOn(net, NewDecay(c.n), uint64(i)+5, 0, budget, phys)
				if err != nil {
					b.Fatal(err)
				}
				rounds += res.Metrics.Rounds
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(rounds), "ns/round")
		})
	}
}
