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
// round. The deployment and its hier engine are built once; every
// iteration floods it with a fresh seed.
func BenchmarkFloodRounds(b *testing.B) {
	const n = 8192
	b.Run(fmt.Sprintf("n=%d/engine=hier", n), func(b *testing.B) {
		spec, err := scenario.Parse(fmt.Sprintf("uniform:n=%d", n))
		if err != nil {
			b.Fatal(err)
		}
		net, err := scenario.Generate(spec, sinr.DefaultParams(), uint64(n)+1)
		if err != nil {
			b.Fatal(err)
		}
		phys, err := sinr.NewNamedEngine("hier", net.Space, net.Params)
		if err != nil {
			b.Fatal(err)
		}
		budget := defaultBudget(net)
		rounds := 0
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			res, err := RunFloodOn(net, NewDecay(n), uint64(i)+5, 0, budget, phys)
			if err != nil {
				b.Fatal(err)
			}
			rounds += res.Metrics.Rounds
		}
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(rounds), "ns/round")
	})
}
