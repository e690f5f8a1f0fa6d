package consensus

import "testing"

// BenchmarkConsensusRounds times whole consensus runs — the backbone
// coloring plus every bit window — on a 64-station uniform deployment
// over the exact engine, with the registry's default domain (x=255)
// and messages. ns/round is the round loop's cost per simulated round:
// station ticks and receptions plus the SINR resolve.
func BenchmarkConsensusRounds(b *testing.B) {
	const n, x = 64, 255
	b.Run("n=64", func(b *testing.B) {
		net := genNet(b, n, 3)
		cfg := cfgFor(net, x)
		msgs := make([]int64, n)
		for i := range msgs {
			msgs[i] = int64(i*37+100) % (x + 1)
		}
		b.ReportAllocs()
		b.ResetTimer()
		rounds := 0
		for i := 0; i < b.N; i++ {
			res, err := Run(net, cfg, uint64(i)+1, msgs)
			if err != nil {
				b.Fatal(err)
			}
			if !res.Correct {
				b.Fatalf("seed %d: consensus not correct", i+1)
			}
			rounds += res.Rounds
		}
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(rounds), "ns/round")
	})
}
