package broadcast

import (
	"fmt"
	"sync"
	"testing"

	"sinrcast/internal/network"
	"sinrcast/internal/rng"
	"sinrcast/internal/sim"
	"sinrcast/internal/sinr"
)

// Cached deployments and prototype engines for the sim-layer
// benchmarks: generating a 65536-station uniform deployment and its
// hier engine once per process, not once per sub-benchmark.
var (
	benchSimMu     sync.Mutex
	benchSimNets   = map[int]*network.Network{}
	benchSimEngine = map[int]sim.Resolver{}
)

func benchSimScene(b *testing.B, n int) (*network.Network, sim.Resolver) {
	b.Helper()
	benchSimMu.Lock()
	defer benchSimMu.Unlock()
	net, ok := benchSimNets[n]
	if !ok {
		net = genUniform(b, n, 8, uint64(n)+1)
		benchSimNets[n] = net
		phys, err := sinr.NewNamedEngine("hier", net.Space, net.Params)
		if err != nil {
			b.Fatal(err)
		}
		benchSimEngine[n] = phys
	}
	return net, benchSimEngine[n]
}

// benchProtos builds the per-station state machines of one protocol,
// mirroring the corresponding runner's construction (RunNoS / RunS)
// so the benchmark drives production Tick/TickWake code.
func benchProtos(b *testing.B, proto string, cfg *Config, net *network.Network, seed uint64) []sim.Protocol {
	b.Helper()
	p, err := newPlan(cfg)
	if err != nil {
		b.Fatal(err)
	}
	n, budget := net.N(), defaultBudget(*cfg, net)
	root := rng.New(seed)
	protos := make([]sim.Protocol, n)
	for i := 0; i < n; i++ {
		switch proto {
		case "nos":
			protos[i] = newNOSStation(p, root.Split(uint64(i)), 7, i == 0)
		case "s":
			protos[i] = newSBStation(p, root.Split(uint64(i)), 7, i == 0, budget)
		default:
			b.Fatalf("unknown protocol %q", proto)
		}
	}
	return protos
}

// BenchmarkSimRounds measures round-loop throughput through the
// coloring preamble — the sim layer's worst case before this PR: in
// NoSBroadcast every station but the source is uninformed and silent,
// yet the tick-everyone loop still paid n Tick calls per round. With
// wake scheduling the sleepers wait in the calendar queue and each
// round costs only the stations actually due. SBroadcast is the
// counterpoint: all n stations color concurrently (spontaneous
// wake-up), so scheduling can only shed post-coloring idle tails. The
// sched=off runs are the SetWakeSchedulingDefault(false) reference
// path; the acceptance gate wants nos at n=65536 ≥ 3× its off
// throughput.
func BenchmarkSimRounds(b *testing.B) {
	// s stays at the small size: with every station coloring, each
	// round is real resolver work (milliseconds at 4096 already), and
	// the point — scheduling is a wash when no one sleeps — shows at
	// any n.
	cases := []struct {
		n     int
		proto string
	}{{4096, "nos"}, {4096, "s"}, {65536, "nos"}}
	for _, tc := range cases {
		n, proto := tc.n, tc.proto
		{
			for _, sched := range []bool{false, true} {
				mode := "off"
				if sched {
					mode = "on"
				}
				b.Run(fmt.Sprintf("n=%d/proto=%s/sched=%s", n, proto, mode), func(b *testing.B) {
					net, phys := benchSimScene(b, n)
					cfg := cfgFor(net)
					rounds := cfg.Coloring.TotalRounds()
					prev := sim.SetWakeSchedulingDefault(sched)
					defer sim.SetWakeSchedulingDefault(prev)
					b.ResetTimer()
					for i := 0; i < b.N; i++ {
						b.StopTimer()
						protos := benchProtos(b, proto, &cfg, net, uint64(i)+5)
						eng, err := sim.NewEngine(phys, protos)
						if err != nil {
							b.Fatal(err)
						}
						b.StartTimer()
						eng.Run(rounds, nil)
					}
					el := b.Elapsed()
					b.ReportMetric(float64(el.Nanoseconds())/float64(b.N*rounds), "ns/round")
					b.ReportMetric(float64(b.N*rounds)/el.Seconds(), "rounds/s")
				})
			}
		}
	}
}
