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
// mirroring the corresponding runner's construction (RunNoSMulti /
// RunS, station 0 the source) so the benchmark drives production Tick
// code. Its inform ledger drops no receivers: the benchmark builds its
// own engine, and runs only the coloring part.
func benchProtos(b *testing.B, proto string, cfg *Config, net *network.Network, seed uint64) []sim.Protocol {
	b.Helper()
	p, err := newPlan(cfg)
	if err != nil {
		b.Fatal(err)
	}
	n, budget := net.N(), defaultBudget(*cfg, net)
	p.informs = NewInforms(n, nil)
	p.informs.Start(0)
	root := rng.New(seed)
	protos := make([]sim.Protocol, n)
	for i := 0; i < n; i++ {
		switch proto {
		case "nos":
			st := newNOSStation(p, i, root.Split(uint64(i)), 7)
			st.informed = i == 0
			protos[i] = st
		case "s":
			protos[i] = newSBStation(p, i, root.Split(uint64(i)), 7, i == 0, budget)
		default:
			b.Fatalf("unknown protocol %q", proto)
		}
	}
	return protos
}

// everyRound is the tick-everyone reference: it ignores a station's
// wake hints and asks for every round.
type everyRound struct{ sim.Protocol }

func (a everyRound) Tick(t int) (bool, sim.Message, int) {
	transmit, msg, _ := a.Protocol.Tick(t)
	return transmit, msg, t + 1
}

// laneStation is the trivial station of the lane case: it never
// transmits and asks for the next round every round, so a run of them
// costs only the round loop's own per-station tick overhead.
type laneStation struct{}

func (laneStation) Tick(t int) (bool, sim.Message, int) { return false, sim.Message{}, t + 1 }
func (laneStation) Recv(int, sim.Message) int           { return sim.NeverWake }

// BenchmarkSimRounds measures round-loop throughput through the
// coloring preamble. In NoSBroadcast every station but the source is
// uninformed and silent, so a tick-everyone loop pays n Tick calls per
// round; with wake scheduling the sleepers wait in the calendar queue
// and each round costs only the stations actually due. SBroadcast is
// the counterpoint: all n stations color concurrently (spontaneous
// wake-up), so scheduling can only shed post-coloring idle tails. The
// sched=off runs wrap every station in the everyRound reference
// adapter. The lane case runs n laneStations for as many rounds and
// reports the loop's cost per station-round: a tick-everyone loop pays
// at least n times that per round, so CI gates nos at n=65536 on
// 3 × sched=on ns/round ≤ n × lane ns/station-round — a reference the
// adapter's own interface calls and discarded hints do not inflate.
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
					b.ResetTimer()
					for i := 0; i < b.N; i++ {
						b.StopTimer()
						protos := benchProtos(b, proto, &cfg, net, uint64(i)+5)
						if !sched {
							for j, p := range protos {
								protos[j] = everyRound{p}
							}
						}
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
	const n = 65536
	b.Run(fmt.Sprintf("n=%d/proto=lane/sched=on", n), func(b *testing.B) {
		net, phys := benchSimScene(b, n)
		cfg := cfgFor(net)
		rounds := cfg.Coloring.TotalRounds()
		protos := make([]sim.Protocol, n)
		for i := range protos {
			protos[i] = laneStation{}
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			eng, err := sim.NewEngine(phys, protos)
			if err != nil {
				b.Fatal(err)
			}
			b.StartTimer()
			eng.Run(rounds, nil)
		}
		el := float64(b.Elapsed().Nanoseconds())
		b.ReportMetric(el/float64(b.N*rounds), "ns/round")
		b.ReportMetric(el/(float64(b.N*rounds)*n), "ns/station-round")
	})
}
