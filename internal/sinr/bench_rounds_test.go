// Cross-round benchmark: where BenchmarkHierResolve measures one round
// in isolation, BenchmarkHierResolveRounds replays a round *sequence*,
// which is what protocols actually do — a recorded decay-flood trace
// (tx sets and shrinking uninformed-receiver subsets captured via
// sim.RecordRounds from a real baseline.RunFloodOn run; only busy
// rounds reach the resolver, since sim.Engine skips the
// transmitter-free ones). Its late rounds resolve a few receivers
// against hundreds of transmitters, where the on-demand pyramid and
// the near-field short-circuit do their work.
//
// The bench lives in the external test package so it can drive the
// real protocol stack for the trace.
package sinr_test

import (
	"fmt"
	"sync"
	"testing"

	"sinrcast/internal/baseline"
	"sinrcast/internal/geom"
	"sinrcast/internal/network"
	"sinrcast/internal/sim"
	"sinrcast/internal/sinr"
)

const (
	roundsBenchN      = 65536
	roundsBenchBudget = 96
)

var (
	roundsOnce  sync.Once
	roundsScene *geom.Euclidean
	decayTrace  *sim.RoundLog
)

// decayRoundTrace records one decay flood on the shared bench scene:
// the transmitter set and uninformed-receiver subset of every round
// that reaches the resolver — the busy rounds, as sim.Engine skips
// transmitter-free ones on a subset resolver — captured through the
// production recording path.
func decayRoundTrace(b *testing.B) (*geom.Euclidean, *sim.RoundLog) {
	roundsOnce.Do(func() {
		scene := sinr.BenchSceneForTest(uint64(roundsBenchN)+1, roundsBenchN)
		net, err := network.New(scene, sinr.DefaultParams())
		if err != nil {
			b.Fatal(err)
		}
		phys, err := sinr.NewHierEngine(scene, sinr.DefaultParams(), sinr.DefaultCellSize, sinr.DefaultNearRadius, sinr.DefaultTheta)
		if err != nil {
			b.Fatal(err)
		}
		log := &sim.RoundLog{}
		if _, err := baseline.RunFloodOn(net, baseline.NewDecay(roundsBenchN), 9, 0, roundsBenchBudget, sim.RecordRounds(phys, log)); err != nil {
			b.Fatal(err)
		}
		roundsScene = scene
		decayTrace = log
	})
	return roundsScene, decayTrace
}

// replay resolves every recorded round in order.
func replay(h *sinr.HierEngine, log *sim.RoundLog) {
	for r := range log.Tx {
		if len(log.Tx[r]) == 0 {
			continue
		}
		if log.Recv[r] != nil {
			h.ResolveFor(log.Tx[r], log.Recv[r])
		} else {
			h.Resolve(log.Tx[r])
		}
	}
}

// BenchmarkHierResolveRounds replays the recorded decay trace on one
// long-lived engine. ns/round is the comparable metric; a full warm
// replay precedes the timer, so allocs/op reports the steady state —
// the allocation-free contract CI gates.
func BenchmarkHierResolveRounds(b *testing.B) {
	b.Run(fmt.Sprintf("n=%d/trace=decay", roundsBenchN), func(b *testing.B) {
		scene, log := decayRoundTrace(b)
		h, err := sinr.NewHierEngine(scene, sinr.DefaultParams(), sinr.DefaultCellSize, sinr.DefaultNearRadius, sinr.DefaultTheta)
		if err != nil {
			b.Fatal(err)
		}
		h.SetWorkers(1)
		// One warm replay grows every scratch arena; steady state after
		// that is allocation-free.
		replay(h, log)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			replay(h, log)
		}
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(log.Tx)), "ns/round")
	})
}
