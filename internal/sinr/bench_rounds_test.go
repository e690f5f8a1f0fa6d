// Cross-round benchmarks: where BenchmarkHierResolve measures one
// round in isolation, BenchmarkHierResolveRounds replays round
// *sequences*, which is what protocols actually do — so the cross-round
// delta path (incremental aggregate updates between overlapping
// transmitter sets) has a first-class number, measured against the
// rebuild-every-round reference on identical sequences.
//
// Two workloads:
//
//   - trace=decay: a recorded decay-flood round trace (tx sets and
//     shrinking uninformed-receiver subsets captured via
//     sim.RecordRounds from a real baseline.RunFloodOn run; only busy
//     rounds reach the resolver, since sim.Engine skips the
//     transmitter-free ones). Decay
//     resweeps probabilities every round, so consecutive transmitter
//     sets churn heavily and the engine mostly falls back to full
//     rebuilds — this series pins that the fallback costs nothing.
//
//   - churn=P/latebcast: synthetic late-broadcast rounds — a large
//     informed transmitter population (n/4, floods keep informed
//     stations transmitting) of which P% flips between rounds,
//     resolved for the tiny uninformed remnant (n/1024 receivers).
//     This is the aggregation-dominated regime the delta path exists
//     for; the delta/rebuild ratio at churn=20 is the acceptance
//     number and the CI gate.
//
// The benches live in the external test package so they can drive the
// real protocol stack for the trace.
package sinr_test

import (
	"fmt"
	"sync"
	"testing"

	"sinrcast/internal/baseline"
	"sinrcast/internal/geom"
	"sinrcast/internal/network"
	"sinrcast/internal/rng"
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

// churnTrace synthesizes a late-broadcast round sequence: |tx| = n/4
// informed transmitters of which churnPct% flip each round, resolved
// for a fixed subset of n/1024 uninformed receivers.
func churnTrace(n, rounds, churnPct int) *sim.RoundLog {
	r := rng.New(uint64(churnPct)*31 + 5)
	member := make([]bool, n)
	size := n / 4
	for got := 0; got < size; {
		c := int(r.Uint64() % uint64(n))
		if !member[c] {
			member[c] = true
			got++
		}
	}
	var recv []int
	for i := 0; i < n; i += 1024 {
		recv = append(recv, i)
	}
	log := &sim.RoundLog{}
	f := float64(churnPct) / 100
	for round := 0; round < rounds; round++ {
		flips := int(f * float64(size))
		for done := 0; done < flips; {
			c := int(r.Uint64() % uint64(n))
			if member[c] {
				member[c] = false
				done++
			}
		}
		for done := 0; done < flips; {
			c := int(r.Uint64() % uint64(n))
			if !member[c] {
				member[c] = true
				done++
			}
		}
		var tx []int
		for i := 0; i < n; i++ {
			if member[i] {
				tx = append(tx, i)
			}
		}
		log.Tx = append(log.Tx, tx)
		log.Recv = append(log.Recv, recv)
	}
	return log
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

// BenchmarkHierResolveRounds replays recorded and synthetic round
// sequences in delta (cross-round incremental aggregation, the
// default) and rebuild (SetDeltaCrossover(0)) modes. ns/round is the
// comparable metric; a full warm replay precedes the timer, so
// allocs/op reports the steady state — the allocation-free contract is
// gated on the delta entries.
func BenchmarkHierResolveRounds(b *testing.B) {
	type series struct {
		name string
		log  func(b *testing.B) (*geom.Euclidean, *sim.RoundLog)
	}
	all := []series{
		{"trace=decay", decayRoundTrace},
		{"churn=5/latebcast", func(b *testing.B) (*geom.Euclidean, *sim.RoundLog) {
			scene, _ := decayRoundTrace(b)
			return scene, churnTrace(roundsBenchN, 48, 5)
		}},
		{"churn=20/latebcast", func(b *testing.B) (*geom.Euclidean, *sim.RoundLog) {
			scene, _ := decayRoundTrace(b)
			return scene, churnTrace(roundsBenchN, 48, 20)
		}},
		{"churn=50/latebcast", func(b *testing.B) (*geom.Euclidean, *sim.RoundLog) {
			scene, _ := decayRoundTrace(b)
			return scene, churnTrace(roundsBenchN, 48, 50)
		}},
	}
	for _, s := range all {
		for _, mode := range []string{"delta", "rebuild"} {
			b.Run(fmt.Sprintf("n=%d/%s/mode=%s", roundsBenchN, s.name, mode), func(b *testing.B) {
				scene, log := s.log(b)
				h, err := sinr.NewHierEngine(scene, sinr.DefaultParams(), sinr.DefaultCellSize, sinr.DefaultNearRadius, sinr.DefaultTheta)
				if err != nil {
					b.Fatal(err)
				}
				h.SetWorkers(1)
				if mode == "rebuild" {
					h.SetDeltaCrossover(0)
				}
				// Two warm replays: the first grows every scratch arena,
				// the second lets the delta path's live/hot lists reach
				// their compaction-cycle high-water capacity. Steady
				// state after that is allocation-free.
				replay(h, log)
				replay(h, log)
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					replay(h, log)
				}
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(log.Tx)), "ns/round")
			})
		}
	}
}
