package coloring

import (
	"sinrcast/internal/network"
	"sinrcast/internal/rng"
	"sinrcast/internal/sim"
	"sinrcast/internal/sinr"
)

// KindColoring tags messages sent by the coloring protocol.
const KindColoring uint8 = 1

// stationProto adapts a Machine to sim.Protocol for standalone runs.
// It sleeps to the machine's NextTick; receptions only count, so they
// keep that hint.
type stationProto struct {
	m *Machine
}

var _ sim.Protocol = (*stationProto)(nil)

func (s *stationProto) Tick(t int) (bool, sim.Message, int) {
	transmit := s.m.Tick(t)
	return transmit, sim.Message{Kind: KindColoring}, s.m.NextTick(t)
}

func (s *stationProto) Recv(t int, _ sim.Message) int {
	s.m.OnRecv(t)
	return sim.NeverWake
}

// Result is the outcome of a standalone StabilizeProbability execution.
type Result struct {
	// Colors[i] is station i's assigned probability.
	Colors []float64
	// QuitPhase[i] is the doubling phase in which station i switched
	// off, or -1 if it survived to the final color.
	QuitPhase []int
	// Rounds is the schedule length that was executed.
	Rounds int
	// Metrics are the run's simulation counters.
	Metrics sim.Metrics
}

// Run executes StabilizeProbability on every station of the network and
// returns the resulting coloring. Participation of a subset (as in the
// phased broadcast) is handled by the broadcast package, not here.
func Run(net *network.Network, par Params, seed uint64) (*Result, error) {
	sched, err := par.Schedule()
	if err != nil {
		return nil, err
	}
	phys, err := sinr.NewEngine(net.Space, net.Params)
	if err != nil {
		return nil, err
	}
	n := net.N()
	root := rng.New(seed)
	protos := make([]sim.Protocol, n)
	machines := make([]*Machine, n)
	for i := 0; i < n; i++ {
		m := NewMachine(sched, root.Split(uint64(i)))
		machines[i] = m
		protos[i] = &stationProto{m: m}
	}
	eng, err := sim.NewEngine(phys, protos)
	if err != nil {
		return nil, err
	}
	total := sched.total
	eng.Run(total, nil)

	res := &Result{
		Colors:    make([]float64, n),
		QuitPhase: make([]int, n),
		Rounds:    total,
		Metrics:   eng.Metrics,
	}
	for i, m := range machines {
		m.Finish()
		res.Colors[i] = m.Color()
		res.QuitPhase[i] = -1
		for ph := 0; ph < sched.phases; ph++ {
			if m.Color() == par.ColorOfPhase(ph) {
				res.QuitPhase[i] = ph
				break
			}
		}
	}
	return res, nil
}
