package broadcast

import (
	"fmt"

	"sinrcast/internal/coloring"
	"sinrcast/internal/network"
	"sinrcast/internal/rng"
	"sinrcast/internal/sim"
	"sinrcast/internal/sinr"
)

// nosStation is the per-station NoSBroadcast state machine (§4.1).
//
// Global time is divided into phases of Config.PhaseLen() rounds. A station
// is active in a phase iff it was informed before the phase started.
// Part 1 of a phase re-runs StabilizeProbability on the active set;
// part 2 transmits the message with the Fact 11 probability derived from
// the fresh color. Sleeping stations listen; any reception informs them
// (every message carries the payload), and they join at the next phase
// boundary — exactly the paper's synchronization-by-round-counter.
type nosStation struct {
	p       *plan // shared by the run's stations
	machine *coloring.Machine
	rnd     *rng.Source
	payload int64

	informed   bool
	informedAt int
	// wakeAt is the round of a spontaneous (adversarial) wake-up, or -1.
	// Used by the wake-up application (§5); plain broadcast sets -1.
	wakeAt int
	active bool // participating in the current phase
	txProb float64
	draws  rng.Cursor // part 2's batched trials, up to the phase end
}

var _ sim.Protocol = (*nosStation)(nil)

func newNOSStation(p *plan, rnd *rng.Source, payload int64, isSource bool) *nosStation {
	s := &nosStation{
		p:          p,
		machine:    coloring.NewMachine(p.sched, rnd.Split(1)),
		rnd:        rnd,
		payload:    payload,
		informedAt: -1,
		wakeAt:     -1,
	}
	if isSource {
		s.informed = true
		s.informedAt = 0
	}
	return s
}

// Tick implements sim.Protocol.
func (s *nosStation) Tick(t int) (bool, sim.Message) {
	if !s.informed {
		if s.wakeAt < 0 || t < s.wakeAt {
			// Never informed, so never active: the boundary snapshot
			// below would keep it out and Reset a pristine machine.
			return false, sim.Message{}
		}
		s.informed = true
		s.informedAt = t
	}
	r := t % s.p.phaseLen
	if r == 0 {
		// Phase boundary: snapshot participation and restart coloring.
		s.active = s.informed
		s.machine.Reset()
		s.txProb = 0
	}
	if !s.active {
		return false, sim.Message{}
	}
	colorLen := s.p.colorLen
	if r < colorLen {
		if s.machine.Tick(r) {
			return true, sim.Message{Kind: KindColoring, A: s.payload}
		}
		return false, sim.Message{}
	}
	if r == colorLen {
		// Part 1 just ended: fix the color and the Fact 11 probability.
		s.machine.Finish()
		s.txProb = s.p.txProb(s.machine.Color())
	}
	if s.draws.Fire(s.rnd, s.txProb, t, t-r+s.p.phaseLen) {
		return true, sim.Message{Kind: KindData, A: s.payload}
	}
	return false, sim.Message{}
}

var _ sim.Sleeper = (*nosStation)(nil)

// TickWake implements sim.Sleeper: Tick plus the next round this
// station's Tick is not a provable no-op.
func (s *nosStation) TickWake(t int) (bool, sim.Message, int) {
	transmit, msg := s.Tick(t)
	return transmit, msg, s.nextWake(t)
}

// nextWake derives the sleep window from the post-Tick state. The
// no-op guarantees: an uninformed station's ticks change nothing (the
// boundary Reset is an identity on a pristine machine) until its
// spontaneous wake round, if any; an informed-but-inactive station does
// nothing before the next phase boundary; an active colorer draws
// nothing before its next drawn transmission or half-segment end, and
// once it quit nothing until part 2 opens at colorLen; a part-2
// transmitter sleeps to its next drawn transmission or the phase end.
func (s *nosStation) nextWake(t int) int {
	if !s.informed {
		if s.wakeAt > t {
			return s.wakeAt
		}
		return sim.NeverWake
	}
	r := t % s.p.phaseLen
	phaseStart := t - r
	if !s.active {
		return phaseStart + s.p.phaseLen
	}
	if r < s.p.colorLen {
		return phaseStart + s.machine.NextTick(r)
	}
	return s.draws.Wake(t)
}

// Recv implements sim.Protocol.
func (s *nosStation) Recv(t int, msg sim.Message) { s.RecvWake(t, msg) }

// RecvWake implements sim.Sleeper. Any reception informs; a newly
// informed station joins at the next phase boundary, and nothing it
// hears changes an active station's draws.
func (s *nosStation) RecvWake(t int, _ sim.Message) int {
	r := t % s.p.phaseLen
	wake := sim.NeverWake
	if !s.informed {
		s.informed = true
		s.informedAt = t
		wake = t - r + s.p.phaseLen
	}
	if s.active && r < s.p.colorLen {
		s.machine.OnRecv(r)
	}
	return wake
}

// RunNoS executes NoSBroadcast from the given source station and returns
// the measured result. payload is the broadcast message content.
func RunNoS(net *network.Network, cfg Config, seed uint64, source int, payload int64) (*Result, error) {
	p, err := newPlan(&cfg)
	if err != nil {
		return nil, err
	}
	n := net.N()
	if source < 0 || source >= n {
		return nil, fmt.Errorf("broadcast: source %d out of range [0,%d)", source, n)
	}
	if cfg.Coloring.N != n {
		return nil, fmt.Errorf("broadcast: config sized for %d stations, network has %d", cfg.Coloring.N, n)
	}
	phys, err := cfg.channel(net)
	if err != nil {
		return nil, err
	}
	root := rng.New(seed)
	stations := make([]*nosStation, n)
	protos := make([]sim.Protocol, n)
	for i := 0; i < n; i++ {
		st := newNOSStation(p, root.Split(uint64(i)), payload, i == source)
		stations[i] = st
		protos[i] = st
	}
	eng, err := sim.NewEngine(phys, protos)
	if err != nil {
		return nil, err
	}

	remaining := n - 1
	budget := defaultBudget(cfg, net)
	lastInformRound := 0
	eng.SetTracer(sim.TracerFunc(func(t int, _ []int, rec []sinr.Reception) {
		for _, rc := range rec {
			if stations[rc.Receiver].informedAt == t {
				remaining--
				lastInformRound = t + 1
			}
		}
	}))
	eng.Run(budget, func() bool { return remaining == 0 })

	res := &Result{
		AllInformed: remaining == 0,
		InformTime:  make([]int, n),
		Metrics:     eng.Metrics,
	}
	if res.AllInformed {
		res.Rounds = lastInformRound
	} else {
		res.Rounds = eng.Metrics.Rounds
	}
	res.Phases = (res.Rounds + p.phaseLen - 1) / p.phaseLen
	for i, st := range stations {
		res.InformTime[i] = st.informedAt
	}
	return res, nil
}
