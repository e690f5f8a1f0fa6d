package broadcast

import (
	"fmt"

	"sinrcast/internal/coloring"
	"sinrcast/internal/network"
	"sinrcast/internal/rng"
	"sinrcast/internal/sim"
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
	id      int
	machine *coloring.Machine
	rnd     *rng.Source
	payload int64

	informed bool
	// wakeAt is the round of a spontaneous (adversarial) wake-up, or -1.
	// Plain broadcast sets 0 at the source and -1 elsewhere; the wake-up
	// application (§5) sets later rounds too.
	wakeAt int
	active bool // participating in the current phase
	txProb float64
	draws  rng.Cursor // part 2's batched trials, up to the phase end
}

var _ sim.Protocol = (*nosStation)(nil)

func newNOSStation(p *plan, id int, rnd *rng.Source, payload int64) *nosStation {
	return &nosStation{
		p:       p,
		id:      id,
		machine: coloring.NewMachine(p.sched, rnd.Split(1)),
		rnd:     rnd,
		payload: payload,
		wakeAt:  -1,
	}
}

// Tick implements sim.Protocol.
func (s *nosStation) Tick(t int) (bool, sim.Message, int) {
	transmit, msg := s.act(t)
	return transmit, msg, s.nextWake(t)
}

// act is the station's round-t action; Tick adds the wake hint.
func (s *nosStation) act(t int) (bool, sim.Message) {
	if !s.informed {
		if s.wakeAt < 0 || t < s.wakeAt {
			// Never informed, so never active: the boundary snapshot
			// below would keep it out and Reset a pristine machine.
			return false, sim.Message{}
		}
		s.informed = true
		s.p.informs.Mark(s.id, t)
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

// Recv implements sim.Protocol. Any reception informs; a newly
// informed station joins at the next phase boundary, and nothing it
// hears changes an active station's draws.
func (s *nosStation) Recv(t int, _ sim.Message) int {
	r := t % s.p.phaseLen
	wake := sim.NeverWake
	if !s.informed {
		s.informed = true
		s.p.informs.Mark(s.id, t)
		wake = t - r + s.p.phaseLen
	}
	if s.active && r < s.p.colorLen {
		s.machine.OnRecv(r)
	}
	return wake
}

// RunNoS executes NoSBroadcast from the given source station and returns
// the measured result. payload is the broadcast message content. It is
// RunNoSMulti with the source as the one station awake at round 0.
func RunNoS(net *network.Network, cfg Config, seed uint64, source int, payload int64) (*Result, error) {
	n := net.N()
	if source < 0 || source >= n {
		return nil, fmt.Errorf("broadcast: source %d out of range [0,%d)", source, n)
	}
	wakeAt := make([]int, n)
	for i := range wakeAt {
		wakeAt[i] = -1
	}
	wakeAt[source] = 0
	return RunNoSMulti(net, cfg, seed, wakeAt, payload)
}
