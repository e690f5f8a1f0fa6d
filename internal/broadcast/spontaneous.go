package broadcast

import (
	"fmt"

	"sinrcast/internal/coloring"
	"sinrcast/internal/network"
	"sinrcast/internal/rng"
	"sinrcast/internal/sim"
)

// sbStation is the per-station SBroadcast state machine (§4.2).
//
// With spontaneous wake-up all stations run StabilizeProbability once,
// together, as a preprocessing step (the "communication backbone").
// Right after it the source transmits deterministically in a silent
// round, and from then on every informed station transmits with its
// Fact 11 probability each round, so the message advances one hop per
// O(log n) rounds in expectation: O(D·log n + log² n) in total.
type sbStation struct {
	p       *plan // shared by the run's stations
	id      int
	machine *coloring.Machine
	rnd     *rng.Source
	payload int64
	source  bool

	informed bool
	txProb   float64
	// budget is the run's round budget; the informed flood draws its
	// trials ahead up to it.
	budget int
	draws  rng.Cursor
}

var _ sim.Protocol = (*sbStation)(nil)

func newSBStation(p *plan, id int, rnd *rng.Source, payload int64, isSource bool, budget int) *sbStation {
	return &sbStation{
		p:        p,
		id:       id,
		machine:  coloring.NewMachine(p.sched, rnd.Split(1)),
		rnd:      rnd,
		payload:  payload,
		source:   isSource,
		informed: isSource,
		budget:   budget,
	}
}

// Tick implements sim.Protocol.
func (s *sbStation) Tick(t int) (bool, sim.Message, int) {
	transmit, msg := s.act(t)
	return transmit, msg, s.nextWake(t)
}

// act is the station's round-t action; Tick adds the wake hint.
func (s *sbStation) act(t int) (bool, sim.Message) {
	colorLen := s.p.colorLen
	switch {
	case t < colorLen:
		if s.machine.Tick(t) {
			return true, sim.Message{Kind: KindColoring, A: s.payload}
		}
		return false, sim.Message{}
	case t == colorLen:
		// The dedicated source round: everyone else stays silent (the
		// schedule is known to all in the spontaneous model).
		s.machine.Finish()
		s.txProb = s.p.txProb(s.machine.Color())
		if s.source {
			return true, sim.Message{Kind: KindData, A: s.payload}
		}
		return false, sim.Message{}
	default:
		if s.informed && s.draws.Fire(s.rnd, s.txProb, t, s.budget) {
			return true, sim.Message{Kind: KindData, A: s.payload}
		}
		return false, sim.Message{}
	}
}

// nextWake derives the sleep window from the post-Tick state: a colorer
// sleeps to its next drawn transmission or half-segment end, and once
// it quit until the dedicated source round at colorLen (where everyone
// must tick to fix its Fact 11 probability); past the coloring an
// informed station sleeps to its next drawn transmission, and an
// uninformed one draws nothing until a reception informs it.
func (s *sbStation) nextWake(t int) int {
	if t < s.p.colorLen {
		return s.machine.NextTick(t)
	}
	if s.informed {
		return s.draws.Wake(t)
	}
	return sim.NeverWake
}

// Recv implements sim.Protocol: only becoming informed changes what
// the station draws, and once informed it ignores receptions (its
// inform Mark drops it from reception resolution).
func (s *sbStation) Recv(t int, msg sim.Message) int {
	if t < s.p.colorLen {
		s.machine.OnRecv(t)
		return sim.NeverWake
	}
	// Dissemination traffic informs; coloring is already over.
	if msg.Kind != KindData || s.informed {
		return sim.NeverWake
	}
	s.informed = true
	s.p.informs.Mark(s.id, t)
	return t + 1
}

// RunS executes SBroadcast from the given source and returns the result.
// The preprocessing coloring rounds are included in Result.Rounds, as in
// Theorem 2's O(D log n + log² n) accounting.
func RunS(net *network.Network, cfg Config, seed uint64, source int, payload int64) (*Result, error) {
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
	phys, err := sim.NewChannel(cfg.Channel, net)
	if err != nil {
		return nil, err
	}
	budget := defaultBudget(cfg, net)
	root := rng.New(seed)
	protos := make([]sim.Protocol, n)
	for i := range protos {
		protos[i] = newSBStation(p, i, root.Split(uint64(i)), payload, i == source, budget)
	}
	eng, err := sim.NewEngine(phys, protos)
	if err != nil {
		return nil, err
	}
	p.informs = NewInforms(n, eng)
	p.informs.Start(source)
	// Segment the run at the coloring boundary: during part 1 every
	// station needs its coloring feedback, so all receivers stay active;
	// from the dedicated source round on, informed stations are
	// quiescent receivers, dropped as they are informed.
	pre := min(p.colorLen, budget)
	eng.Run(pre, p.informs.Done)
	if eng.Round() >= p.colorLen {
		eng.SetReceiverActive(source, false)
	}
	eng.Run(budget-pre, p.informs.Done)
	return p.informs.Result(eng.Metrics), nil
}
