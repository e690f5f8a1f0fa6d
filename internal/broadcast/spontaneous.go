package broadcast

import (
	"fmt"

	"sinrcast/internal/coloring"
	"sinrcast/internal/network"
	"sinrcast/internal/rng"
	"sinrcast/internal/sim"
	"sinrcast/internal/sinr"
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
	machine *coloring.Machine
	rnd     *rng.Source
	payload int64
	source  bool

	informed   bool
	informedAt int
	txProb     float64
	// budget is the run's round budget; the informed flood draws its
	// trials ahead up to it.
	budget int
	draws  rng.Cursor
}

var _ sim.Protocol = (*sbStation)(nil)

func newSBStation(p *plan, rnd *rng.Source, payload int64, isSource bool, budget int) *sbStation {
	s := &sbStation{
		p:          p,
		machine:    coloring.NewMachine(p.sched, rnd.Split(1)),
		rnd:        rnd,
		payload:    payload,
		source:     isSource,
		informedAt: -1,
		budget:     budget,
	}
	if isSource {
		s.informed = true
		s.informedAt = 0
	}
	return s
}

// Tick implements sim.Protocol.
func (s *sbStation) Tick(t int) (bool, sim.Message) {
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

var _ sim.Sleeper = (*sbStation)(nil)

// TickWake implements sim.Sleeper.
func (s *sbStation) TickWake(t int) (bool, sim.Message, int) {
	transmit, msg := s.Tick(t)
	return transmit, msg, s.nextWake(t)
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

// Recv implements sim.Protocol.
func (s *sbStation) Recv(t int, msg sim.Message) { s.RecvWake(t, msg) }

// RecvWake implements sim.Sleeper: only becoming informed changes what
// the station draws.
func (s *sbStation) RecvWake(t int, msg sim.Message) int {
	if t < s.p.colorLen {
		s.machine.OnRecv(t)
		return sim.NeverWake
	}
	// Dissemination traffic informs; coloring is already over.
	if msg.Kind != KindData || s.informed {
		return sim.NeverWake
	}
	s.informed = true
	s.informedAt = t
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
	phys, err := cfg.channel(net)
	if err != nil {
		return nil, err
	}
	budget := defaultBudget(cfg, net)
	root := rng.New(seed)
	stations := make([]*sbStation, n)
	protos := make([]sim.Protocol, n)
	for i := 0; i < n; i++ {
		st := newSBStation(p, root.Split(uint64(i)), payload, i == source, budget)
		stations[i] = st
		protos[i] = st
	}
	eng, err := sim.NewEngine(phys, protos)
	if err != nil {
		return nil, err
	}

	remaining := n - 1
	lastInformRound := 0
	eng.SetTracer(sim.TracerFunc(func(t int, _ []int, rec []sinr.Reception) {
		for _, rc := range rec {
			if stations[rc.Receiver].informedAt == t {
				remaining--
				lastInformRound = t + 1
				// Past the coloring, an informed station's Recv is a
				// no-op: drop it from reception resolution (the paper's
				// state machine is unchanged — this only skips physical
				// work whose outcome cannot matter).
				eng.SetReceiverActive(rc.Receiver, false)
			}
		}
	}))
	// Segment the run at the coloring boundary: during part 1 every
	// station needs its coloring feedback, so all receivers stay active;
	// from the dedicated source round on, informed stations are
	// quiescent receivers and are deactivated as they are informed.
	stop := func() bool { return remaining == 0 }
	colorLen := p.colorLen
	pre := colorLen
	if pre > budget {
		pre = budget
	}
	eng.Run(pre, stop)
	if eng.Round() >= colorLen {
		eng.SetReceiverActive(source, false)
	}
	eng.Run(budget-pre, stop)

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
	for i, st := range stations {
		res.InformTime[i] = st.informedAt
	}
	return res, nil
}
