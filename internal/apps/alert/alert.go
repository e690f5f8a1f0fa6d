// Package alert implements the alert-protocol problem mentioned in
// §1.3: an adversary raises an alert at an arbitrary subset of stations
// (possibly none); by a known deadline every station must output
// whether an alert was raised anywhere in the network. The positive
// case is a one-bit flood over the coloring backbone (a single window
// of the §5 "wake-up with established coloring"); the negative case
// must stay completely silent so that no station ever reports a false
// alert. Time: O(D log n + log² n) after the O(log² n) coloring.
package alert

import (
	"errors"
	"fmt"

	"sinrcast/internal/coloring"
	"sinrcast/internal/network"
	"sinrcast/internal/rng"
	"sinrcast/internal/sim"
	"sinrcast/internal/sinr"
)

// KindAlert tags alert-flood messages.
const KindAlert uint8 = 4

// Config parametrizes the alert protocol.
type Config struct {
	// Coloring is the backbone schedule.
	Coloring coloring.Params
	// WindowRounds is the flood window; 0 derives
	// WindowFactor·(D+4)·lg n + 2·lg² n.
	WindowRounds int
	// WindowFactor scales the derived window (default 60).
	WindowFactor float64
	// CProb and MaxTxProb shape the flood probability as in broadcast.
	CProb     float64
	MaxTxProb float64
	// Channel optionally overrides the physical layer (engine
	// selection for large-n runs). nil uses the exact SINR engine,
	// which is the paper's model.
	Channel func(net *network.Network) (sim.Resolver, error)
}

// DefaultConfig returns a calibrated configuration.
func DefaultConfig(n int, gamma, eps float64) Config {
	return Config{
		Coloring:     coloring.DefaultParams(n, gamma, eps),
		WindowFactor: 60,
		CProb:        6,
		MaxTxProb:    0.9,
	}
}

// Validate reports configuration errors.
func (c Config) Validate() error {
	var errs []error
	if err := c.Coloring.Validate(); err != nil {
		errs = append(errs, err)
	}
	if c.WindowRounds < 0 {
		errs = append(errs, fmt.Errorf("alert: WindowRounds = %d must be >= 0", c.WindowRounds))
	}
	if c.WindowRounds == 0 && c.WindowFactor <= 0 {
		errs = append(errs, fmt.Errorf("alert: WindowFactor = %v must be > 0", c.WindowFactor))
	}
	if c.CProb <= 0 || c.MaxTxProb <= 0 || c.MaxTxProb > 1 {
		errs = append(errs, fmt.Errorf("alert: bad flood probabilities"))
	}
	return errors.Join(errs...)
}

// plan is the per-run constant part of an alert execution, derived
// once and shared by every station.
type plan struct {
	cfg      *Config
	sched    *coloring.Schedule
	colorLen int // sched.TotalRounds(): the backbone coloring
	end      int // colorLen + the flood window: the run's length
}

// station is the per-station alert state machine.
type station struct {
	p       *plan
	machine *coloring.Machine
	rnd     *rng.Source
	alerted bool // raised or received the alert
	txProb  float64
	draws   rng.Cursor // the alerted station's batched flood trials
}

var _ sim.Protocol = (*station)(nil)

// Tick implements sim.Protocol.
func (s *station) Tick(t int) (bool, sim.Message) {
	colorLen := s.p.colorLen
	if t < colorLen {
		if s.machine.Tick(t) {
			return true, sim.Message{Kind: coloring.KindColoring}
		}
		return false, sim.Message{}
	}
	if t == colorLen {
		s.machine.Finish()
		s.txProb = s.p.sched.FloodProb(s.machine.Color(), s.p.cfg.CProb, s.p.cfg.MaxTxProb)
	}
	if s.alerted && s.draws.Fire(s.rnd, s.txProb, t, s.p.end) {
		return true, sim.Message{Kind: KindAlert}
	}
	return false, sim.Message{}
}

var _ sim.Sleeper = (*station)(nil)

// TickWake implements sim.Sleeper.
func (s *station) TickWake(t int) (bool, sim.Message, int) {
	transmit, msg := s.Tick(t)
	return transmit, msg, s.nextWake(t)
}

// nextWake derives the sleep window from the post-Tick state: a colorer
// sleeps to its next drawn transmission or half-segment end, and once
// it quit to the backbone boundary (everyone ticks there to fix its
// flood probability); in the flood window an alerted station sleeps to
// its next drawn transmission, and a non-alerted one draws nothing
// until a reception alerts it — in the negative case the whole window
// runs without a single Tick, matching the protocol's mandated silence.
func (s *station) nextWake(t int) int {
	if t < s.p.colorLen {
		return s.machine.NextTick(t)
	}
	if s.alerted {
		return s.draws.Wake(t)
	}
	return sim.NeverWake
}

// Recv implements sim.Protocol.
func (s *station) Recv(t int, msg sim.Message) { s.RecvWake(t, msg) }

// RecvWake implements sim.Sleeper: only becoming alerted changes what
// the station draws.
func (s *station) RecvWake(t int, msg sim.Message) int {
	if t < s.p.colorLen {
		s.machine.OnRecv(t)
		return sim.NeverWake
	}
	if msg.Kind != KindAlert || s.alerted {
		return sim.NeverWake
	}
	s.alerted = true
	return t + 1
}

// Result reports an alert execution.
type Result struct {
	// Outputs[i] is station i's verdict at the deadline.
	Outputs []bool
	// Correct: every station's verdict equals "any alert was raised".
	Correct bool
	// Rounds is the protocol length (coloring + window).
	Rounds int
	// FloodTransmissions counts transmissions in the flood window only
	// (must be 0 in the negative case).
	FloodTransmissions int64
	// Metrics are the full-run counters.
	Metrics sim.Metrics
}

// Run executes the protocol; raised[i] marks stations at which the
// adversary raises the alert at time 0.
func Run(net *network.Network, cfg Config, seed uint64, raised []bool) (*Result, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	n := net.N()
	if len(raised) != n {
		return nil, fmt.Errorf("alert: %d flags for %d stations", len(raised), n)
	}
	if cfg.Coloring.N != n {
		return nil, fmt.Errorf("alert: config sized for %d stations, network has %d", cfg.Coloring.N, n)
	}
	d, connected := net.DiameterApprox()
	if !connected {
		return nil, errors.New("alert: network not connected")
	}
	var phys sim.Resolver
	var err error
	if cfg.Channel != nil {
		phys, err = cfg.Channel(net)
	} else {
		phys, err = sinr.NewEngine(net.Space, net.Params)
	}
	if err != nil {
		return nil, err
	}
	sched, err := cfg.Coloring.Schedule()
	if err != nil {
		return nil, err
	}
	colorLen := sched.TotalRounds()
	window := sched.FloodWindow(cfg.WindowRounds, cfg.WindowFactor, d)
	p := &plan{cfg: &cfg, sched: sched, colorLen: colorLen, end: colorLen + window}
	root := rng.New(seed)
	stations := make([]*station, n)
	protos := make([]sim.Protocol, n)
	for i := 0; i < n; i++ {
		stations[i] = &station{
			p:       p,
			machine: coloring.NewMachine(sched, root.Split(uint64(i)).Split(1)),
			rnd:     root.Split(uint64(i)),
			alerted: raised[i],
		}
		protos[i] = stations[i]
	}
	eng, err := sim.NewEngine(phys, protos)
	if err != nil {
		return nil, err
	}
	eng.Run(p.colorLen, nil)
	preFlood := eng.Metrics.Transmissions
	// Flood window: an already-alerted station's Recv is a no-op, so
	// alerted stations stop being resolved as receivers (they still
	// transmit the alert). Receptions at the remaining listeners are
	// byte-identical to a full resolution, so verdicts are unchanged.
	for i, st := range stations {
		if st.alerted {
			eng.SetReceiverActive(i, false)
		}
	}
	eng.SetTracer(sim.TracerFunc(func(_ int, _ []int, rec []sinr.Reception) {
		for _, rc := range rec {
			if stations[rc.Receiver].alerted {
				eng.SetReceiverActive(rc.Receiver, false)
			}
		}
	}))
	eng.Run(window, nil)

	any := false
	for _, r := range raised {
		if r {
			any = true
		}
	}
	res := &Result{
		Outputs:            make([]bool, n),
		Correct:            true,
		Rounds:             eng.Metrics.Rounds,
		FloodTransmissions: eng.Metrics.Transmissions - preFlood,
		Metrics:            eng.Metrics,
	}
	for i, st := range stations {
		res.Outputs[i] = st.alerted
		if st.alerted != any {
			res.Correct = false
		}
	}
	return res, nil
}
