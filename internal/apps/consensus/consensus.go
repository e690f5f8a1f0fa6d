// Package consensus implements the §5 consensus protocol: every station
// holds a message in {0,…,X}; all stations must agree on the
// lexicographically (numerically) smallest one. The protocol first
// establishes the backbone coloring (one StabilizeProbability execution,
// as in the paper's "wake-up with established coloring"), then reveals
// the minimum bit by bit, most significant first: in window i, stations
// whose message extends the agreed prefix with a 0-bit initiate a
// bounded flood; hearing the window's token means bit 0, silence means
// bit 1. Time is O(window·log X) = O((D log n + log² n)·log X).
package consensus

import (
	"errors"
	"fmt"
	"math/bits"

	"sinrcast/internal/coloring"
	"sinrcast/internal/network"
	"sinrcast/internal/rng"
	"sinrcast/internal/sim"
)

// KindToken tags window-flood messages; A carries the window index so
// stale tokens never leak across windows.
const KindToken uint8 = 3

// Config parametrizes the consensus protocol.
type Config struct {
	// Coloring is the backbone StabilizeProbability schedule.
	Coloring coloring.Params
	// X bounds the message domain {0..X}.
	X int64
	// WindowRounds is the per-bit flood window length; 0 derives
	// WindowFactor·(D+4)·lg n + 2·lg² n from the network.
	WindowRounds int
	// WindowFactor scales the derived window (default 60).
	WindowFactor float64
	// CProb and MaxTxProb shape the per-round flood probability
	// p·cε/(CProb·lg n) as in broadcast.Config.
	CProb     float64
	MaxTxProb float64
	// Channel optionally overrides the physical layer (engine
	// selection for large-n runs). nil uses the exact SINR engine,
	// which is the paper's model.
	Channel func(net *network.Network) (sim.Resolver, error)
}

// DefaultConfig returns a calibrated consensus configuration.
func DefaultConfig(n int, gamma, eps float64, x int64) Config {
	return Config{
		Coloring:     coloring.DefaultParams(n, gamma, eps),
		X:            x,
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
	if c.X < 0 {
		errs = append(errs, fmt.Errorf("consensus: X = %d must be >= 0", c.X))
	}
	if c.WindowRounds < 0 {
		errs = append(errs, fmt.Errorf("consensus: WindowRounds = %d must be >= 0", c.WindowRounds))
	}
	if c.WindowRounds == 0 && c.WindowFactor <= 0 {
		errs = append(errs, fmt.Errorf("consensus: WindowFactor = %v must be > 0", c.WindowFactor))
	}
	if c.CProb <= 0 || c.MaxTxProb <= 0 || c.MaxTxProb > 1 {
		errs = append(errs, fmt.Errorf("consensus: bad flood probabilities (CProb=%v, MaxTxProb=%v)", c.CProb, c.MaxTxProb))
	}
	return errors.Join(errs...)
}

// Bits returns the number of bit windows: ⌈log2(X+1)⌉ (at least 1).
func (c Config) Bits() int {
	if c.X <= 0 {
		return 1
	}
	return bits.Len64(uint64(c.X))
}

// plan is the per-run constant part of a consensus execution, derived
// once and shared by every station: the backbone schedule, the per-bit
// window length and the number of bit windows.
type plan struct {
	cfg      *Config
	sched    *coloring.Schedule
	colorLen int // sched.TotalRounds(): the backbone coloring
	window   int
	bits     int // cfg.Bits()
}

// station is the per-station consensus state machine.
type station struct {
	p       *plan
	machine *coloring.Machine
	rnd     *rng.Source
	msg     int64

	txProb float64    // backbone flood probability, fixed after coloring
	draws  rng.Cursor // the token holder's batched trials of the window

	prefix   int64 // agreed bits so far (most significant first)
	nbits    int   // number of agreed bits
	hasToken bool  // heard/initiated the current window's token
}

var _ sim.Protocol = (*station)(nil)

// initiates reports whether the station's message extends the agreed
// prefix with a 0 at the current bit (bit index counts from the top).
func (s *station) initiates(bitIdx, totalBits int) bool {
	shift := uint(totalBits - bitIdx - 1)
	if s.msg>>(shift+1) != s.prefix {
		return false
	}
	return (s.msg>>shift)&1 == 0
}

// Tick implements sim.Protocol.
func (s *station) Tick(t int) (bool, sim.Message, int) {
	transmit, msg := s.act(t)
	return transmit, msg, s.nextWake(t)
}

// act is the station's round-t action; Tick adds the wake hint.
func (s *station) act(t int) (bool, sim.Message) {
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
	total := s.p.bits
	w := t - colorLen
	bitIdx := w / s.p.window
	if bitIdx >= total {
		return false, sim.Message{} // protocol over
	}
	if w%s.p.window == 0 {
		// Window start: close the previous window, decide its bit.
		if bitIdx > 0 {
			s.closeWindow()
		}
		s.hasToken = s.initiates(bitIdx, total)
	}
	windowEnd := colorLen + (bitIdx+1)*s.p.window
	if s.hasToken && s.draws.Fire(s.rnd, s.txProb, t, windowEnd) {
		return true, sim.Message{Kind: KindToken, A: int64(bitIdx)}
	}
	return false, sim.Message{}
}

// nextWake derives the sleep window from the post-Tick state: a colorer
// sleeps to its next drawn transmission or half-segment end, and once
// it quit to the backbone boundary (everyone must tick there to fix its
// flood probability); a token holder sleeps to its next drawn
// transmission, or to the next window if it drew none; a station
// without the current window's token draws nothing until the next
// window opens (closeWindow runs on that tick), and a station past the
// last window is done for good — the final closeWindow happens in
// finalize, not in a Tick.
func (s *station) nextWake(t int) int {
	colorLen := s.p.colorLen
	if t < colorLen {
		return s.machine.NextTick(t)
	}
	total := s.p.bits
	bitIdx := (t - colorLen) / s.p.window
	if bitIdx >= total {
		return sim.NeverWake
	}
	if s.hasToken {
		return s.draws.Wake(t)
	}
	if bitIdx+1 >= total {
		return sim.NeverWake
	}
	return colorLen + (bitIdx+1)*s.p.window
}

// closeWindow folds the finished window's outcome into the prefix.
func (s *station) closeWindow() {
	bit := int64(1)
	if s.hasToken {
		bit = 0
	}
	s.prefix = s.prefix<<1 | bit
	s.nbits++
	s.hasToken = false
}

// Recv implements sim.Protocol. Only picking up the current window's
// token changes what the station draws; coloring feedback and repeated
// tokens leave its wake hint standing.
func (s *station) Recv(t int, msg sim.Message) int {
	colorLen := s.p.colorLen
	if t < colorLen {
		s.machine.OnRecv(t)
		return sim.NeverWake
	}
	if msg.Kind != KindToken || s.hasToken {
		return sim.NeverWake
	}
	bitIdx := (t - colorLen) / s.p.window
	if int64(bitIdx) != msg.A {
		return sim.NeverWake
	}
	s.hasToken = true
	return t + 1
}

// finalize closes the last window (the engine stops before another
// window-start Tick would).
func (s *station) finalize() {
	if s.nbits < s.p.bits {
		s.closeWindow()
	}
}

// Result reports a consensus execution.
type Result struct {
	// Values[i] is station i's decided value.
	Values []int64
	// Agreed reports whether all stations decided the same value.
	Agreed bool
	// Correct reports whether the common value equals the true minimum
	// (implies Agreed).
	Correct bool
	// Rounds is the total protocol length (coloring + all windows).
	Rounds int
	// Metrics are the simulation counters.
	Metrics sim.Metrics
}

// Run executes consensus over the stations' messages msgs (one per
// station, each in {0..cfg.X}).
func Run(net *network.Network, cfg Config, seed uint64, msgs []int64) (*Result, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	n := net.N()
	if len(msgs) != n {
		return nil, fmt.Errorf("consensus: %d messages for %d stations", len(msgs), n)
	}
	if cfg.Coloring.N != n {
		return nil, fmt.Errorf("consensus: config sized for %d stations, network has %d", cfg.Coloring.N, n)
	}
	for i, m := range msgs {
		if m < 0 || m > cfg.X {
			return nil, fmt.Errorf("consensus: message %d of station %d outside [0,%d]", m, i, cfg.X)
		}
	}
	d, connected := net.DiameterApprox()
	if !connected {
		return nil, errors.New("consensus: network not connected")
	}
	phys, err := sim.NewChannel(cfg.Channel, net)
	if err != nil {
		return nil, err
	}
	sched, err := cfg.Coloring.Schedule()
	if err != nil {
		return nil, err
	}
	p := &plan{
		cfg:      &cfg,
		sched:    sched,
		colorLen: sched.TotalRounds(),
		window:   sched.FloodWindow(cfg.WindowRounds, cfg.WindowFactor, d),
		bits:     cfg.Bits(),
	}
	root := rng.New(seed)
	stations := make([]*station, n)
	protos := make([]sim.Protocol, n)
	for i := 0; i < n; i++ {
		st := &station{
			p:       p,
			machine: coloring.NewMachine(sched, root.Split(uint64(i)).Split(1)),
			rnd:     root.Split(uint64(i)),
			msg:     msgs[i],
		}
		stations[i] = st
		protos[i] = st
	}
	eng, err := sim.NewEngine(phys, protos)
	if err != nil {
		return nil, err
	}
	total := p.colorLen + p.bits*p.window
	eng.Run(total, nil)

	res := &Result{
		Values:  make([]int64, n),
		Rounds:  total,
		Metrics: eng.Metrics,
	}
	min := msgs[0]
	for _, m := range msgs[1:] {
		if m < min {
			min = m
		}
	}
	res.Agreed = true
	for i, st := range stations {
		st.finalize()
		res.Values[i] = st.prefix
		if st.prefix != stations[0].prefix {
			res.Agreed = false
		}
	}
	res.Correct = res.Agreed && stations[0].prefix == min
	return res, nil
}
