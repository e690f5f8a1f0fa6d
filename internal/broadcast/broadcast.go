// Package broadcast implements the paper's two broadcast algorithms
// (§4): NoSBroadcast for the non-spontaneous wake-up model (Theorem 1,
// O(D·log² n) rounds) and SBroadcast for the spontaneous model
// (Theorem 2, O(D·log n + log² n) rounds). Both build on the coloring of
// §3: colors double as transmission probabilities in the dissemination
// part, scaled by Θ(cε / log n) exactly as in Fact 11.
package broadcast

import (
	"errors"
	"fmt"
	"math"

	"sinrcast/internal/coloring"
	"sinrcast/internal/network"
	"sinrcast/internal/sim"
)

// Message kinds used by the broadcast protocols. Every message — also
// the coloring-phase ones — carries the source payload, so any
// successful reception informs the receiver (§4.1: a node participates
// in a phase if it knows the message at the phase start).
const (
	// KindColoring tags StabilizeProbability traffic.
	KindColoring uint8 = 1
	// KindData tags dissemination traffic.
	KindData uint8 = 2
)

// Config parametrizes both broadcast algorithms.
type Config struct {
	// Coloring is the StabilizeProbability schedule (§3).
	Coloring coloring.Params
	// TxRounds sizes the dissemination part: NoSBroadcast part 2 lasts
	// ceil(TxRounds·lg² n) rounds per phase.
	TxRounds float64
	// CProb is the dissemination probability divisor: an informed
	// station of color p transmits with probability
	// min(MaxTxProb, p·cε/(CProb·lg n)) per round (Fact 11's schedule).
	CProb float64
	// MaxTxProb caps per-round transmission probability.
	MaxTxProb float64
	// MaxRounds bounds the simulation; 0 picks a generous default from
	// the network diameter.
	MaxRounds int
	// Channel optionally overrides the physical layer (e.g. a fading or
	// weak-device engine for model-robustness experiments); every runner
	// builds it through sim.NewChannel, so nil is the exact SINR engine,
	// the paper's model.
	Channel func(net *network.Network) (sim.Resolver, error)
}

// DefaultConfig returns a calibrated configuration for a network of n
// stations in a metric of growth degree gamma with connectivity eps.
func DefaultConfig(n int, gamma, eps float64) Config {
	return Config{
		Coloring:  coloring.DefaultParams(n, gamma, eps),
		TxRounds:  2,
		CProb:     6,
		MaxTxProb: 0.9,
	}
}

// Validate reports configuration errors.
func (c Config) Validate() error {
	var errs []error
	if err := c.Coloring.Validate(); err != nil {
		errs = append(errs, err)
	}
	if c.TxRounds <= 0 {
		errs = append(errs, fmt.Errorf("broadcast: TxRounds %v must be > 0", c.TxRounds))
	}
	if c.CProb <= 0 {
		errs = append(errs, fmt.Errorf("broadcast: CProb %v must be > 0", c.CProb))
	}
	if c.MaxTxProb <= 0 || c.MaxTxProb > 1 {
		errs = append(errs, fmt.Errorf("broadcast: MaxTxProb %v must be in (0,1]", c.MaxTxProb))
	}
	if c.MaxRounds < 0 {
		errs = append(errs, fmt.Errorf("broadcast: MaxRounds %v must be >= 0", c.MaxRounds))
	}
	return errors.Join(errs...)
}

// TxLen returns the dissemination-part length in rounds: Θ(log² n).
func (c Config) TxLen() int {
	lg := c.Coloring.Lg()
	return int(math.Ceil(c.TxRounds * lg * lg))
}

// PhaseLen returns the NoSBroadcast phase length: coloring + part 2.
func (c Config) PhaseLen() int { return c.Coloring.TotalRounds() + c.TxLen() }

// plan is the per-run constant part of a broadcast execution, derived
// once from a validated Config and shared by every station of the run.
type plan struct {
	cfg      *Config
	sched    *coloring.Schedule
	colorLen int // sched.TotalRounds(): the coloring part
	phaseLen int // cfg.PhaseLen(): one NoSBroadcast phase
	informs  *Informs
}

// newPlan validates cfg and derives its run plan.
func newPlan(cfg *Config) (*plan, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	sched, err := cfg.Coloring.Schedule()
	if err != nil {
		return nil, err
	}
	return &plan{
		cfg:      cfg,
		sched:    sched,
		colorLen: sched.TotalRounds(),
		phaseLen: cfg.PhaseLen(),
	}, nil
}

// txProb converts a color into the dissemination transmission
// probability of Fact 11: p·cε/(CProb·lg n), capped at MaxTxProb.
func (p *plan) txProb(color float64) float64 {
	return p.sched.FloodProb(color, p.cfg.CProb, p.cfg.MaxTxProb)
}

// Result reports a broadcast execution.
type Result struct {
	// Rounds is the round count until the last station was informed
	// (or the budget if not all were informed).
	Rounds int
	// AllInformed reports whether every station got the message.
	AllInformed bool
	// InformTime[i] is the round in which station i first knew the
	// message (0 for the source), or -1 if never.
	InformTime []int
	// Phases is the number of NoSBroadcast phases that ran (0 for
	// algorithms without phases).
	Phases int
	// Metrics are the simulation counters for the whole run.
	Metrics sim.Metrics
}

// Budget returns the round budget RunNoS and RunS will simulate at
// most (RunNoSMulti adds its latest wake-up round): cfg.MaxRounds when
// set, else the generous diameter-derived default. Exposed so callers (the protocol registry,
// tests) can scale or bound the budget without re-deriving it.
func Budget(cfg Config, net *network.Network) int { return defaultBudget(cfg, net) }

// defaultBudget returns a generous round budget when cfg.MaxRounds is 0:
// proportional to the (approximate) diameter plus slack phases.
func defaultBudget(cfg Config, net *network.Network) int {
	if cfg.MaxRounds > 0 {
		return cfg.MaxRounds
	}
	d, _ := net.DiameterApprox()
	return cfg.PhaseLen() * (2*d + 10)
}

// Informs is the inform ledger of one broadcast run, shared by its
// stations: which station first knew the message in which round. It
// decides when the run is done and what its Result reports. Stations
// informed at setup are registered with Start; every other station
// reports its own inform transition exactly once, through Mark — from
// Recv on a reception, from Tick on a spontaneous wake-up — so no
// reception is ever mistaken for one.
type Informs struct {
	at        []int // inform round per station, -1 while uninformed
	remaining int   // stations not yet informed
	last      int   // one past the latest Mark round
	// drop, when non-nil, is the engine whose reception resolution
	// Mark drops each newly informed station from.
	drop *sim.Engine
}

// NewInforms returns the ledger of an n-station run in which no
// station is informed yet. A non-nil drop is the run's engine, for
// protocols whose informed stations ignore receptions (SBroadcast past
// the coloring, the floods): Mark then deactivates the station there
// (sim.Engine.SetReceiverActive), which skips physical work whose
// outcome cannot matter.
func NewInforms(n int, drop *sim.Engine) *Informs {
	at := make([]int, n)
	for i := range at {
		at[i] = -1
	}
	return &Informs{at: at, remaining: n, drop: drop}
}

// Start records station i as holding the message at setup (round 0).
func (in *Informs) Start(i int) {
	in.at[i] = 0
	in.remaining--
}

// Mark records that station i was first informed in round t.
func (in *Informs) Mark(i, t int) {
	if in.at[i] >= 0 {
		panic(fmt.Sprintf("broadcast: station %d informed twice", i))
	}
	in.at[i] = t
	in.remaining--
	in.last = t + 1
	if in.drop != nil {
		in.drop.SetReceiverActive(i, false)
	}
}

// Done reports whether every station is informed: the run's stop
// condition for sim.Engine.Run.
func (in *Informs) Done() bool { return in.remaining == 0 }

// Result assembles the run's Result from its final Metrics: Rounds is
// one past the last inform round when every station is informed, else
// every simulated round. It hands the ledger's inform rounds over, so
// call it once, after the run.
func (in *Informs) Result(m sim.Metrics) *Result {
	res := &Result{AllInformed: in.Done(), InformTime: in.at, Metrics: m, Rounds: m.Rounds}
	if res.AllInformed {
		res.Rounds = in.last
	}
	return res
}
