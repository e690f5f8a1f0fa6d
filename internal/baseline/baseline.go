// Package baseline implements the comparison broadcast algorithms of
// the paper's related-work landscape (§1.2), all running under the same
// SINR physical engine as the paper's algorithms:
//
//   - Decay: the classic radio-network Decay protocol (Bar-Yehuda et
//     al.) ported to SINR — informed stations sweep probabilities
//     2^-1..2^-L with L = Θ(log n). Geometry-oblivious.
//   - DaumStyle: the granularity-sensitive strategy of Daum et al. [5]:
//     the probability sweep must span Θ(log n + α·log Rs) levels because
//     without geometry knowledge the right contention scale may sit at
//     any of the Θ(log Rs) distance scales; runtime therefore grows
//     with log Rs — the dependence the paper's algorithms remove.
//   - DensityOracle: a genie-aided local-broadcast flood ([11]-style):
//     every informed station knows the number of informed stations
//     within distance 1 and transmits with probability ~1/density.
//   - GridTDMA: a GPS-style baseline ([14]): stations know their
//     positions, the plane is cut into cells scheduled in a fixed TDMA
//     pattern, and cell-mates coordinate perfectly. This is exactly the
//     knowledge the paper's algorithms do away with.
//
// Oracle knowledge is deliberate (DESIGN.md substitutions 3-4): these
// baselines bound what position/density knowledge buys.
//
// Every policy floods through RunFloodOn, a thin runner over sim.Engine:
// the same round loop, metrics and phase labels as the paper's
// algorithms.
package baseline

import (
	"errors"
	"fmt"
	"math"

	"sinrcast/internal/broadcast"
	"sinrcast/internal/network"
	"sinrcast/internal/rng"
	"sinrcast/internal/sim"
	"sinrcast/internal/sinr"
)

// Policy decides per-round transmission probabilities for a flooding
// protocol: every informed station consults its policy each round. A
// Policy value carries the oracle state of one run; use a fresh one per
// flood.
type Policy interface {
	// Name identifies the policy in experiment tables.
	Name() string
	// Inform is called once as station i becomes informed: for the
	// source before round 0, for every other station after the round it
	// first received in and before the next round's TxProb calls. Oracle
	// policies update their state here; distributed policies ignore it.
	Inform(i int)
	// TxProb returns the transmission probability of informed station i
	// in round t, given i was informed in round at.
	TxProb(i, t, at int) float64
}

// RunFlood floods a message from source under the given policy and
// returns a broadcast.Result. budget 0 derives a generous default from
// the network diameter and n. The physical layer is the exact SINR
// engine; RunFloodOn accepts an explicit one.
func RunFlood(net *network.Network, pol Policy, seed uint64, source, budget int) (*broadcast.Result, error) {
	return RunFloodOn(net, pol, seed, source, budget, nil)
}

// RunFloodOn is RunFlood with an explicit physical layer (nil selects
// the exact engine). The flood runs on sim.Engine, one floodStation per
// station. A flood's semantics make reception relevant only to
// uninformed stations — an informed station's reception changes
// nothing — so each station is dropped from reception resolution as it
// is informed (sim.Engine.SetReceiverActive): inform times, round counts
// and completion are identical to the full resolution, and late rounds
// stop paying O(n) for stations whose state is settled. On a subset
// resolver (sim.SubsetResolver) Metrics.Receptions therefore counts the
// receptions at uninformed stations only.
func RunFloodOn(net *network.Network, pol Policy, seed uint64, source, budget int, phys sim.Resolver) (*broadcast.Result, error) {
	n := net.N()
	if source < 0 || source >= n {
		return nil, fmt.Errorf("baseline: source %d out of range [0,%d)", source, n)
	}
	if budget < 0 {
		return nil, errors.New("baseline: negative budget")
	}
	if budget == 0 {
		budget = defaultBudget(net)
	}
	if phys == nil {
		eng, err := sinr.NewEngine(net.Space, net.Params)
		if err != nil {
			return nil, err
		}
		phys = eng
	} else if phys.N() != n {
		return nil, fmt.Errorf("baseline: engine has %d stations, network has %d", phys.N(), n)
	}
	root := rng.New(seed)
	stations := make([]floodStation, n)
	protos := make([]sim.Protocol, n)
	for i := range stations {
		stations[i] = floodStation{id: i, at: -1, pol: pol, rnd: root.Split(uint64(i))}
		protos[i] = &stations[i]
	}
	eng, err := sim.NewEngine(phys, protos)
	if err != nil {
		return nil, err
	}
	stations[source].inform(0)
	eng.SetReceiverActive(source, false)

	remaining := n - 1
	lastInform := 0
	// A station whose inform round is this round was informed by this
	// reception. The source's at == 0 cannot match: it is round 0's only
	// possible transmitter, so it hears nothing then.
	eng.SetTracer(sim.TracerFunc(func(t int, _ []int, rec []sinr.Reception) {
		for _, rc := range rec {
			if stations[rc.Receiver].at == t {
				remaining--
				lastInform = t + 1
				eng.SetReceiverActive(rc.Receiver, false)
			}
		}
	}))
	eng.Run(budget, func() bool { return remaining == 0 })

	res := &broadcast.Result{
		AllInformed: remaining == 0,
		InformTime:  make([]int, n),
		Metrics:     eng.Metrics,
	}
	if res.AllInformed {
		res.Rounds = lastInform
	} else {
		res.Rounds = eng.Metrics.Rounds
	}
	for i := range stations {
		res.InformTime[i] = stations[i].at
	}
	return res, nil
}

// defaultBudget is RunFlood's budget for budget 0: generous in the
// network diameter and n.
func defaultBudget(net *network.Network) int {
	d, _ := net.DiameterApprox()
	lg := math.Log2(float64(net.N())) + 1
	return int(float64(2*d+10) * lg * lg * 40)
}

// floodStation is one station of a flood: silent until informed, then
// transmitting each round with its policy's probability. It is a plain
// sim.Protocol, not a sim.Sleeper: informed stations draw every round,
// and an uninformed station's tick is a single comparison, cheaper than
// the calendar bookkeeping a sleep hint would cost.
type floodStation struct {
	id  int
	at  int // round the station was informed in, -1 while uninformed
	pol Policy
	rnd *rng.Source
}

var _ sim.Protocol = (*floodStation)(nil)

// Tick implements sim.Protocol.
func (s *floodStation) Tick(t int) (bool, sim.Message) {
	return s.at >= 0 && s.rnd.Bernoulli(s.pol.TxProb(s.id, t, s.at)), sim.Message{}
}

// Recv implements sim.Protocol: the first reception informs.
func (s *floodStation) Recv(t int, _ sim.Message) {
	if s.at < 0 {
		s.inform(t)
	}
}

func (s *floodStation) inform(t int) {
	s.at = t
	s.pol.Inform(s.id)
}

// sweep is the Decay-family schedule shared by Decay and DaumStyle: in
// the k-th round since being informed, transmit with probability
// 2^-(1 + k mod L). Distributed, so Inform is a no-op.
type sweep struct {
	L int
}

// Inform implements Policy (no oracle state).
func (sweep) Inform(int) {}

// TxProb implements Policy.
func (s sweep) TxProb(_, t, at int) float64 {
	return math.Ldexp(1, -(1 + (t-at)%s.L))
}

// Decay is the classic probability-sweep policy with L = ceil(log2 n) + 1.
type Decay struct {
	sweep
}

var _ Policy = (*Decay)(nil)

// NewDecay sizes the sweep for n stations.
func NewDecay(n int) *Decay {
	l := int(math.Ceil(math.Log2(float64(n)))) + 1
	if l < 2 {
		l = 2
	}
	return &Decay{sweep{L: l}}
}

// Name implements Policy.
func (d *Decay) Name() string { return "decay" }

// DaumStyle sweeps Θ(log n + α·log Rs) probability levels, modelling the
// granularity dependence of [5]: with no geometry knowledge the sweep
// must cover every distance scale of the network.
type DaumStyle struct {
	sweep
}

var _ Policy = (*DaumStyle)(nil)

// NewDaumStyle sizes the sweep from the network's measured granularity
// Rs and path-loss α: L = ceil(log2 n) + ceil(α·log2 Rs) + 1.
func NewDaumStyle(net *network.Network) *DaumStyle {
	n := float64(net.N())
	rs := net.Granularity()
	if rs < 2 {
		rs = 2
	}
	l := int(math.Ceil(math.Log2(n))) + int(math.Ceil(net.Params.Alpha*math.Log2(rs))) + 1
	return &DaumStyle{sweep{L: l}}
}

// Name implements Policy.
func (d *DaumStyle) Name() string { return "daum-style" }

// DensityOracle transmits with probability c/(number of informed
// stations within distance 1) — an idealized local-broadcast flood with
// perfect density knowledge. The counts are kept incrementally: each
// station's unit ball is computed once at construction, and Inform
// bumps the counts around the newly informed station, so a flood costs
// O(n·ball) in total rather than O(n²) per round.
type DensityOracle struct {
	C    float64
	ball [][]int32 // ball[j]: stations i ≠ j with Dist(i, j) <= 1
	dens []int     // informed stations within distance 1, self included
}

var _ Policy = (*DensityOracle)(nil)

// NewDensityOracle builds the oracle policy; c is the aggressiveness
// constant (0 picks 0.5).
func NewDensityOracle(net *network.Network, c float64) *DensityOracle {
	if c <= 0 {
		c = 0.5
	}
	return &DensityOracle{C: c, ball: net.Balls(1), dens: make([]int, net.N())}
}

// Name implements Policy.
func (o *DensityOracle) Name() string { return "density-oracle" }

// Inform implements Policy: station j now counts towards its own
// density and that of every station in its unit ball.
func (o *DensityOracle) Inform(j int) {
	o.dens[j]++
	for _, i := range o.ball[j] {
		o.dens[i]++
	}
}

// TxProb implements Policy.
func (o *DensityOracle) TxProb(i, _, _ int) float64 {
	p := o.C / float64(max(o.dens[i], 1))
	if p > 1 {
		return 1
	}
	return p
}

// GridTDMA is the GPS baseline: the plane is cut into square cells of
// side (1-ε)/√8 so that same-slot transmitters across the schedule
// period are far apart; cells are scheduled round-robin with period K²
// (K chosen so simultaneously scheduled cells are ≥ 2 apart), and
// within a cell exactly one informed station (the lowest-indexed,
// standing in for perfect local coordination) transmits.
type GridTDMA struct {
	cell   []int32 // dense cell index per station
	slot   []int   // schedule slot per station (shared by its cell)
	period int
	// leader[c] is the lowest informed station of cell c, or -1.
	leader []int32
}

var _ Policy = (*GridTDMA)(nil)

// NewGridTDMA builds the TDMA baseline for a Euclidean network.
func NewGridTDMA(net *network.Network) (*GridTDMA, error) {
	side := net.Params.CommRadius() / math.Sqrt(8)
	// K·side >= 2 + comm radius keeps co-slot interferers far away.
	k := int(math.Ceil((2 + net.Params.CommRadius()) / side))
	g := &GridTDMA{
		cell:   make([]int32, net.N()),
		slot:   make([]int, net.N()),
		period: k * k,
	}
	index := make(map[[2]int64]int32)
	for i := 0; i < net.N(); i++ {
		p := net.Space.Position(i)
		cx := int64(math.Floor(p.X / side))
		cy := int64(math.Floor(p.Y / side))
		c, ok := index[[2]int64{cx, cy}]
		if !ok {
			c = int32(len(index))
			index[[2]int64{cx, cy}] = c
			g.leader = append(g.leader, -1)
		}
		g.cell[i] = c
		sx := int(((cx % int64(k)) + int64(k)) % int64(k))
		sy := int(((cy % int64(k)) + int64(k)) % int64(k))
		g.slot[i] = sx*k + sy
	}
	return g, nil
}

// Name implements Policy.
func (g *GridTDMA) Name() string { return "grid-tdma" }

// Period returns the TDMA schedule period (number of slots).
func (g *GridTDMA) Period() int { return g.period }

// Inform implements Policy: keep each cell's leader the lowest informed
// station in it. A cell's stations share its slot, so this is the
// leader of every round the cell is due.
func (g *GridTDMA) Inform(i int) {
	if l := &g.leader[g.cell[i]]; *l < 0 || int32(i) < *l {
		*l = int32(i)
	}
}

// TxProb implements Policy: in its cell's slot the leader transmits
// with certainty; everyone else is silent.
func (g *GridTDMA) TxProb(i, t, _ int) float64 {
	if g.slot[i] == t%g.period && int(g.leader[g.cell[i]]) == i {
		return 1
	}
	return 0
}
