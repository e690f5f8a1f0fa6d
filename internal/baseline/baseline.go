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
// algorithms. The sweep policies (Decay, DaumStyle) let their informed
// stations sleep to their next transmission, drawn ahead through one
// shared rng.Sweep; the oracle policies, and any other Policy, draw
// Bernoulli(TxProb) on every round.
package baseline

import (
	"errors"
	"fmt"
	"math"

	"sinrcast/internal/broadcast"
	"sinrcast/internal/network"
	"sinrcast/internal/rng"
	"sinrcast/internal/sim"
)

// Policy decides per-round transmission probabilities for a flooding
// protocol: every informed station transmits in round t with
// probability TxProb. A Policy value carries the oracle state of one
// run; use a fresh one per flood.
//
// RunFloodOn asks TxProb once per informed station and round, except
// for the package's sweep policies (Decay, DaumStyle): their
// probability is a fixed cycle over the rounds since a station was
// informed, so their stations draw the same trials ahead and sleep
// between transmissions.
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
		var err error
		if phys, err = sim.NewChannel(nil, net); err != nil {
			return nil, err
		}
	} else if phys.N() != n {
		return nil, fmt.Errorf("baseline: engine has %d stations, network has %d", phys.N(), n)
	}
	run := &flood{pol: pol, end: budget}
	if sw, ok := pol.(sweeper); ok {
		run.sweep = sw.sweepTable()
	}
	root := rng.New(seed)
	stations := make([]floodStation, n)
	protos := make([]sim.Protocol, n)
	for i := range stations {
		stations[i] = floodStation{id: i, at: -1, run: run, rnd: root.Split(uint64(i))}
		protos[i] = &stations[i]
	}
	eng, err := sim.NewEngine(phys, protos)
	if err != nil {
		return nil, err
	}
	run.informs = broadcast.NewInforms(n, eng)
	// The source draws from round 0; every station is due then anyway.
	stations[source].inform(0, 0)
	run.informs.Start(source)
	eng.SetReceiverActive(source, false)
	eng.Run(budget, run.informs.Done)
	return run.informs.Result(eng.Metrics), nil
}

// defaultBudget is RunFlood's budget for budget 0: generous in the
// network diameter and n.
func defaultBudget(net *network.Network) int {
	d, _ := net.DiameterApprox()
	lg := math.Log2(float64(net.N())) + 1
	return int(float64(2*d+10) * lg * lg * 40)
}

// flood is the state every station of one run shares: the policy, its
// inform ledger and, for a sweep policy, its threshold table and the
// run's round budget, where every station's draw-ahead stops.
type flood struct {
	pol     Policy
	informs *broadcast.Informs
	sweep   *rng.Sweep // nil: draw Bernoulli(TxProb) every round
	end     int
}

// floodStation is one station of a flood: silent until informed, then
// transmitting each round with its policy's probability. An uninformed
// station sleeps until a reception (NeverWake). An informed station of
// a sweep policy draws ahead to its next transmission round (next) and
// sleeps until then; under any other policy it draws every round, so
// it asks for the next round and rides the engine's next-round lane.
// Receptions change nothing once informed (Recv keeps the hint). The
// run's shared state sits behind one pointer, so a station is 40 bytes.
type floodStation struct {
	id   int
	at   int // round the station was informed in, -1 while uninformed
	next int // sweep policies: next transmission round, or run.end
	run  *flood
	rnd  *rng.Source
}

var _ sim.Protocol = (*floodStation)(nil)

// Tick implements sim.Protocol.
func (s *floodStation) Tick(t int) (bool, sim.Message, int) {
	switch {
	case s.at < 0:
		return false, sim.Message{}, sim.NeverWake
	case s.run.sweep == nil:
		return s.rnd.Bernoulli(s.run.pol.TxProb(s.id, t, s.at)), sim.Message{}, t + 1
	case t < s.next:
		// Ticked early (the engine clamps far hints): re-announce.
		return false, sim.Message{}, s.next
	}
	s.drawFrom(t + 1)
	return true, sim.Message{}, s.next
}

// Recv implements sim.Protocol: the first reception informs, and the
// station draws from the next round on; its inform Mark drops it from
// reception resolution.
func (s *floodStation) Recv(t int, _ sim.Message) int {
	if s.at >= 0 {
		return sim.NeverWake
	}
	s.run.informs.Mark(s.id, t)
	return s.inform(t, t+1)
}

// inform marks the station informed in round t, with its first draw in
// round from, and returns the round it next needs a tick.
func (s *floodStation) inform(t, from int) int {
	s.at = t
	s.run.pol.Inform(s.id)
	if s.run.sweep == nil {
		return from
	}
	s.drawFrom(from)
	return s.next
}

// drawFrom sets next to the station's first successful round from u on,
// drawing exactly the per-round Bernoulli(TxProb) trials of rounds u,
// …, next.
func (s *floodStation) drawFrom(u int) {
	s.next = s.run.sweep.Next(s.rnd, u, u-s.at, s.run.end)
}

// sweeper is the optional, unexported Policy capability behind sleeping
// flood stations: a policy whose TxProb(i, t, at) depends only on
// t-at, cyclically, returns one cycle of it as a shared rng.Sweep.
type sweeper interface {
	sweepTable() *rng.Sweep
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

// sweepTable implements sweeper: one cycle of TxProb.
func (s sweep) sweepTable() *rng.Sweep {
	p := make([]float64, s.L)
	for k := range p {
		p[k] = s.TxProb(0, k, 0)
	}
	return rng.NewSweep(p)
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
