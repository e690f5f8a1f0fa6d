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
// protocol: every informed station consults its policy each round.
type Policy interface {
	// Name identifies the policy in experiment tables.
	Name() string
	// Prepare is called once per round, before TxProb, with the current
	// informed flags. Oracle policies update their state here (the
	// density oracle incrementally, from the flags that changed since
	// the previous call; any informed set is accepted); distributed
	// policies ignore it.
	Prepare(t int, informed []bool)
	// TxProb returns the transmission probability of station i in round
	// t, given i was informed in round at.
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
// the exact engine). A flood's semantics make reception relevant only
// to uninformed stations — an informed station's reception changes
// nothing — so when the engine supports subset resolution
// (sim.SubsetResolver) each round resolves only the uninformed
// receivers: inform times, round counts and completion are identical to
// the full resolution, and late rounds stop paying O(n) for stations
// whose state is settled. (Metrics.Receptions counts the receptions
// actually resolved, i.e. those at uninformed stations.)
func RunFloodOn(net *network.Network, pol Policy, seed uint64, source, budget int, phys sim.Resolver) (*broadcast.Result, error) {
	n := net.N()
	if source < 0 || source >= n {
		return nil, fmt.Errorf("baseline: source %d out of range [0,%d)", source, n)
	}
	if budget < 0 {
		return nil, errors.New("baseline: negative budget")
	}
	if budget == 0 {
		d, _ := net.DiameterApprox()
		lg := math.Log2(float64(n)) + 1
		budget = int(float64(2*d+10) * lg * lg * 40)
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
	subset, _ := phys.(sim.SubsetResolver)
	root := rng.New(seed)
	rnds := make([]*rng.Source, n)
	for i := range rnds {
		rnds[i] = root.Split(uint64(i))
	}
	informed := make([]bool, n)
	informedAt := make([]int, n)
	for i := range informedAt {
		informedAt[i] = -1
	}
	informed[source] = true
	informedAt[source] = 0

	res := &broadcast.Result{InformTime: informedAt}
	count := 1
	tx := make([]int, 0, n)
	// infList is the ascending list of informed stations: only they draw
	// and transmit, so the per-round tick cost is O(informed), not O(n).
	// The reference loop scanned all n and short-circuited on the
	// informed flag; iterating the list makes the identical TxProb and
	// Bernoulli calls in the identical (ascending) order.
	infList := make([]int, 1, n)
	infList[0] = source
	var newInf []int
	var listeners []int
	listenersStale := true
	lastInform := 0
	var metrics sim.Metrics
	for t := 0; t < budget && count < n; t++ {
		pol.Prepare(t, informed)
		tx = tx[:0]
		for _, i := range infList {
			if rnds[i].Bernoulli(pol.TxProb(i, t, informedAt[i])) {
				tx = append(tx, i)
			}
		}
		var rec []sinr.Reception
		if subset != nil {
			if listenersStale {
				listeners = listeners[:0]
				for i := 0; i < n; i++ {
					if !informed[i] {
						listeners = append(listeners, i)
					}
				}
				listenersStale = false
			}
			rec = subset.ResolveFor(tx, listeners)
		} else {
			rec = phys.Resolve(tx)
		}
		newInf = newInf[:0]
		for _, rc := range rec {
			if !informed[rc.Receiver] {
				informed[rc.Receiver] = true
				informedAt[rc.Receiver] = t
				newInf = append(newInf, rc.Receiver)
				count++
				lastInform = t + 1
				listenersStale = true
			}
		}
		if len(newInf) > 0 {
			// Receptions arrive in ascending receiver order; merge them
			// into the (ascending, disjoint) informed list from the back.
			oldLen := len(infList)
			infList = infList[:oldLen+len(newInf)]
			oi, ni := oldLen-1, len(newInf)-1
			for k := len(infList) - 1; ni >= 0; k-- {
				if oi >= 0 && infList[oi] > newInf[ni] {
					infList[k] = infList[oi]
					oi--
				} else {
					infList[k] = newInf[ni]
					ni--
				}
			}
		}
		metrics.Rounds++
		metrics.Transmissions += int64(len(tx))
		metrics.Receptions += int64(len(rec))
		if len(tx) > 0 {
			metrics.BusyRounds++
		}
	}
	res.AllInformed = count == n
	res.Metrics = metrics
	if res.AllInformed {
		res.Rounds = lastInform
	} else {
		res.Rounds = metrics.Rounds
	}
	return res, nil
}

// Decay is the classic probability-sweep policy: in the k-th round since
// being informed, transmit with probability 2^-(1 + k mod L) where
// L = ceil(log2 n) + 1.
type Decay struct {
	L int
}

var _ Policy = (*Decay)(nil)

// NewDecay sizes the sweep for n stations.
func NewDecay(n int) *Decay {
	l := int(math.Ceil(math.Log2(float64(n)))) + 1
	if l < 2 {
		l = 2
	}
	return &Decay{L: l}
}

// Name implements Policy.
func (d *Decay) Name() string { return "decay" }

// Prepare implements Policy (no oracle state).
func (d *Decay) Prepare(int, []bool) {}

// TxProb implements Policy.
func (d *Decay) TxProb(_, t, at int) float64 {
	k := (t - at) % d.L
	return math.Pow(2, -float64(1+k))
}

// DaumStyle sweeps Θ(log n + α·log Rs) probability levels, modelling the
// granularity dependence of [5]: with no geometry knowledge the sweep
// must cover every distance scale of the network.
type DaumStyle struct {
	L int
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
	return &DaumStyle{L: l}
}

// Name implements Policy.
func (d *DaumStyle) Name() string { return "daum-style" }

// Prepare implements Policy (no oracle state).
func (d *DaumStyle) Prepare(int, []bool) {}

// TxProb implements Policy.
func (d *DaumStyle) TxProb(_, t, at int) float64 {
	k := (t - at) % d.L
	return math.Pow(2, -float64(1+k))
}

// DensityOracle transmits with probability c/(number of informed
// stations within distance 1) — an idealized local-broadcast flood with
// perfect density knowledge. The counts are kept incrementally: each
// station's unit ball is computed once at construction, and Prepare
// moves only the counts around stations whose informed flag changed
// since the previous call, so a round costs O(n + changes·ball) rather
// than O(n²).
type DensityOracle struct {
	C    float64
	ball [][]int32 // ball[j]: stations i ≠ j with Dist(i, j) <= 1
	seen []bool    // informed flags as of the last Prepare
	dens []int     // informed stations within distance 1, self included
}

var _ Policy = (*DensityOracle)(nil)

// NewDensityOracle builds the oracle policy; c is the aggressiveness
// constant (0 picks 0.5).
func NewDensityOracle(net *network.Network, c float64) *DensityOracle {
	if c <= 0 {
		c = 0.5
	}
	n := net.N()
	return &DensityOracle{C: c, ball: net.Balls(1), seen: make([]bool, n), dens: make([]int, n)}
}

// Name implements Policy.
func (o *DensityOracle) Name() string { return "density-oracle" }

// Prepare implements Policy: diff informed against the flags of the
// previous call and move the unit-ball counts of every station whose
// flag flipped. Any informed set is accepted — it may grow, shrink or
// change arbitrarily between calls — and the counts always equal a
// full recount.
func (o *DensityOracle) Prepare(_ int, informed []bool) {
	for j, inf := range informed {
		if inf == o.seen[j] {
			continue
		}
		o.seen[j] = inf
		d := 1
		if !inf {
			d = -1
		}
		o.dens[j] += d
		for _, i := range o.ball[j] {
			o.dens[i] += d
		}
	}
}

// TxProb implements Policy. Only informed stations have a density;
// an uninformed one reads as 0, exactly as a recount leaves it.
func (o *DensityOracle) TxProb(i, _, _ int) float64 {
	d := 0
	if o.seen[i] {
		d = o.dens[i]
	}
	if d < 1 {
		d = 1
	}
	p := o.C / float64(d)
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
	net    *network.Network
	cell   []int64 // packed cell coordinates per station
	slot   []int   // schedule slot per station
	period int
	// leader[s] is the designated transmitter of station s's cell in
	// the current round, or -1.
	leader map[int64]int32
}

var _ Policy = (*GridTDMA)(nil)

// NewGridTDMA builds the TDMA baseline for a Euclidean network.
func NewGridTDMA(net *network.Network) (*GridTDMA, error) {
	side := net.Params.CommRadius() / math.Sqrt(8)
	// K·side >= 2 + comm radius keeps co-slot interferers far away.
	k := int(math.Ceil((2 + net.Params.CommRadius()) / side))
	g := &GridTDMA{
		net:    net,
		cell:   make([]int64, net.N()),
		slot:   make([]int, net.N()),
		period: k * k,
		leader: make(map[int64]int32),
	}
	for i := 0; i < net.N(); i++ {
		p := net.Space.Position(i)
		cx := int64(math.Floor(p.X / side))
		cy := int64(math.Floor(p.Y / side))
		g.cell[i] = cx<<32 | (cy & 0xffffffff)
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

// Prepare implements Policy: elect the informed leader of every cell
// whose slot is due this round.
func (g *GridTDMA) Prepare(t int, informed []bool) {
	clear(g.leader)
	due := t % g.period
	for i := 0; i < g.net.N(); i++ {
		if !informed[i] || g.slot[i] != due {
			continue
		}
		if _, ok := g.leader[g.cell[i]]; !ok {
			g.leader[g.cell[i]] = int32(i)
		}
	}
}

// TxProb implements Policy: the elected leader transmits with
// certainty; everyone else is silent.
func (g *GridTDMA) TxProb(i, t, _ int) float64 {
	if due := t % g.period; g.slot[i] != due {
		return 0
	}
	if l, ok := g.leader[g.cell[i]]; ok && int(l) == i {
		return 1
	}
	return 0
}
