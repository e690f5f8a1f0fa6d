package broadcast

import (
	"fmt"

	"sinrcast/internal/network"
	"sinrcast/internal/rng"
	"sinrcast/internal/sim"
	"sinrcast/internal/sinr"
)

// RunNoSMulti executes the NoSBroadcast machinery with per-station
// spontaneous activation times: station i activates at round wakeAt[i]
// (-1 = only by reception). This is the engine of the ad-hoc wake-up
// problem (§5): every spontaneously activated station behaves as a
// source, joining the phased protocol at its next phase boundary.
//
// Result.Rounds counts from round 0 of the global clock; the wake-up
// application converts it to "time since first spontaneous wake-up".
func RunNoSMulti(net *network.Network, cfg Config, seed uint64, wakeAt []int, payload int64) (*Result, error) {
	p, err := newPlan(&cfg)
	if err != nil {
		return nil, err
	}
	n := net.N()
	if len(wakeAt) != n {
		return nil, fmt.Errorf("broadcast: wakeAt has %d entries, network has %d", len(wakeAt), n)
	}
	if cfg.Coloring.N != n {
		return nil, fmt.Errorf("broadcast: config sized for %d stations, network has %d", cfg.Coloring.N, n)
	}
	anySource := false
	for i, w := range wakeAt {
		if w >= 0 {
			anySource = true
		}
		if w < -1 {
			return nil, fmt.Errorf("broadcast: wakeAt[%d] = %d invalid", i, w)
		}
	}
	if !anySource {
		return nil, fmt.Errorf("broadcast: no station wakes spontaneously")
	}
	phys, err := cfg.channel(net)
	if err != nil {
		return nil, err
	}
	root := rng.New(seed)
	stations := make([]*nosStation, n)
	protos := make([]sim.Protocol, n)
	for i := 0; i < n; i++ {
		st := newNOSStation(p, root.Split(uint64(i)), payload, false)
		st.wakeAt = wakeAt[i]
		if wakeAt[i] == 0 {
			st.informed = true
			st.informedAt = 0
		}
		stations[i] = st
		protos[i] = st
	}
	eng, err := sim.NewEngine(phys, protos)
	if err != nil {
		return nil, err
	}

	counted := make([]bool, n)
	remaining := 0
	for i, st := range stations {
		if st.informed {
			counted[i] = true
		} else {
			remaining++
		}
	}
	lastInform := 0
	markInformed := func(i, t int) {
		if !counted[i] {
			counted[i] = true
			remaining--
			if t+1 > lastInform {
				lastInform = t + 1
			}
		}
	}
	eng.SetTracer(sim.TracerFunc(func(t int, _ []int, rec []sinr.Reception) {
		for _, rc := range rec {
			if stations[rc.Receiver].informedAt == t {
				markInformed(rc.Receiver, t)
			}
		}
	}))
	budget := defaultBudget(cfg, net)
	maxWake := 0
	for _, w := range wakeAt {
		if w > maxWake {
			maxWake = w
		}
	}
	budget += maxWake
	// Spontaneous wake-ups are applied inside Tick at the station's
	// wakeAt round; index them by round so each Step inspects only the
	// stations due this round instead of scanning all n. (A station
	// informed by reception before its wakeAt is counted by the tracer;
	// its informedAt then predates its slot here and the check skips it.)
	wakers := make(map[int][]int)
	for i, w := range wakeAt {
		if w > 0 {
			wakers[w] = append(wakers[w], i)
		}
	}
	for eng.Metrics.Rounds < budget && remaining > 0 {
		t := eng.Round()
		eng.Step()
		if due, ok := wakers[t]; ok {
			for _, i := range due {
				if stations[i].informedAt == t {
					markInformed(i, t)
				}
			}
			delete(wakers, t)
		}
	}

	res := &Result{
		AllInformed: remaining == 0,
		InformTime:  make([]int, n),
		Metrics:     eng.Metrics,
	}
	if res.AllInformed {
		res.Rounds = lastInform
	} else {
		res.Rounds = eng.Metrics.Rounds
	}
	res.Phases = (res.Rounds + p.phaseLen - 1) / p.phaseLen
	for i, st := range stations {
		res.InformTime[i] = st.informedAt
	}
	return res, nil
}
