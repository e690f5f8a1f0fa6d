package broadcast

import (
	"fmt"
	"slices"

	"sinrcast/internal/network"
	"sinrcast/internal/rng"
	"sinrcast/internal/sim"
)

// RunNoSMulti executes the NoSBroadcast machinery with per-station
// spontaneous activation times: station i activates at round wakeAt[i]
// (-1 = only by reception). This is the engine of the ad-hoc wake-up
// problem (§5): every spontaneously activated station behaves as a
// source, joining the phased protocol at its next phase boundary.
// Stations with wakeAt 0 hold the message at setup; RunNoS is the case
// of exactly one of them. The budget is Budget plus the latest wake-up
// round.
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
	for i, w := range wakeAt {
		if w < -1 {
			return nil, fmt.Errorf("broadcast: wakeAt[%d] = %d invalid", i, w)
		}
	}
	if n == 0 || slices.Max(wakeAt) < 0 {
		return nil, fmt.Errorf("broadcast: no station wakes spontaneously")
	}
	phys, err := sim.NewChannel(cfg.Channel, net)
	if err != nil {
		return nil, err
	}
	p.informs = NewInforms(n, nil)
	root := rng.New(seed)
	protos := make([]sim.Protocol, n)
	for i := range protos {
		st := newNOSStation(p, i, root.Split(uint64(i)), payload)
		st.wakeAt = wakeAt[i]
		if wakeAt[i] == 0 {
			st.informed = true
			p.informs.Start(i)
		}
		protos[i] = st
	}
	eng, err := sim.NewEngine(phys, protos)
	if err != nil {
		return nil, err
	}
	eng.Run(defaultBudget(cfg, net)+slices.Max(wakeAt), p.informs.Done)

	res := p.informs.Result(eng.Metrics)
	res.Phases = (res.Rounds + p.phaseLen - 1) / p.phaseLen
	return res, nil
}
