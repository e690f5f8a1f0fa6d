package main

import (
	"fmt"
	"math"
	"time"

	"sinrcast/internal/broadcast"
	"sinrcast/internal/geom"
	"sinrcast/internal/network"
	"sinrcast/internal/protocol"
	"sinrcast/internal/scenario"
	"sinrcast/internal/sim"
	"sinrcast/internal/sinr"
)

// bcastInput is one generated and built instance of a case.
type bcastInput struct {
	net      *network.Network
	proto    sim.Resolver // never run; every RunOn gets a clone
	spec     protocol.Spec
	seed     uint64
	genTime  time.Duration
	buildDur time.Duration
}

// counts are the exact outputs of one broadcast; they must repeat for
// a repeated seed.
type counts struct {
	rounds, executed int
	tx, rx           int64
	all              bool
}

func countsOf(res *broadcast.Result) counts {
	return counts{res.Rounds, res.Metrics.Rounds, res.Metrics.Transmissions, res.Metrics.Receptions, res.AllInformed}
}

// setupCase generates and builds instance k of case c. The protocol
// starts at the station nearest the deployment's centroid, so the
// broadcast distance, and with it the work, varies little between
// seeds.
func setupCase(seed uint64, k, c int) (bcastInput, error) {
	bc := bcastCases[c]
	deploy, protoSeed := bcastSeeds(seed, k, c)
	sp, err := scenario.Parse(bc.Scenario)
	if err != nil {
		return bcastInput{}, err
	}
	t0 := time.Now()
	net, err := scenario.Generate(sp, sinr.DefaultParams(), deploy)
	if err != nil {
		return bcastInput{}, fmt.Errorf("%s: %w", bc.Name, err)
	}
	t1 := time.Now()
	eng, err := sinr.NewNamedEngine(bc.Engine, net.Space, net.Params)
	if err != nil {
		return bcastInput{}, fmt.Errorf("%s: %w", bc.Name, err)
	}
	t2 := time.Now()
	ps, err := protocol.Parse(fmt.Sprintf("%s:source=%d", bc.Protocol, centralStation(net)))
	if err != nil {
		return bcastInput{}, err
	}
	return bcastInput{net, eng, ps, protoSeed, t1.Sub(t0), t2.Sub(t1)}, nil
}

// centralStation is the station nearest the centroid of a Euclidean
// deployment (station 0 otherwise).
func centralStation(net *network.Network) int {
	eu, ok := net.Space.(*geom.Euclidean)
	if !ok || len(eu.Pts) == 0 {
		return 0
	}
	var cx, cy float64
	for _, p := range eu.Pts {
		cx += p.X
		cy += p.Y
	}
	cx /= float64(len(eu.Pts))
	cy /= float64(len(eu.Pts))
	best, bd := 0, math.Inf(1)
	for i, p := range eu.Pts {
		if d := math.Hypot(p.X-cx, p.Y-cy); d < bd {
			best, bd = i, d
		}
	}
	return best
}

// runBcast runs one instance on a clone of its engine, timing the
// resolver when st is non-nil.
func runBcast(in bcastInput, st *resolveStats) (*broadcast.Result, time.Duration, error) {
	ch := func(*network.Network) (sim.Resolver, error) {
		eng, ok := sinr.CloneResolver(in.proto)
		if !ok {
			return nil, fmt.Errorf("engine %T cannot be cloned", in.proto)
		}
		if st != nil {
			return timeResolver(eng, st), nil
		}
		return eng, nil
	}
	t0 := time.Now()
	res, err := protocol.RunOn(in.net, in.spec, in.seed, ch)
	return res, time.Since(t0), err
}

// caseTrace accumulates one case over the instances of a traced phase.
type caseTrace struct {
	run, resolve time.Duration
	executed     int64
	genS, buildS []float64
}

// runBcastSolo gives each case an equal share of a phase's time and
// runs fresh instances of it until the share is spent. Decay's round
// count is heavy-tailed across deployments (one flood in a few dozen
// runs takes tens of times the median); with a share per case such a
// flood costs its own case samples, not the others', and the per-case
// median keeps it from setting the figure.
func runBcastSolo(seed uint64, _ string, phases []*phase) ([]*outcome, float64, error) {
	setupMs := make([][]float64, len(bcastCases))
	first := make([]counts, len(bcastCases))
	next := make([]int, len(bcastCases)) // instance index per case
	var outs []*outcome
	for _, ph := range phases {
		o := &outcome{e2e: map[string]float64{}, layers: map[string]float64{}}
		outs = append(outs, o)
		caseMs := make([][]float64, len(bcastCases))
		traces := make([]caseTrace, len(bcastCases))
		var runTotal time.Duration
		var rounds int64
		share := ph.budget / time.Duration(len(bcastCases))
		for c, bc := range bcastCases {
			deadline := time.Now().Add(share)
			for once := true; once || time.Now().Before(deadline); once = false {
				k := next[c]
				next[c]++
				ts := time.Now()
				in, err := setupCase(seed, k, c)
				if err != nil {
					return nil, 0, err
				}
				te := time.Now()
				setupMs[c] = append(setupMs[c], ms(te.Sub(ts)))
				var st *resolveStats
				if ph.tr != nil {
					st = &resolveStats{}
				}
				res, d, err := runBcast(in, st)
				if err != nil {
					return nil, 0, fmt.Errorf("%s instance %d: %w", bc.Name, k, err)
				}
				cn := countsOf(res)
				o.attempted++
				if !cn.all {
					o.incomplete++
				}
				if k == 0 {
					first[c] = cn
				}
				caseMs[c] = append(caseMs[c], ms(d))
				runTotal += d
				rounds += int64(cn.executed)
				if ph.tr != nil {
					root := ph.tr.add(-1, "bcast.instance", bc.Name, ts, te.Add(d))
					ph.tr.add(root, "scenario.Generate", bc.Name, ts, ts.Add(in.genTime))
					ph.tr.add(root, "sinr.NewNamedEngine", bc.Name, ts.Add(in.genTime), ts.Add(in.genTime+in.buildDur))
					ph.tr.add(root, "protocol.RunOn", bc.Name, te, te.Add(d))
					tc := &traces[c]
					tc.run += d
					tc.resolve += st.ns
					tc.executed += int64(cn.executed)
					tc.genS = append(tc.genS, in.genTime.Seconds())
					tc.buildS = append(tc.buildS, in.buildDur.Seconds())
				}
			}
		}
		// A pass is one broadcast of each case; the typical pass is the
		// sum of the per-case medians, its tail the sum of the per-case
		// tails.
		var bcastMs, tailMs float64
		for c, bc := range bcastCases {
			med := quantile(caseMs[c], 0.5)
			bcastMs += med
			tailMs += tail(caseMs[c])
			o.notef("%s median RunOn %.2f ms over %d broadcasts", bc.Name, med, len(caseMs[c]))
		}
		o.e2e["job_p50_ms"] = bcastMs
		o.e2e["job_p99_ms"] = tailMs
		o.e2e["jobs_per_s"] = 1000 / bcastMs
		o.notef("bcast_s %.4f s (summed per-case median RunOn time)", bcastMs/1000)
		o.notef("rounds_per_s %.1f 1/s (%d rounds over %.3f s of RunOn)", float64(rounds)/runTotal.Seconds(), rounds, runTotal.Seconds())
		if ph.tr != nil {
			o.layers["bcast.bcast_s"] = bcastMs / 1000
			o.layers["bcast.rounds_per_s"] = float64(rounds) / runTotal.Seconds()
			o.layers["bcast.incomplete"] = float64(o.incomplete)
			for c, bc := range bcastCases {
				tc := traces[c]
				loop := tc.run - tc.resolve
				per := float64(tc.executed)
				o.layers["sinr.resolve_ns_per_round."+bc.Name] = float64(tc.resolve) / per
				o.layers["sinr.resolve_share."+bc.Name] = float64(tc.resolve) / float64(tc.run)
				o.layers["sim.loop_ns_per_round."+bc.Name] = float64(loop) / per
				o.layers["scenario.generate_s."+bc.Name] = quantile(tc.genS, 0.5)
				o.layers["sinr.build_s."+bc.Name] = quantile(tc.buildS, 0.5)
				o.notef("%s: RunOn %.4f s = resolve %.4f s + loop %.4f s over %d rounds", bc.Name,
					tc.run.Seconds(), tc.resolve.Seconds(), loop.Seconds(), tc.executed)
			}
		}
	}

	// Repeat instance 0 of every case through the timing wrapper: the
	// seed must reproduce its exact counts, and the wrapper must not
	// change them. The repeat's counts are the per-layer counts.
	last := outs[len(outs)-1]
	var setup float64
	for c, bc := range bcastCases {
		setup += quantile(setupMs[c], 0.5) / 1000
		in, err := setupCase(seed, 0, c)
		if err != nil {
			return nil, 0, err
		}
		var st resolveStats
		res, _, err := runBcast(in, &st)
		if err != nil {
			return nil, 0, err
		}
		if got := countsOf(res); got != first[c] {
			last.failed++
			last.problemf("%s: instance 0 repeated as %+v, first run gave %+v", bc.Name, got, first[c])
		}
		calls := st.resolveCalls + st.resolveForCalls
		last.layers["sinr.resolve_calls."+bc.Name] = float64(st.resolveCalls)
		last.layers["sinr.resolvefor_calls."+bc.Name] = float64(st.resolveForCalls)
		last.layers["sinr.receivers_per_call."+bc.Name] = float64(st.receivers) / float64(max(calls, 1))
		last.layers["sim.rounds."+bc.Name] = float64(first[c].rounds)
		last.layers["sim.transmissions."+bc.Name] = float64(first[c].tx)
		last.layers["sim.receptions."+bc.Name] = float64(first[c].rx)
	}
	return outs, setup, nil
}
