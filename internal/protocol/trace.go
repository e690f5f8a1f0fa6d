package protocol

import (
	"sinrcast/internal/network"
	"sinrcast/internal/sim"
)

// TracedChannel wraps a Channel so every physical-layer round of a run
// is recorded into log: transmitter sets and, for subset-resolved
// rounds, the receiver subsets, in call order (see sim.RoundLog). A
// nil ch records the default exact engine. The recorded trace is
// protocol-realistic transmitter churn — the round-trace benchmarks
// replay it against an engine without re-running the protocol.
func TracedChannel(ch Channel, log *sim.RoundLog) Channel {
	return func(net *network.Network) (sim.Resolver, error) {
		inner, err := sim.NewChannel(ch, net)
		if err != nil {
			return nil, err
		}
		return sim.RecordRounds(inner, log), nil
	}
}
