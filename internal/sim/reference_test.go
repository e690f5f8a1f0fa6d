package sim

// everyRound is the tick-everyone reference: it forwards to a station
// but answers every tick with t+1, so the engine ticks the station in
// every round whatever it hinted. (Its Recv answers are moot: a station
// already due next round cannot be moved earlier.) Skipped ticks are
// no-ops under the Protocol contract, so any run must be byte-identical
// with and without the adapter.
type everyRound struct{ Protocol }

func (a everyRound) Tick(t int) (bool, Message, int) {
	transmit, msg, _ := a.Protocol.Tick(t)
	return transmit, msg, t + 1
}
