package sim

// SetTickEveryRound makes every engine built afterwards wrap its
// stations in the tick-everyone reference adapter, and returns the
// previous setting. It lets tests outside the package run whole
// protocols against the reference.
func SetTickEveryRound(on bool) (prev bool) {
	prev = wrapStation != nil
	wrapStation = nil
	if on {
		wrapStation = func(p Protocol) Protocol { return everyRound{p} }
	}
	return prev
}

// SetStationWrapperForTest makes every engine built afterwards wrap each
// of its stations with wrap (nil: none), in station order, and returns
// the previous wrapper. Tests outside the package use it to count what
// the engine asks of the stations.
func SetStationWrapperForTest(wrap func(Protocol) Protocol) (prev func(Protocol) Protocol) {
	prev, wrapStation = wrapStation, wrap
	return prev
}
