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

// SetEngineObserverForTest makes every engine built afterwards call
// observe with itself (nil: none), and returns the previous observer.
// Tests outside the package use it to reach engines that runners build.
func SetEngineObserverForTest(observe func(*Engine)) (prev func(*Engine)) {
	prev, engineBuilt = engineBuilt, observe
	return prev
}

// ActiveExaminedForTest returns how many stations the engine's
// active-receiver list updates have looked at since construction.
func (e *Engine) ActiveExaminedForTest() int64 { return e.activeExamined }
